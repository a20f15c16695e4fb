//! The benchmark's own guarantees: the seed alone decides the inputs and
//! the calls, and every workload reproduces the `wgs` calls.
//!
//! One test function: each job resets the process-wide RSS high-water mark,
//! so jobs must not run on parallel test threads.

use gpf_perfbench::inputs::{Inputs, Workload};
use gpf_perfbench::layers::{self, PER_LAYER};
use gpf_perfbench::{calls_digest, run, score};

/// Small enough for a test, large enough for every Process to do work.
const SCALE: f64 = 0.1;

fn calls(inputs: &Inputs, workload: Workload) -> u64 {
    let out = run::run(inputs, workload).expect("job succeeds");
    assert!(
        !out.calls.is_empty(),
        "{} produced no calls",
        workload.name()
    );
    calls_digest(&out.calls)
}

#[test]
fn seed_decides_inputs_and_calls() {
    let (a, _) = Inputs::generate(SCALE, 7);
    let (b, _) = Inputs::generate(SCALE, 7);
    assert_eq!(a.digest(), b.digest(), "same seed, same inputs");
    let reference = calls(&a, Workload::Wgs);
    assert_eq!(calls(&b, Workload::Wgs), reference, "same seed, same calls");

    let out = run::run(&a, Workload::Wgs).expect("job succeeds");
    let s = score(&a.truth, &out.calls);
    assert!(
        s.recall > 0.5 && s.precision > 0.8,
        "calls match the planted truth: {s:?}"
    );

    let traced = layers::traced_run(&a, Workload::Wgs).expect("traced job succeeds");
    assert_eq!(
        calls_digest(&traced.out.calls),
        reference,
        "tracing changes no call"
    );
    let m = traced.metrics(out.wall_s);
    for (name, _) in PER_LAYER {
        assert!(
            m.get(name).is_some_and(|v| v.is_finite()),
            "{name} is reported"
        );
    }
    for name in [
        "align.sw_cells",
        "caller.pairhmm_cells",
        "alloc.bytes",
        "par.busy_s",
    ] {
        assert!(m[name] > 0.0, "{name} counted work in the traced job");
    }

    let (other, _) = Inputs::generate(SCALE, 8);
    assert_ne!(
        other.digest(),
        a.digest(),
        "another seed changes the inputs"
    );

    let (mut post, pairs) = Inputs::generate(SCALE, 7);
    post.align(pairs).expect("set-up alignment");
    assert_eq!(
        post.digest(),
        a.digest(),
        "post-align reads the same inputs"
    );
    assert_eq!(
        calls(&post, Workload::PostAlign),
        reference,
        "post-align reproduces wgs"
    );
    assert_eq!(
        calls(&a, Workload::WgsBudget),
        reference,
        "wgs-budget reproduces wgs"
    );
}
