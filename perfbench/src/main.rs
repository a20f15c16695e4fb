//! The benchmark command. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wgs|post-align|wgs-budget> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is the result: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`). The line before it is the full record, stamped with the
//! host and provenance. The exit code is 0 only when every job succeeded
//! and produced the reference calls.

use gpf_formats::FastqPair;
use gpf_perfbench::inputs::{Inputs, Workload, DEFAULT_SEED, SCALE};
use gpf_perfbench::json::Obj;
use gpf_perfbench::run::{self, RunOutput};
use gpf_perfbench::{calls_digest, host, layers, score};
use gpf_trace::names as tn;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: gpf-perfbench --workload <wgs|post-align|wgs-budget> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Set-ups per invocation, at the least; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 4;
/// Set-up repeats until this many seconds have passed: one `wgs` set-up
/// takes about a fifth of a second, too short to ride out the host's noise.
const SETUP_SECONDS: f64 = 4.0;
/// Input generations run side by side, one per engine thread. Generation
/// is mostly single-threaded, and alone it sees only the core it lands
/// on, whose speed drifts by up to 2× for minutes on a shared host; the
/// jobs, like a pair of generations, average over both cores. The
/// `post-align` alignment uses the whole pool, so it runs alone.
const SETUP_CONCURRENT: usize = 2;
/// Timed jobs per invocation, at the least.
const MIN_RUNS: usize = 3;
/// Worker threads of the engine pool.
const THREADS: &str = "2";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Wgs,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(()))?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad(()))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(())),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Jobs attempted and what went wrong in them.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Run one job, counting an error or a panic as a failure.
    fn attempt<T>(&mut self, label: &str, job: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let outcome = match catch_unwind(AssertUnwindSafe(job)) {
            Ok(r) => r,
            Err(payload) => Err(payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .map_or_else(|| "panic".into(), |m| format!("panic: {m}"))),
        };
        outcome
            .map_err(|e| self.fail(&format!("{label}: {e}")))
            .ok()
    }

    /// Count a job that ran but produced the wrong output.
    fn fail(&mut self, problem: &str) {
        eprintln!("perfbench: FAILED {problem}");
        self.failed += 1;
        self.problems.push(problem.to_string());
    }

    /// Check a job's calls against the reference digest.
    fn check(&mut self, label: &str, out: &RunOutput, reference: u64) -> u64 {
        let digest = calls_digest(&out.calls);
        if digest != reference {
            self.fail(&format!(
                "{label}: calls digest {digest:016x} differs from the wgs reference {reference:016x}"
            ));
        }
        digest
    }
}

fn spilled_so_far() -> u64 {
    layers::counters()
        .get(tn::MEM_BUDGET_SPILLED)
        .copied()
        .unwrap_or(0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Set before any thread exists; the pool reads it on every call.
    std::env::set_var("GPF_PAR_THREADS", THREADS);
    bench(&args)
}

fn bench(args: &Args) -> ExitCode {
    let workload = args.workload;
    let name = workload.name();
    let mut tally = Tally::default();

    // Set-up, repeated: every repetition must generate the same inputs.
    let mut setup_s = Vec::new();
    let mut input_digests = Vec::new();
    let mut inputs = None;
    let setup_started = Instant::now();
    while setup_s.len() < SETUP_MIN_REPS || setup_started.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(inputs.take());
        let generated: Vec<Option<(f64, Inputs, Vec<FastqPair>)>> = std::thread::scope(|scope| {
            let builders: Vec<_> = (0..SETUP_CONCURRENT)
                .map(|_| {
                    scope.spawn(|| {
                        let t = Instant::now();
                        let (built, pairs) = Inputs::generate(SCALE, args.seed);
                        (t.elapsed().as_secs_f64(), built, pairs)
                    })
                })
                .collect();
            builders.into_iter().map(|b| b.join().ok()).collect()
        });
        for g in generated {
            let Some((generate_s, mut built, pairs)) = g else {
                eprintln!("perfbench: set-up panicked");
                return ExitCode::FAILURE;
            };
            let t = Instant::now();
            match workload {
                Workload::PostAlign => {
                    if let Err(e) = built.align(pairs) {
                        eprintln!("perfbench: set-up failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                Workload::Wgs | Workload::WgsBudget => drop(pairs),
            }
            setup_s.push(generate_s + t.elapsed().as_secs_f64());
            input_digests.push(built.digest());
            inputs = Some(built);
        }
    }
    let Some(inputs) = inputs else {
        return ExitCode::FAILURE;
    };
    host::release_free_memory();
    let input_digest = input_digests[0];
    if input_digests.iter().any(|&d| d != input_digest) {
        let problem = format!("set-up is not deterministic: input digests {input_digests:x?}");
        eprintln!("perfbench: FAILED {problem}");
        tally.problems.push(problem);
    }
    eprintln!(
        "perfbench: {name} seed {} scale {}: {} pairs, {} Mbases, {} planted variants, \
         set-up {:.2} s (median of {})",
        args.seed,
        SCALE,
        inputs.pairs,
        inputs.bases as f64 / 1e6,
        inputs.truth.len(),
        median(&setup_s),
        setup_s.len()
    );

    // Reference job: the plain wgs pipeline on the same inputs. Every
    // later job of every workload must reproduce its calls exactly. It
    // also warms the allocator and page cache before timing starts.
    let Some(reference) = tally.attempt("wgs reference job", || run::run(&inputs, Workload::Wgs))
    else {
        return finish(args, &tally, Obj::new(), Obj::new());
    };
    let reference_digest = calls_digest(&reference.calls);
    let truth_score = score(&inputs.truth, &reference.calls);
    drop(reference);

    // Timed, untraced jobs: one at a time, for at least `seconds`.
    let (mut wall, mut cpu, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut runs = Vec::new();
    let mut warnings = Vec::new();
    let started = Instant::now();
    let mut timed = 0;
    // A job starts only if it is expected to end nearer to `seconds` than
    // past it, so a run measures about `seconds` of jobs, not up to one
    // job more.
    while timed < MIN_RUNS
        || started.elapsed().as_secs_f64() + median(&wall) / 2.0 < args.seconds as f64
    {
        timed += 1;
        let spilled_before = spilled_so_far();
        let steal_before = host::steal_s();
        let Some(out) = tally.attempt(name, || run::run(&inputs, workload)) else {
            continue;
        };
        let spilled = spilled_so_far() - spilled_before;
        let steal = host::steal_s() - steal_before;
        let digest = tally.check(name, &out, reference_digest);
        if workload.budget().is_some() && spilled == 0 {
            let w = format!(
                "WARNING: {name} run {timed} spilled nothing under its {} byte budget; \
                 the workload no longer measures the spill path",
                gpf_perfbench::inputs::BUDGET_BYTES
            );
            eprintln!("perfbench: {w}");
            warnings.push(w);
        }
        wall.push(out.wall_s);
        cpu.push(out.cpu_s);
        rss.push(out.peak_rss_mb);
        runs.push(
            Obj::new()
                .num("wall_s", out.wall_s)
                .num("cpu_s", out.cpu_s)
                .num("peak_rss_mb", out.peak_rss_mb)
                .num("load_s", out.load_s)
                .num("collect_s", out.collect_s)
                .num("steal_s", steal)
                .int("budget.spilled", spilled)
                .str("calls_digest", &format!("{digest:016x}")),
        );
    }
    let wall_median = median(&wall);

    // One traced job for the per-layer ledger.
    let mut per_layer = Obj::new();
    if args.trace {
        if let Some(traced) = tally.attempt("traced job", || layers::traced_run(&inputs, workload))
        {
            tally.check("traced job", &traced.out, reference_digest);
            let values = traced.metrics(wall_median);
            for (key, unit) in layers::PER_LAYER {
                per_layer = per_layer.obj(
                    key,
                    metric(values.get(key).copied().unwrap_or(f64::NAN), unit),
                );
            }
        }
    }

    let end_to_end = Obj::new()
        .obj("wall_s", metric(wall_median, "s"))
        .obj("cpu_s", metric(median(&cpu), "s"))
        .obj("peak_rss_mb", metric(median(&rss), "MB"))
        .obj("setup_s", metric(median(&setup_s), "s"))
        .obj("recall", metric(truth_score.recall, "fraction"))
        .obj("precision", metric(truth_score.precision, "fraction"))
        .obj("success_rate", metric(1.0 - error_rate(&tally), "fraction"));

    let record = Obj::new()
        .str("record", "gpf-perfbench")
        .obj(
            "provenance",
            host::provenance(name, args.seed, SCALE, args.seconds, args.trace),
        )
        .str("input_digest", &format!("{input_digest:016x}"))
        .str("wgs_reference_digest", &format!("{reference_digest:016x}"))
        .int("calls", truth_score.calls as u64)
        .int("planted", truth_score.planted as u64)
        .num("error_rate", error_rate(&tally))
        .nums("setup_s", &setup_s)
        .list("runs", &runs)
        .strs("warnings", &warnings)
        .strs("problems", &tally.problems)
        .obj("end_to_end", end_to_end.clone())
        .obj("per_layer", per_layer.clone());
    println!("{}", record.render());
    finish(args, &tally, end_to_end, per_layer)
}

fn metric(value: f64, unit: &str) -> Obj {
    Obj::new().num("value", value).str("unit", unit)
}

fn error_rate(tally: &Tally) -> f64 {
    if tally.attempted == 0 {
        return 1.0;
    }
    tally.failed as f64 / tally.attempted as f64
}

/// Print the result line and pick the exit code.
fn finish(args: &Args, tally: &Tally, end_to_end: Obj, per_layer: Obj) -> ExitCode {
    let correct = tally.failed == 0 && tally.problems.is_empty();
    let result = Obj::new()
        .bool("correct", correct)
        .int("attempted", tally.attempted)
        .int("failed", tally.failed)
        .obj("metrics", if args.trace { per_layer } else { end_to_end });
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
