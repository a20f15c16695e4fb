//! Bounded-memory streaming: the headline invariant is that any memory
//! budget admitting a feasible schedule yields output **byte-identical**
//! to the unbudgeted run — degradation (spill, streamed maps, recompute)
//! may cost time, never correctness. The property test sweeps budgets at
//! 1/2, 1/4 and 1/8 of the materialized size crossed with seeded fault
//! plans and adaptive-skew routing on/off; directed tests pin ledger-peak
//! bounding, infeasible-budget structured errors, and the breach message.

use gpf_engine::{
    Dataset, EngineConfig, EngineContext, FaultConfig, FaultPlan, RebalancePlan,
};
use gpf_support::proptest::prelude::*;
use std::fmt::Debug;
use std::sync::Arc;

/// Approximate materialized footprint of the input: the record payload is
/// what the accountant charges (16 bytes per `(u64, u64)`), and the exact
/// per-`Vec` overhead does not matter for picking budget fractions.
fn materialized_bytes(data: &[(u64, u64)]) -> u64 {
    (data.len() as u64 * 16).max(64)
}

/// The job every identity check runs: evictable input → streamed narrow
/// ops → (optionally adaptive) shuffle. Read-back streams tracked
/// partitions, so it is feasible under any budget; layout identity is
/// `partition_sizes` + the concatenated stream.
fn job(
    ctx: &Arc<EngineContext>,
    data: &[(u64, u64)],
    parts: usize,
    nparts: usize,
    adaptive: bool,
) -> (Vec<usize>, Vec<(u64, u64)>) {
    let d = Dataset::from_vec(Arc::clone(ctx), data.to_vec(), parts).evictable();
    let m = d.map(|kv| (kv.0, kv.1.rotate_left(7))).filter(|kv| kv.1 % 97 != 0);
    let route_base = move |kv: &(u64, u64)| (kv.0 % nparts as u64) as usize;
    let out = if adaptive {
        // Deterministic plan: split base 0 by value parity. The same plan
        // drives the unbudgeted baseline, so identity covers the adaptive
        // routing machinery under memory pressure.
        m.into_partition_by_adaptive(nparts, route_base, |counts| {
            let moved = counts.first().copied().unwrap_or(0);
            let n = nparts;
            RebalancePlan {
                n_final: n + 1,
                route: Box::new(move |kv: &(u64, u64)| {
                    let base = (kv.0 % n as u64) as usize;
                    if base == 0 && kv.1 & 1 == 1 {
                        n
                    } else {
                        base
                    }
                }),
                splits: 1,
                moved_records: moved,
                cap_hits: 0,
                merged: 0,
            }
        })
    } else {
        m.into_partition_by(nparts, route_base)
    };
    (out.partition_sizes(), out.collect_local())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Headline invariant: budgets at 1/2, 1/4 and 1/8 of the materialized
    /// input size — crossed with seeded fault plans and adaptive routing —
    /// produce output identical to the unbudgeted, fault-free run, with no
    /// terminal failure and no breach (every stage of this job streams, so
    /// every budget fraction is feasible).
    #[test]
    fn budgeted_runs_are_byte_identical(
        data in proptest::collection::vec((0u64..40, any::<u64>()), 1..300),
        parts in 1usize..5,
        nparts in 1usize..5,
        seed in any::<u64>(),
        rate in 0u32..150,
        knobs in 0usize..6,
    ) {
        let denom_idx = knobs % 3;
        let adaptive = knobs >= 3;
        let baseline = {
            let ctx = EngineContext::new(EngineConfig::default().with_parallelism(4));
            job(&ctx, &data, parts, nparts, adaptive)
        };
        let denom = [2u64, 4, 8][denom_idx];
        let budget = (materialized_bytes(&data) / denom).max(1);
        let ctx = EngineContext::new(
            EngineConfig::default()
                .with_parallelism(4)
                .with_memory_budget(budget)
                .with_faults(FaultConfig::new(FaultPlan::seeded(seed, rate))),
        );
        let budgeted = job(&ctx, &data, parts, nparts, adaptive);
        prop_assert_eq!(budgeted, baseline, "budget {} must not change output", budget);
        prop_assert!(ctx.take_failure().is_none(), "degradation is never terminal");
        prop_assert!(ctx.take_budget_breach().is_none(), "streaming schedules never breach");
    }
}

/// Ledger discipline: a budget an eighth of the materialized size forces
/// spills, and the accountant's peak never exceeds the budget (checked
/// exactly — the +64 KiB slack of the bench gate covers driver-side
/// buffers the ledger does not track, not accountant overshoot).
#[test]
fn ledger_peak_stays_within_budget_and_spills_happen() {
    let data: Vec<(u64, u64)> = (0..4000u64).map(|i| (i % 23, i.wrapping_mul(0x2545f491))).collect();
    let budget = materialized_bytes(&data) / 8;
    let ctx = EngineContext::new(
        EngineConfig::default().with_parallelism(4).with_memory_budget(budget),
    );
    let d = Dataset::from_vec(Arc::clone(&ctx), data, 8).evictable();
    assert!(d.spilled_partitions() > 0, "budget/8 must force spills at build");
    assert!(d.spilled_bytes() > 0);
    let out = d.map(|kv| (kv.0, kv.1 ^ 0xff)).into_partition_by(4, |kv| (kv.0 % 4) as usize);
    let _ = out.collect_local();
    let acct = ctx.accountant().expect("budget installs an accountant");
    assert!(
        acct.peak() <= budget,
        "ledger peak {} exceeds budget {}",
        acct.peak(),
        budget
    );
    assert!(ctx.take_budget_breach().is_none());
    assert!(ctx.take_failure().is_none());
}

/// Infeasible budgets surface as a clean structured breach naming the
/// operator and both byte figures — never a panic, never a partial
/// result silently presented as complete.
#[test]
fn infeasible_budget_breaches_cleanly_with_pinned_message() {
    let data: Vec<(u64, u64)> = (0..2000u64).map(|i| (i, i)).collect();
    let budget = 256u64; // far below any single partition
    let ctx = EngineContext::new(
        EngineConfig::default().with_parallelism(4).with_memory_budget(budget),
    );
    let d = Dataset::from_vec(Arc::clone(&ctx), data, 2).evictable();
    // A whole-partition operator needs one partition resident: infeasible.
    let out = d.map_partitions(|p| p.to_vec());
    assert_eq!(out.partition_sizes().iter().sum::<usize>(), 0, "breached run yields empty output");
    let breach = ctx.take_budget_breach().expect("infeasible restore records a breach");
    assert_eq!(breach.operator, "mapPartitions");
    assert_eq!(breach.budget, budget);
    assert!(breach.requested > budget);
    let text = breach.to_string();
    assert!(
        text.contains("memory budget exceeded in operator `mapPartitions`"),
        "{text}"
    );
    assert!(text.contains(&format!("budget {budget} bytes")), "{text}");
    assert!(text.contains(&format!("requested {} bytes", breach.requested)), "{text}");
}

/// One operator's observable result: its name, its partition layout and its
/// collected records, rendered as text so every element type compares alike.
type Outcome = (&'static str, Vec<usize>, String);

fn outcome<T: Clone + Send + Sync + Debug + 'static>(name: &'static str, d: &Dataset<T>) -> Outcome {
    (name, d.partition_sizes(), format!("{:?}", d.collect_local()))
}

/// Every public operator over `.evictable()` inputs on `ctx`. Also returns
/// how many partitions were spilled, summed over the inputs right after
/// they were built and over every budgeted output.
fn operator_matrix(ctx: &Arc<EngineContext>, data: &[(u64, u64)]) -> (Vec<Outcome>, usize) {
    const P: usize = 32;
    let p = P as u64;
    let evictable = |v: Vec<(u64, u64)>| Dataset::from_vec(Arc::clone(ctx), v, P).evictable();
    let d = evictable(data.to_vec());
    let d2 = evictable(data.iter().map(|&(k, v)| (k, v ^ 0x5a5a)).collect());
    let mut spilled = d.spilled_partitions() + d2.spilled_partitions();
    let by_key = move |kv: &(u64, u64)| (kv.0 % p) as usize;
    let mut out = vec![
        outcome("map", &d.map(|kv| (kv.0, kv.1.rotate_left(7)))),
        outcome("filter", &d.filter(|kv| kv.1 % 3 != 0)),
        outcome("flat_map", &d.flat_map(|&(k, v)| (0..k % 3).map(move |j| v ^ j))),
        outcome("key_by", &d.key_by(|kv| kv.1 % 5)),
        outcome("map_partitions", &d.map_partitions(|part| part.iter().rev().cloned().collect())),
        outcome(
            "map_partitions_with_index",
            &d.map_partitions_with_index(|i, part| part.iter().map(|kv| (i, kv.0 ^ kv.1)).collect()),
        ),
        outcome(
            "zip_partitions",
            &d.zip_partitions(&d2, |_, a, b| a.iter().zip(b).map(|(x, y)| x.1 ^ y.1).collect()),
        ),
        outcome("union", &d.union(&d2)),
        outcome("group_by_key", &d.group_by_key(P)),
        outcome("reduce_by_key", &d.reduce_by_key(P, |a, b| a.wrapping_add(*b))),
        outcome("join", &d.join(&d2, P)),
        outcome("sort_by_key", &d.sort_by_key(P)),
    ];
    // Splits base 0 by value parity. The input is fresh, so the unbudgeted
    // run takes the shuffle's move path.
    let adaptive = evictable(data.to_vec()).into_partition_by_adaptive(P, by_key, move |_| {
        RebalancePlan {
            n_final: P + 1,
            route: Box::new(move |kv: &(u64, u64)| match by_key(kv) {
                0 if kv.1 & 1 == 1 => P,
                base => base,
            }),
            splits: 1,
            moved_records: 0,
            cap_hits: 0,
            merged: 0,
        }
    });
    let budgeted = [
        ("partition_by_key", d.partition_by_key(P, move |k| (*k % p) as usize)),
        ("partition_by", d.partition_by(P, move |kv| (kv.1 % p) as usize)),
        ("into_partition_by_adaptive", adaptive),
        ("barrier_via_disk", d.barrier_via_disk("checkpoint")),
    ];
    for (name, ds) in &budgeted {
        spilled += ds.spilled_partitions();
        out.push(outcome(name, ds));
    }
    out.push(("collect", d.partition_sizes(), format!("{:?}", d.collect())));
    (out, spilled)
}

/// Every operator yields the same partition layout and records with no
/// budget, under a budget that holds everything (budgeted stores and the
/// serial rung of the degradation ladder, without eviction), and under
/// about 1/8 of the input's footprint (eviction, restores, streamed spill
/// frames). 32 partitions keep the largest restore — one `zip_partitions`
/// or `join` pair — well inside 1/8.
#[test]
fn every_operator_agrees_with_and_without_a_budget() {
    let mut rng = gpf_support::rng::SplitMix64::new(0x6f70_5f6d_6174_7278);
    let data: Vec<(u64, u64)> =
        (0..4096).map(|_| (rng.next_u64() % 1024, rng.next_u64())).collect();
    let footprint = materialized_bytes(&data);
    let run = |budget: Option<u64>| {
        let config = EngineConfig::default().with_parallelism(4);
        let ctx = EngineContext::new(match budget {
            Some(bytes) => config.with_memory_budget(bytes),
            None => config,
        });
        let (outcomes, spilled) = operator_matrix(&ctx, &data);
        assert!(ctx.take_failure().is_none(), "budget {budget:?}: no task failure");
        assert!(ctx.take_budget_breach().is_none(), "budget {budget:?}: no breach");
        if let (Some(bytes), Some(acct)) = (budget, ctx.accountant()) {
            assert!(acct.peak() <= bytes, "ledger peak {} over budget {bytes}", acct.peak());
        }
        (outcomes, spilled)
    };
    let (unbudgeted, spilled) = run(None);
    assert_eq!((unbudgeted.len(), spilled), (17, 0), "17 operators, no spills without a budget");
    // 16x the input holds every budgeted dataset alive at once (both inputs
    // plus `join`'s two shuffled sides).
    let (roomy, spilled) = run(Some(footprint * 16));
    assert_eq!(spilled, 0, "a budget larger than the footprint spills nothing");
    let (tight, spilled) = run(Some(footprint / 8));
    assert!(spilled > 0, "1/8 of the footprint must spill");
    for ((a, b), c) in unbudgeted.iter().zip(&roomy).zip(&tight) {
        assert_eq!(a, b, "`{}` changed under a budget larger than the footprint", a.0);
        assert_eq!(a, c, "`{}` changed under 1/8 of the footprint", a.0);
    }
}
