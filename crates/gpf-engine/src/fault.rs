//! Deterministic fault injection and the structured errors recovery
//! surfaces — GPF's stand-in for the task failures Spark treats as routine
//! at WGS scale (lost executors, corrupt shuffle files, stragglers).
//!
//! The model is a [`FaultPlan`]: a pure function from a *fault site* —
//! `(stage, partition, attempt, surface)` — to an optional [`FaultKind`].
//! Sites are decided either explicitly (a [`FaultSite`] list, used by tests
//! that must exhaust a retry budget) or probabilistically from a seed: the
//! decision is a hash of the site coordinates, so the same seed replays the
//! exact same fault schedule on every run — a failing chaos test prints its
//! seed and the whole schedule is reproducible from it.
//!
//! Recovery itself lives in [`crate::dataset`] (task retry, lineage
//! recompute, checksummed spill) and [`crate::context`] (the failure slot
//! [`crate::EngineContext::fail`] that [`gpf_core`]'s `Pipeline::run` maps
//! to `PipelineError::TaskFailed`). This module only holds the plan, the
//! configuration knobs, and the [`EngineError`] those layers exchange.

use gpf_support::rng::SplitMix64;
use std::fmt;

/// What gets injected at a fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The task attempt fails as if the user closure panicked.
    TaskPanic,
    /// One serialized shuffle bucket has a bit flipped after the map side
    /// checksummed it (detected by the reduce-side verify).
    CorruptBucket,
    /// One serialized spill buffer of `barrier_via_disk` has a bit flipped
    /// after checksumming (detected on read-back).
    CorruptSpill,
    /// A spill *read* returns a truncated buffer (the stored bytes are
    /// intact; the read path saw a short copy — detected by checksum /
    /// record-count verification, recovered by re-read or lineage).
    TruncateSpill,
    /// A spill *read* returns a bit-flipped copy of an intact buffer
    /// (detected by checksum verification on read-back).
    CorruptSpillRead,
    /// The task completes but its measured duration is inflated by
    /// [`FaultConfig::straggler_extra_ns`] — the speculation trigger.
    Straggler,
}

/// Where in the engine a fault decision is being made. Each surface admits
/// only the kinds that are physically meaningful there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSurface {
    /// A narrow-op task (`narrow_op` and everything built on it).
    NarrowTask,
    /// A shuffle map task (route + scatter + serialize).
    ShuffleMap,
    /// One map partition's serialized bucket buffer.
    ShuffleBucket,
    /// One partition's `barrier_via_disk` spill buffer.
    Spill,
    /// One partition's spill buffer on *read-back* (barrier read side and
    /// budget-evicted partition restore). Faults here model transient read
    /// errors: the stored bytes stay intact, only the copy handed to the
    /// reader is damaged.
    SpillRead,
}

impl FaultSurface {
    /// Kinds a probabilistic plan may inject at this surface.
    fn kinds(self) -> &'static [FaultKind] {
        match self {
            FaultSurface::NarrowTask | FaultSurface::ShuffleMap => {
                &[FaultKind::TaskPanic, FaultKind::Straggler]
            }
            FaultSurface::ShuffleBucket => &[FaultKind::CorruptBucket],
            FaultSurface::Spill => &[FaultKind::CorruptSpill],
            FaultSurface::SpillRead => &[FaultKind::TruncateSpill, FaultKind::CorruptSpillRead],
        }
    }

    fn id(self) -> u64 {
        match self {
            FaultSurface::NarrowTask => 1,
            FaultSurface::ShuffleMap => 2,
            FaultSurface::ShuffleBucket => 3,
            FaultSurface::Spill => 4,
            FaultSurface::SpillRead => 5,
        }
    }
}

/// An explicit injection site: fires when stage, partition and attempt all
/// match and `kind` is admissible at the queried surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSite {
    /// Stage index ([`crate::EngineContext::current_stage`] at op entry).
    pub stage: u32,
    /// Partition (task) index within the stage.
    pub partition: u32,
    /// Attempt number (0 = first execution).
    pub attempt: u32,
    /// What to inject.
    pub kind: FaultKind,
}

/// A replayable fault schedule: explicit sites plus a seeded injection rate.
///
/// The probabilistic path only ever fires on attempt 0, so any schedule it
/// produces is recoverable within a one-retry budget; schedules that must
/// defeat the budget (to test terminal failure) list explicit sites
/// covering every attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the probabilistic site decisions (printed by chaos tests).
    pub seed: u64,
    /// Injection probability per site, in permille (0 disables the
    /// probabilistic path; 1000 faults every first attempt).
    pub rate_permille: u32,
    /// Explicit sites, checked before the probabilistic path.
    pub sites: Vec<FaultSite>,
}

impl FaultPlan {
    /// A purely probabilistic plan.
    pub fn seeded(seed: u64, rate_permille: u32) -> Self {
        Self { seed, rate_permille, sites: Vec::new() }
    }

    /// A plan that injects only at the listed sites.
    pub fn explicit(sites: Vec<FaultSite>) -> Self {
        Self { seed: 0, rate_permille: 0, sites }
    }

    /// Deterministic site hash: the whole schedule is a pure function of
    /// `(seed, stage, partition, surface)`.
    fn site_hash(&self, stage: u32, partition: u32, surface: FaultSurface) -> u64 {
        let a = SplitMix64::mix(self.seed, stage as u64);
        let b = SplitMix64::mix(a, partition as u64);
        SplitMix64::mix(b, surface.id())
    }

    /// Decide what (if anything) to inject at a site.
    pub fn decide(
        &self,
        stage: u32,
        partition: u32,
        attempt: u32,
        surface: FaultSurface,
    ) -> Option<FaultKind> {
        for site in &self.sites {
            if site.stage == stage
                && site.partition == partition
                && site.attempt == attempt
                && surface.kinds().contains(&site.kind)
            {
                return Some(site.kind);
            }
        }
        // The seeded path fires only on first attempts — retries of a
        // probabilistically faulted task always run clean, which is what
        // keeps every seeded schedule inside the retry budget.
        if attempt == 0 && self.rate_permille > 0 {
            let h = self.site_hash(stage, partition, surface);
            if h % 1000 < self.rate_permille as u64 {
                let kinds = surface.kinds();
                return Some(kinds[((h / 1000) % kinds.len() as u64) as usize]);
            }
        }
        None
    }

    /// Salt for deterministic byte corruption at a site (which bit of which
    /// buffer gets flipped).
    pub fn corruption_salt(&self, stage: u32, partition: u32) -> u64 {
        SplitMix64::mix(self.site_hash(stage, partition, FaultSurface::ShuffleBucket), 0x5a17)
    }
}

/// Flip one seeded bit of `bytes`. Returns `false` (and does nothing) when
/// the buffer is empty.
pub fn corrupt_bit(bytes: &mut [u8], salt: u64) -> bool {
    if bytes.is_empty() {
        return false;
    }
    let h = SplitMix64::mix(salt, bytes.len() as u64);
    let idx = (h % bytes.len() as u64) as usize;
    bytes[idx] ^= 1 << ((h >> 32) % 8);
    true
}

/// Fault-tolerance configuration, carried by
/// [`crate::EngineConfig::faults`]. `None` there means one attempt per task,
/// no injection and no speculation; checksums and lineage recompute do not
/// depend on it.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// The injection schedule (use [`FaultPlan::seeded`]`(seed, 0)` for a
    /// plan that injects nothing but still enables retries and
    /// speculation).
    pub plan: FaultPlan,
    /// Retries allowed per task after its first attempt; a task failing
    /// `1 + max_task_retries` times surfaces an [`EngineError`].
    pub max_task_retries: u32,
    /// Base of the exponential per-attempt backoff *accounting*
    /// (`base << (attempt - 1)` ns). Recorded, never slept: the engine is
    /// in-memory and deterministic, so the cost model charges the wait
    /// instead of paying it in wall-clock.
    pub backoff_base_ns: u64,
    /// Enable speculative duplicates for straggler tasks.
    pub speculation: bool,
    /// A task is a straggler when its duration exceeds this multiple of
    /// the stage's median task duration.
    pub speculation_multiplier: f64,
    /// Artificial duration added to a task hit by [`FaultKind::Straggler`].
    pub straggler_extra_ns: u64,
}

impl FaultConfig {
    /// Defaults: 3 retries, 1 ms backoff base, speculation at 4× median,
    /// 20 ms injected straggler delay.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            max_task_retries: 3,
            backoff_base_ns: 1_000_000,
            speculation: true,
            speculation_multiplier: 4.0,
            straggler_extra_ns: 20_000_000,
        }
    }

    /// Override the retry budget.
    pub fn with_max_task_retries(mut self, retries: u32) -> Self {
        self.max_task_retries = retries;
        self
    }

    /// Backoff accounting charged to attempt `attempt` (0 = first attempt,
    /// charged nothing).
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        if attempt == 0 {
            0
        } else {
            self.backoff_base_ns.saturating_mul(1u64 << (attempt - 1).min(20))
        }
    }
}

/// One failed attempt in a task's history.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// Attempt number (0 = first execution).
    pub attempt: u32,
    /// Why the attempt failed (injected fault or captured panic message).
    pub cause: String,
    /// Backoff accounting charged before this attempt, in ns.
    pub backoff_ns: u64,
}

/// A task that exhausted its retry budget — the structured failure
/// `Pipeline::run` maps to `PipelineError::TaskFailed`.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineError {
    /// Operation label (`"map"`, `"partitionBy"`, …).
    pub label: String,
    /// Stage index at op entry.
    pub stage: u32,
    /// Partition (task) index.
    pub partition: u32,
    /// Every failed attempt, in order.
    pub attempts: Vec<AttemptRecord>,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "task `{}` (stage {}, partition {}) failed after {} attempts: ",
            self.label,
            self.stage,
            self.partition,
            self.attempts.len()
        )?;
        for (i, a) in self.attempts.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "attempt {} ({} ns backoff): {}", a.attempt, a.backoff_ns, a.cause)?;
        }
        Ok(())
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::seeded(0xfeed, 500);
        let again = FaultPlan::seeded(0xfeed, 500);
        let other = FaultPlan::seeded(0xbeef, 500);
        let mut same = 0;
        let mut diff = 0;
        for stage in 0..4u32 {
            for part in 0..64u32 {
                let d = plan.decide(stage, part, 0, FaultSurface::NarrowTask);
                assert_eq!(d, again.decide(stage, part, 0, FaultSurface::NarrowTask));
                if d == other.decide(stage, part, 0, FaultSurface::NarrowTask) {
                    same += 1;
                } else {
                    diff += 1;
                }
            }
        }
        assert!(diff > 0, "different seeds must produce different schedules ({same} same)");
    }

    #[test]
    fn seeded_path_fires_only_on_first_attempts() {
        let plan = FaultPlan::seeded(7, 1000);
        assert!(plan.decide(0, 0, 0, FaultSurface::NarrowTask).is_some());
        for attempt in 1..5 {
            assert_eq!(plan.decide(0, 0, attempt, FaultSurface::NarrowTask), None);
        }
    }

    #[test]
    fn rate_roughly_matches_permille() {
        let plan = FaultPlan::seeded(42, 250);
        let hits = (0..1000u32)
            .filter(|&p| plan.decide(0, p, 0, FaultSurface::ShuffleBucket).is_some())
            .count();
        assert!((150..350).contains(&hits), "250‰ plan hit {hits}/1000 sites");
    }

    #[test]
    fn explicit_sites_respect_surface_kinds() {
        let plan = FaultPlan::explicit(vec![FaultSite {
            stage: 1,
            partition: 2,
            attempt: 0,
            kind: FaultKind::CorruptBucket,
        }]);
        assert_eq!(
            plan.decide(1, 2, 0, FaultSurface::ShuffleBucket),
            Some(FaultKind::CorruptBucket)
        );
        // The same site queried from a task surface is inert: a bucket
        // corruption cannot fire inside a narrow task.
        assert_eq!(plan.decide(1, 2, 0, FaultSurface::NarrowTask), None);
        assert_eq!(plan.decide(1, 3, 0, FaultSurface::ShuffleBucket), None);
    }

    #[test]
    fn spill_read_surface_admits_only_read_faults() {
        // Seeded plans at full rate on the read surface yield only the two
        // read-side kinds, and the write-side CorruptSpill never leaks in.
        let plan = FaultPlan::seeded(0xdead, 1000);
        for part in 0..64u32 {
            let k = plan.decide(3, part, 0, FaultSurface::SpillRead);
            assert!(
                matches!(k, Some(FaultKind::TruncateSpill | FaultKind::CorruptSpillRead)),
                "unexpected kind {k:?}"
            );
        }
        // An explicit write-side corruption site is inert on the read surface
        // and vice versa.
        let plan = FaultPlan::explicit(vec![
            FaultSite { stage: 0, partition: 0, attempt: 0, kind: FaultKind::CorruptSpill },
            FaultSite { stage: 0, partition: 1, attempt: 0, kind: FaultKind::TruncateSpill },
        ]);
        assert_eq!(plan.decide(0, 0, 0, FaultSurface::SpillRead), None);
        assert_eq!(plan.decide(0, 1, 0, FaultSurface::Spill), None);
        assert_eq!(
            plan.decide(0, 1, 0, FaultSurface::SpillRead),
            Some(FaultKind::TruncateSpill)
        );
    }

    #[test]
    fn corrupt_bit_flips_exactly_one_bit() {
        let mut buf = vec![0u8; 64];
        assert!(corrupt_bit(&mut buf, 99));
        let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
        let mut empty: Vec<u8> = Vec::new();
        assert!(!corrupt_bit(&mut empty, 99));
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let fc = FaultConfig::new(FaultPlan::seeded(0, 0));
        assert_eq!(fc.backoff_ns(0), 0);
        assert_eq!(fc.backoff_ns(1), fc.backoff_base_ns);
        assert_eq!(fc.backoff_ns(3), fc.backoff_base_ns * 4);
    }

    #[test]
    fn engine_error_display_names_the_site() {
        let err = EngineError {
            label: "map".into(),
            stage: 2,
            partition: 7,
            attempts: vec![
                AttemptRecord { attempt: 0, cause: "injected: task panic".into(), backoff_ns: 0 },
                AttemptRecord { attempt: 1, cause: "injected: task panic".into(), backoff_ns: 5 },
            ],
        };
        let text = err.to_string();
        assert!(text.contains("`map`"), "{text}");
        assert!(text.contains("stage 2"), "{text}");
        assert!(text.contains("partition 7"), "{text}");
        assert!(text.contains("failed after 2 attempts"), "{text}");
        assert!(text.contains("attempt 1"), "{text}");
    }
}
