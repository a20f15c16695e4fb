//! The per-layer ledger, read from one traced job: wrapper timings, the
//! engine's `JobRun`, deltas of the trace counters that already exist,
//! and the tracking allocator.

use crate::inputs::{Inputs, Workload};
use crate::run::{self, RunOutput};
use gpf_engine::{SimCluster, SimOptions};
use gpf_trace::{alloc, names as tn};
use std::collections::BTreeMap;

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("process.BwaMapping.wall_s", "s"),
    ("process.MarkDuplicate.wall_s", "s"),
    ("process.Repartitioner.wall_s", "s"),
    ("process.IndelRealign.wall_s", "s"),
    ("process.BQSR.wall_s", "s"),
    ("process.HaplotypeCaller.wall_s", "s"),
    ("load.wall_s", "s"),
    ("collect.wall_s", "s"),
    ("core.stages", "count"),
    ("core.fused_chains", "count"),
    ("repartition.splits", "count"),
    ("repartition.final_partitions", "count"),
    ("align.task_cpu_s", "s"),
    ("align.sw_cells", "count"),
    ("align.sw_mcells_per_cpu_s", "Mcells/s"),
    ("align.prefilter_skip_ratio", "fraction"),
    ("cleaner.task_cpu_s", "s"),
    ("caller.task_cpu_s", "s"),
    ("caller.pairhmm_cells", "count"),
    ("caller.pairhmm_mcells_per_cpu_s", "Mcells/s"),
    ("codec.serde_s", "s"),
    ("codec.serialize_bytes", "bytes"),
    ("codec.deserialize_bytes", "bytes"),
    ("engine.tasks", "count"),
    ("engine.task_cpu_s", "s"),
    ("engine.task_cpu_max_s", "s"),
    ("engine.non_task_cpu_s", "s"),
    ("engine.shuffle_bytes", "bytes"),
    ("shuffle.bucket_entries", "count"),
    ("shuffle.scratch_hit_ratio", "fraction"),
    ("engine.sim2048_makespan_s", "s"),
    ("engine.sim128_makespan_s", "s"),
    ("budget.spilled", "count"),
    ("budget.spilled_bytes", "bytes"),
    ("budget.restored", "count"),
    ("budget.ledger_peak_bytes", "bytes"),
    ("par.busy_s", "s"),
    ("par.idle_frac", "fraction"),
    ("alloc.bytes", "bytes"),
    ("alloc.count", "count"),
    ("alloc.task_bytes", "bytes"),
    ("alloc.serde_bytes", "bytes"),
    ("alloc.shuffle_bytes", "bytes"),
    ("alloc.spill_bytes", "bytes"),
    ("alloc.untagged_bytes", "bytes"),
    ("alloc.heap_peak_mb", "MB"),
    ("trace.overhead_frac", "fraction"),
];

/// Current value of every registered counter.
pub fn counters() -> BTreeMap<&'static str, u64> {
    gpf_trace::counters_snapshot().into_iter().collect()
}

/// Growth of each counter from `before` to now.
fn counter_deltas(before: &BTreeMap<&'static str, u64>) -> BTreeMap<&'static str, u64> {
    counters()
        .into_iter()
        .map(|(name, v)| {
            (
                name,
                v.saturating_sub(before.get(name).copied().unwrap_or(0)),
            )
        })
        .collect()
}

fn bucket_entries() -> u64 {
    gpf_trace::histograms_snapshot()
        .into_iter()
        .find(|(name, _)| *name == tn::SHUFFLE_BUCKET_BYTES)
        .map(|(_, h)| h.count)
        .unwrap_or(0)
}

/// One traced job and what the trace layer counted during it.
pub struct TracedRun {
    /// The job itself.
    pub out: RunOutput,
    counters: BTreeMap<&'static str, u64>,
    bucket_entries: u64,
    heap_peak_bytes: u64,
}

/// Run one job with the recorder and the tracking allocator switched on.
pub fn traced_run(inputs: &Inputs, workload: Workload) -> Result<TracedRun, String> {
    let before = counters();
    let buckets_before = bucket_entries();
    gpf_trace::set_enabled(true);
    alloc::set_tracking(true);
    alloc::reset_gauges();
    let out = run::run(inputs, workload);
    alloc::flush_thread_stats();
    let heap_peak_bytes = alloc::peak_bytes();
    alloc::set_tracking(false);
    gpf_trace::set_enabled(false);
    Ok(TracedRun {
        out: out?,
        counters: counter_deltas(&before),
        bucket_entries: bucket_entries().saturating_sub(buckets_before),
        heap_peak_bytes,
    })
}

fn ratio(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

impl TracedRun {
    /// Every [`PER_LAYER`] metric; `untraced_wall_s` is the median wall
    /// time of the untraced jobs, the base of `trace.overhead_frac`.
    pub fn metrics(&self, untraced_wall_s: f64) -> BTreeMap<&'static str, f64> {
        let c = |name: &str| self.counters.get(name).copied().unwrap_or(0) as f64;
        let job = &self.out.job;
        let phase_cpu = |phase: &str| {
            job.stages_in_phase(phase)
                .map(|s| s.total_cpu_s())
                .sum::<f64>()
        };
        let makespan = |cores: usize| {
            gpf_engine::sim::simulate(
                job,
                &SimCluster::paper_cluster(cores),
                &SimOptions::default(),
            )
            .makespan_s
        };
        let (align_cpu, caller_cpu) = (phase_cpu("aligner"), phase_cpu("caller"));
        let task_cpu = job.total_cpu_s();
        let task_max = job
            .stages
            .iter()
            .flat_map(|s| s.task_cpu_s.iter().copied())
            .fold(0.0, f64::max);
        let (sw, hmm) = (c(tn::ALIGN_SW_CELLS), c(tn::PAIRHMM_CELLS));
        let (hit, skip) = (c(tn::ALIGN_PREFILTER_HIT), c(tn::ALIGN_PREFILTER_SKIP));
        let (reused, fresh) = (
            c(tn::SHUFFLE_SCRATCH_REUSED),
            c(tn::SHUFFLE_SCRATCH_ALLOCATED),
        );
        let (busy, idle) = (c(tn::PAR_BUSY_NS) * 1e-9, c(tn::PAR_IDLE_NS) * 1e-9);

        let mut m = BTreeMap::new();
        for (key, _) in PER_LAYER.iter().filter(|(k, _)| k.starts_with("process.")) {
            let name = &key["process.".len()..key.len() - ".wall_s".len()];
            m.insert(*key, self.out.process_s.get(name).copied().unwrap_or(0.0));
        }
        m.extend([
            ("load.wall_s", self.out.load_s),
            ("collect.wall_s", self.out.collect_s),
            ("core.stages", job.num_stages() as f64),
            ("core.fused_chains", self.out.fused_chains as f64),
            ("repartition.splits", c(tn::REPARTITION_SPLITS)),
            (
                "repartition.final_partitions",
                self.out.final_partitions as f64,
            ),
            ("align.task_cpu_s", align_cpu),
            ("align.sw_cells", sw),
            ("align.sw_mcells_per_cpu_s", ratio(sw * 1e-6, align_cpu)),
            ("align.prefilter_skip_ratio", ratio(skip, hit + skip)),
            ("cleaner.task_cpu_s", phase_cpu("cleaner")),
            ("caller.task_cpu_s", caller_cpu),
            ("caller.pairhmm_cells", hmm),
            (
                "caller.pairhmm_mcells_per_cpu_s",
                ratio(hmm * 1e-6, caller_cpu),
            ),
            ("codec.serde_s", job.total_serde_s()),
            ("codec.serialize_bytes", c(tn::CODEC_SERIALIZE_BYTES)),
            ("codec.deserialize_bytes", c(tn::CODEC_DESERIALIZE_BYTES)),
            (
                "engine.tasks",
                job.stages.iter().map(|s| s.num_tasks()).sum::<usize>() as f64,
            ),
            ("engine.task_cpu_s", task_cpu),
            ("engine.task_cpu_max_s", task_max),
            ("engine.non_task_cpu_s", self.out.cpu_s - task_cpu),
            ("engine.shuffle_bytes", job.total_shuffle_bytes() as f64),
            ("shuffle.bucket_entries", self.bucket_entries as f64),
            ("shuffle.scratch_hit_ratio", ratio(reused, reused + fresh)),
            ("engine.sim2048_makespan_s", makespan(2048)),
            ("engine.sim128_makespan_s", makespan(128)),
            ("budget.spilled", c(tn::MEM_BUDGET_SPILLED)),
            ("budget.spilled_bytes", c(tn::MEM_BUDGET_SPILLED_BYTES)),
            ("budget.restored", c(tn::MEM_BUDGET_RESTORED)),
            (
                "budget.ledger_peak_bytes",
                self.out.ledger_peak_bytes as f64,
            ),
            ("par.busy_s", busy),
            ("par.idle_frac", ratio(idle, busy + idle)),
            ("alloc.bytes", c(tn::HEAP_ALLOC_BYTES)),
            ("alloc.count", c(tn::HEAP_ALLOC_COUNT)),
            ("alloc.task_bytes", c(tn::HEAP_TAG_TASK)),
            ("alloc.serde_bytes", c(tn::HEAP_TAG_SERDE)),
            ("alloc.shuffle_bytes", c(tn::HEAP_TAG_SHUFFLE)),
            ("alloc.spill_bytes", c(tn::HEAP_TAG_SPILL)),
            ("alloc.untagged_bytes", c(tn::HEAP_TAG_UNTAGGED)),
            (
                "alloc.heap_peak_mb",
                self.heap_peak_bytes as f64 / (1024.0 * 1024.0),
            ),
            (
                "trace.overhead_frac",
                ratio(self.out.wall_s, untraced_wall_s) - 1.0,
            ),
        ]);
        m
    }
}
