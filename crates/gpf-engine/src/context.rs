//! The engine context — GPF's `SparkContext` analogue.
//!
//! Since the tracing refactor the context no longer maintains stage metrics
//! directly. Every accounting call (`record_tasks`, `record_serde`, stage
//! closes, broadcasts) emits [`gpf_trace`] events into a per-context
//! session [`TraceLog`]; [`EngineContext::take_run`] replays that stream
//! through [`crate::metrics::derive_job_run`]. One event stream therefore
//! feeds both the Chrome-trace timeline and the stage metrics the cluster
//! simulator consumes — they cannot disagree.

use crate::broadcast::Broadcast;
use crate::budget::{BudgetAccountant, BudgetBreach};
use crate::config::EngineConfig;
use crate::dataset::Dataset;
use crate::fault::{EngineError, FaultConfig};
use crate::metrics::{derive_job_run, names, JobRun};
use gpf_compress::{serializer::serialize_batch, GpfSerialize, SerializerKind};
use gpf_support::chk::atomic::{AtomicBool, AtomicU32, Ordering};
use gpf_support::sync::Mutex;
use gpf_trace::clock::now_ns;
use gpf_trace::event::Trace;
use gpf_trace::{current_tid, Category, Event, EventKind, TraceLog};
use std::sync::Arc;

/// Ring capacity of the per-context session log.
///
/// Session events *are* the job metrics, so this is set far above what any
/// in-repo workload emits (the full WGS pipeline records on the order of
/// 10^5 events): overflow here would silently corrupt derived metrics, not
/// just truncate a timeline. The `trace.dropped` counter still reports it
/// if a future workload ever gets there.
const SESSION_LOG_CAPACITY: usize = 1 << 22;

/// Shared execution context: configuration, session trace log, phase tag.
///
/// Create once per job with [`EngineContext::new`], hand the `Arc` to every
/// dataset, and call [`EngineContext::take_run`] (or
/// [`EngineContext::take_run_traced`] to also keep the raw event stream) at
/// the end to obtain the recorded [`JobRun`] for simulation and reporting.
pub struct EngineContext {
    config: EngineConfig,
    trace: Arc<TraceLog>,
    phase: Mutex<Arc<str>>,
    /// Stage index used to address fault sites: incremented at every stage
    /// close so `(stage, partition, attempt)` coordinates are stable and
    /// cheap to read (unlike `stages_so_far`, which replays the trace).
    stage_counter: AtomicU32,
    /// Set once a failure is recorded; datasets short-circuit to empty
    /// results after this so the failure propagates without panics.
    failed_flag: AtomicBool,
    /// The first terminal failure of the run (first-failure-wins).
    failure: Mutex<Option<Failure>>,
    /// The memory-budget accountant, installed when
    /// [`EngineConfig::memory_budget`] is set.
    accountant: Option<Arc<BudgetAccountant>>,
}

/// A run's terminal failure, as held in the context's one failure slot.
pub(crate) enum Failure {
    /// A task exhausted its attempts or failed verification.
    Task(EngineError),
    /// A restore could not be admitted under the memory budget.
    Budget(BudgetBreach),
}

/// One task's measurements, captured on the worker and recorded
/// driver-side by [`EngineContext::record_tasks`] (driver-side batching
/// keeps the session ring in deterministic emission order even when tasks
/// ran on many threads).
#[derive(Clone, Copy)]
pub(crate) struct TaskSample {
    /// Thread-CPU seconds the task consumed.
    pub cpu_s: f64,
    /// Wall-clock start ([`now_ns`]).
    pub start_ns: u64,
    /// Wall-clock end ([`now_ns`]).
    pub end_ns: u64,
    /// Worker thread id ([`current_tid`]).
    pub tid: u32,
    /// Peak net heap growth on the worker during the task, measured by the
    /// tracking allocator's per-thread window (0 while untracked).
    pub heap_peak_bytes: u64,
    /// Bytes allocated on the worker during the task (0 while untracked).
    pub heap_alloc_bytes: u64,
}

impl EngineContext {
    /// Create a context with the given configuration.
    pub fn new(config: EngineConfig) -> Arc<Self> {
        let accountant = config.memory_budget.map(|b| Arc::new(BudgetAccountant::new(b)));
        Arc::new(Self {
            config,
            trace: Arc::new(TraceLog::with_capacity(SESSION_LOG_CAPACITY)),
            phase: Mutex::new(Arc::from("")),
            stage_counter: AtomicU32::new(0),
            failed_flag: AtomicBool::new(false),
            failure: Mutex::new(None),
            accountant,
        })
    }

    /// Context with default (GPF) configuration.
    pub fn default_ctx() -> Arc<Self> {
        Self::new(EngineConfig::default())
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The active shuffle serializer.
    pub fn serializer(&self) -> SerializerKind {
        self.config.serializer
    }

    /// The session trace log (scheduler spans from `gpf-core` and sinks
    /// read it through this handle).
    pub fn trace_log(&self) -> &Arc<TraceLog> {
        &self.trace
    }

    fn phase_tag(&self) -> Arc<str> {
        Arc::clone(&self.phase.lock())
    }

    /// Build an event stamped with the current phase, time and thread.
    fn ev(
        &self,
        kind: EventKind,
        name: Arc<str>,
        cat: Category,
        counters: Vec<(Arc<str>, u64)>,
    ) -> Event {
        Event {
            kind,
            name,
            cat,
            phase: self.phase_tag(),
            ts_ns: now_ns(),
            tid: current_tid(),
            id: 0,
            parent: 0,
            counters,
        }
    }

    /// Tag subsequent stages with a pipeline phase name (e.g. `"aligner"`),
    /// used by the Figure 12/13 per-phase reports.
    pub fn set_phase(self: &Arc<Self>, phase: &str) {
        *self.phase.lock() = Arc::from(phase);
        let ev = self.ev(
            EventKind::Instant,
            Arc::from(format!("phase:{phase}")),
            Category::Scheduler,
            Vec::new(),
        );
        self.trace.push(ev);
    }

    /// Distribute `items` into `parts` partitions (round-robin chunks) — the
    /// `sc.parallelize` analogue.
    pub fn parallelize<T: Send + Sync + Clone + 'static>(
        self: &Arc<Self>,
        items: Vec<T>,
        parts: usize,
    ) -> Dataset<T> {
        Dataset::from_vec(Arc::clone(self), items, parts)
    }

    /// Broadcast a value to every simulated node.
    ///
    /// The serialized size is charged to the current stage as broadcast
    /// traffic — this is what makes BQSR's "multiple-gigabyte mask table
    /// broadcast to all of the nodes" (§5.2.2) visible to the simulator.
    pub fn broadcast<T: GpfSerialize + Send + Sync>(self: &Arc<Self>, value: T) -> Broadcast<T> {
        let bytes = serialize_batch(self.serializer(), std::slice::from_ref(&value)).len() as u64;
        let ev = self.ev(
            EventKind::Counter,
            Arc::from(names::BROADCAST),
            Category::Io,
            vec![(Arc::from(names::BYTES), bytes)],
        );
        self.trace.push(ev);
        Broadcast::new(value, bytes)
    }

    /// Record one narrow operation's per-task measurements into the open
    /// stage: a `Begin`/`End` pair per task (`Begin` only while ambient
    /// tracing is enabled — `End` events carry the metrics and are always
    /// recorded) plus one op-metadata instant.
    pub(crate) fn record_tasks(
        &self,
        label: &str,
        samples: &[TaskSample],
        records_out: u64,
        alloc_bytes: u64,
    ) {
        if std::env::var_os("GPF_DEBUG_OPS").is_some() && !samples.is_empty() {
            let mut top: Vec<(f64, usize)> =
                samples.iter().map(|s| s.cpu_s).zip(0..).collect();
            top.sort_by(|a, b| b.0.total_cmp(&a.0));
            let total: f64 = samples.iter().map(|s| s.cpu_s).sum();
            gpf_trace::warn(&format!(
                "[op] {:<28} tasks {:>5} cpu {:>8.3}s top {:?}",
                label,
                samples.len(),
                total,
                &top[..3.min(top.len())]
            ));
        }
        let phase = self.phase_tag();
        let name: Arc<str> = Arc::from(label);
        let spans_on = gpf_trace::enabled();
        let mut batch = Vec::with_capacity(samples.len() * 2 + 1);
        for (part, s) in samples.iter().enumerate() {
            if spans_on {
                batch.push(Event {
                    kind: EventKind::Begin,
                    name: Arc::clone(&name),
                    cat: Category::Compute,
                    phase: Arc::clone(&phase),
                    ts_ns: s.start_ns,
                    tid: s.tid,
                    id: 0,
                    parent: 0,
                    counters: Vec::new(),
                });
            }
            let mut counters = vec![
                (Arc::from(names::PART), part as u64),
                (Arc::from(names::CPU_NS), (s.cpu_s * 1e9) as u64),
                (Arc::from(names::CPU_BITS), s.cpu_s.to_bits()),
            ];
            // Per-task heap attribution, only when the tracking allocator
            // measured something (keeps untracked traces byte-identical).
            if s.heap_peak_bytes > 0 || s.heap_alloc_bytes > 0 {
                counters.push((Arc::from(names::HEAP_TASK_PEAK), s.heap_peak_bytes));
                counters.push((Arc::from(names::HEAP_TASK_ALLOC), s.heap_alloc_bytes));
            }
            batch.push(Event {
                kind: EventKind::End,
                name: Arc::clone(&name),
                cat: Category::Compute,
                phase: Arc::clone(&phase),
                ts_ns: s.end_ns,
                tid: s.tid,
                id: 0,
                parent: 0,
                counters,
            });
        }
        batch.push(self.ev(
            EventKind::Instant,
            name,
            Category::Compute,
            vec![
                (Arc::from(names::RECORDS), records_out),
                (Arc::from(names::ALLOC), alloc_bytes),
            ],
        ));
        self.trace.push_batch(batch);
        // Sample the heap gauges at the op (span-batch) boundary so the
        // Perfetto counter track follows the schedule.
        self.heap_sample();
    }

    /// Record one narrow operation from per-partition CPU seconds alone
    /// (no measured wall windows): task spans are synthesized back-to-back
    /// from the current clock.
    pub(crate) fn record_narrow(
        &self,
        label: &str,
        per_partition_cpu_s: &[f64],
        records_out: u64,
        alloc_bytes: u64,
    ) {
        let samples: Vec<TaskSample> = per_partition_cpu_s
            .iter()
            .map(|&cpu_s| {
                let start_ns = now_ns();
                let end_ns = start_ns.saturating_add((cpu_s * 1e9) as u64);
                TaskSample {
                    cpu_s,
                    start_ns,
                    end_ns,
                    tid: current_tid(),
                    heap_peak_bytes: 0,
                    heap_alloc_bytes: 0,
                }
            })
            .collect();
        self.record_tasks(label, &samples, records_out, alloc_bytes);
    }

    /// Record extra serde CPU seconds (already included in task CPU).
    pub(crate) fn record_serde(&self, seconds: f64) {
        let ev = self.ev(
            EventKind::Instant,
            Arc::from(names::SERDE),
            Category::Serde,
            vec![
                (Arc::from(names::NS), (seconds * 1e9) as u64),
                (Arc::from(names::SECONDS_BITS), seconds.to_bits()),
            ],
        );
        self.trace.push(ev);
    }

    /// Close the open stage at a shuffle boundary.
    ///
    /// `write_bytes` are the per-map-partition serialized bucket sizes;
    /// `read_bytes` the per-reduce-partition sizes charged to the next stage.
    pub(crate) fn close_stage_shuffle(
        &self,
        label: &str,
        write_bytes: Vec<u64>,
        read_bytes: Vec<u64>,
    ) {
        // Charge the closing stage's heap profile before the close events.
        self.heap_sample();
        let bytes_key: Arc<str> = Arc::from(names::BYTES);
        let batch = vec![
            self.ev(
                EventKind::Counter,
                Arc::from(names::SHUFFLE_WRITE),
                Category::Shuffle,
                write_bytes.iter().map(|&v| (Arc::clone(&bytes_key), v)).collect(),
            ),
            self.ev(EventKind::Instant, Arc::from(label), Category::Shuffle, Vec::new()),
            self.ev(
                EventKind::Counter,
                Arc::from(names::SHUFFLE_READ),
                Category::Shuffle,
                read_bytes.iter().map(|&v| (Arc::clone(&bytes_key), v)).collect(),
            ),
        ];
        self.trace.push_batch(batch);
        self.advance_stage();
    }

    /// Close the open stage as a collect-to-driver (serial) step.
    ///
    /// `per_partition_bytes` are each task's serialized result size: tasks
    /// send their results over the network, and the driver drains the total
    /// serially (the simulator charges both).
    pub(crate) fn close_stage_collect(&self, label: &str, per_partition_bytes: Vec<u64>) {
        // Charge the closing stage's heap profile before the close events.
        self.heap_sample();
        let bytes_key: Arc<str> = Arc::from(names::BYTES);
        let batch = vec![
            self.ev(
                EventKind::Counter,
                Arc::from(names::SHUFFLE_WRITE),
                Category::Shuffle,
                per_partition_bytes.iter().map(|&v| (Arc::clone(&bytes_key), v)).collect(),
            ),
            self.ev(EventKind::Instant, Arc::from(label), Category::Io, Vec::new()),
        ];
        self.trace.push_batch(batch);
        self.advance_stage();
    }

    /// Sample the tracking allocator's global gauges into the session
    /// trace as one `heap.live_bytes` [`EventKind::Counter`] event — the
    /// Perfetto counter track. No-op while allocation tracking is
    /// inactive, so untracked traces stay byte-identical.
    fn heap_sample(&self) {
        if !gpf_trace::alloc::tracking_active() {
            return;
        }
        // Publish the driver thread's own pending delta first; workers
        // flushed theirs when their task scopes closed.
        gpf_trace::alloc::flush_thread_stats();
        let live = gpf_trace::alloc::live_bytes();
        let peak = gpf_trace::alloc::take_peak().max(live);
        let mut counters = vec![
            (Arc::from(gpf_trace::names::HEAP_LIVE_KEY), live),
            (Arc::from(gpf_trace::names::HEAP_PEAK_KEY), peak),
        ];
        // With a budget installed, annotate each sample with the exact
        // ledger value so the allocator gauge and the accountant can be
        // cross-checked sample-by-sample. Unknown keys are ignored by the
        // metrics fold, so unbudgeted traces stay byte-identical.
        if let Some(acct) = &self.accountant {
            counters.push((Arc::from(gpf_trace::names::BUDGET_LEDGER_KEY), acct.used()));
        }
        let ev = self.ev(
            EventKind::Counter,
            Arc::from(gpf_trace::names::HEAP_LIVE_TRACK),
            Category::Scheduler,
            counters,
        );
        self.trace.push(ev);
    }

    /// Derive the adaptive-skew split threshold — "half the mean per-base
    /// load" — from the trace instead of a caller-side formula: reads the
    /// `records` total of the latest `repartition.count` op instant in the
    /// session log. Returns `None` until a count pass has been recorded
    /// (callers fall back to their local counts).
    pub fn auto_skew_threshold(&self, nbase: usize) -> Option<u64> {
        let mut total: Option<u64> = None;
        self.trace.for_each(|e| {
            if e.kind == EventKind::Instant
                && e.cat == Category::Compute
                && &*e.name == names::REPARTITION_COUNT
            {
                if let Some(r) = e.counter(names::RECORDS) {
                    total = Some(r);
                }
            }
        });
        total.map(|t| (t / (nbase.max(1) as u64) / 2).max(1))
    }

    /// Stage index for fault-site addressing (0 until the first stage
    /// closes).
    pub fn current_stage(&self) -> u32 {
        self.stage_counter.load(Ordering::SeqCst)
    }

    pub(crate) fn advance_stage(&self) {
        self.stage_counter.fetch_add(1, Ordering::SeqCst);
    }

    /// The fault-tolerance configuration, if enabled.
    pub(crate) fn faults(&self) -> Option<&FaultConfig> {
        self.config.faults.as_ref()
    }

    /// Record a terminal failure. First failure wins; later ones are
    /// dropped (they are usually short-circuit echoes of the first).
    fn record_failure(&self, failure: Failure) {
        let mut slot = self.failure.lock();
        if slot.is_some() {
            return;
        }
        self.failed_flag.store(true, Ordering::SeqCst);
        let (name, counters) = match &failure {
            Failure::Task(err) => {
                let (stage, part) = (err.stage as u64, err.partition as u64);
                ("task.failed", [("stage", stage), ("part", part), ("attempts", err.attempts.len() as u64)])
            }
            Failure::Budget(b) => (
                "budget.breach",
                [("stage", b.stage as u64), ("requested", b.requested), ("budget", b.budget)],
            ),
        };
        let counters = counters.into_iter().map(|(k, v)| (Arc::from(k), v)).collect();
        let ev = self.ev(EventKind::Instant, Arc::from(name), Category::Scheduler, counters);
        self.trace.push(ev);
        *slot = Some(failure);
    }

    /// Record a terminal task failure (see [`EngineContext::take_failure`]).
    pub(crate) fn fail(&self, err: EngineError) {
        self.record_failure(Failure::Task(err));
    }

    /// Record a terminal memory-budget breach (see
    /// [`EngineContext::take_budget_breach`]).
    pub(crate) fn fail_budget(&self, breach: BudgetBreach) {
        self.record_failure(Failure::Budget(breach));
    }

    /// Whether a terminal failure has been recorded (datasets short-circuit
    /// on this to let the error surface without running further work).
    pub(crate) fn has_failed(&self) -> bool {
        self.failed_flag.load(Ordering::SeqCst)
    }

    /// Take the slot's failure if `pick` accepts its kind, clearing the
    /// short-circuit flag so the context can be reused for another run.
    fn take_where<R>(&self, pick: impl FnOnce(Failure) -> Result<R, Failure>) -> Option<R> {
        let mut slot = self.failure.lock();
        match pick(slot.take()?) {
            Ok(taken) => {
                self.failed_flag.store(false, Ordering::SeqCst);
                Some(taken)
            }
            Err(other) => {
                *slot = Some(other);
                None
            }
        }
    }

    /// Take the recorded task failure, if the run's first failure was one.
    pub fn take_failure(&self) -> Option<EngineError> {
        self.take_where(|f| match f {
            Failure::Task(err) => Ok(err),
            other => Err(other),
        })
    }

    /// Take the recorded budget breach, if the run's first failure was one.
    pub fn take_budget_breach(&self) -> Option<BudgetBreach> {
        self.take_where(|f| match f {
            Failure::Budget(breach) => Ok(breach),
            other => Err(other),
        })
    }

    /// The memory-budget accountant, when a budget is installed.
    pub fn accountant(&self) -> Option<&Arc<BudgetAccountant>> {
        self.accountant.as_ref()
    }

    /// Record one recovery event: a scheduler instant in the session trace
    /// plus a global counter bump. The global counters are unconditional
    /// (not gated on ambient tracing) — this path only executes when a
    /// fault is injected or recovered, so a clean run never pays for it and
    /// chaos tests can read the counters without toggling `set_enabled`.
    pub(crate) fn record_fault_event(&self, name: &'static str, stage: u32, part: u32, n: u64) {
        gpf_trace::counter(name).add(n);
        let ev = self.ev(
            EventKind::Instant,
            Arc::from(name),
            Category::Scheduler,
            vec![
                (Arc::from("stage"), stage as u64),
                (Arc::from("part"), part as u64),
                (Arc::from("n"), n),
            ],
        );
        self.trace.push(ev);
    }

    /// Record one adaptive-repartition decision (the paper's §4.4 dynamic
    /// split). Bumps the global `repartition.splits` /
    /// `repartition.moved_records` counters (and `repartition.cap_hit` when
    /// the 64-piece cap actually bound), and drops one scheduler instant
    /// into the session trace so the timeline shows *when* the driver
    /// rebalanced. Counters are unconditional for the same reason as
    /// [`EngineContext::record_fault_event`]: this path only runs when
    /// `adaptive_skew` is configured, so tests read them without toggling
    /// ambient tracing.
    pub fn record_repartition(&self, splits: u64, moved_records: u64, cap_hits: u64, merged: u64) {
        gpf_trace::counter(gpf_trace::names::REPARTITION_SPLITS).add(splits);
        gpf_trace::counter(gpf_trace::names::REPARTITION_MOVED).add(moved_records);
        if cap_hits > 0 {
            gpf_trace::counter(gpf_trace::names::REPARTITION_CAP_HIT).add(cap_hits);
        }
        if merged > 0 {
            gpf_trace::counter(gpf_trace::names::REPARTITION_MERGED).add(merged);
        }
        let ev = self.ev(
            EventKind::Instant,
            Arc::from("repartition.split"),
            Category::Scheduler,
            vec![
                (Arc::from("splits"), splits),
                (Arc::from("moved"), moved_records),
                (Arc::from("cap_hits"), cap_hits),
                (Arc::from("merged"), merged),
            ],
        );
        self.trace.push(ev);
    }

    /// Finish recording: derives the job from the session trace and resets
    /// the log for the next job.
    pub fn take_run(&self) -> JobRun {
        self.take_run_traced().0
    }

    /// Finish recording, returning both the derived [`JobRun`] and the raw
    /// [`Trace`] it was derived from (for the Chrome/JSONL/text sinks).
    pub fn take_run_traced(&self) -> (JobRun, Trace) {
        let trace = self.trace.drain();
        let run = derive_job_run(&trace.events);
        // Reset fault-site addressing so a reused context replays the same
        // (stage, partition) coordinates on its next job.
        self.stage_counter.store(0, Ordering::SeqCst);
        (run, trace)
    }

    /// Peek at the number of stages recorded so far (open stage included).
    pub fn stages_so_far(&self) -> usize {
        derive_job_run(&self.trace.snapshot().events).num_stages()
    }

    /// GC seconds charged for `bytes` of heap churn under this config.
    pub fn gc_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 * self.config.gc_seconds_per_byte
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::StageKind;

    #[test]
    fn stages_accumulate_and_close() {
        let ctx = EngineContext::default_ctx();
        ctx.set_phase("aligner");
        ctx.record_narrow("map", &[0.1, 0.2], 100, 1000);
        ctx.record_narrow("filter", &[0.1, 0.1], 80, 500);
        assert_eq!(ctx.stages_so_far(), 1);
        ctx.close_stage_shuffle("groupBy", vec![10, 10], vec![20]);
        ctx.record_narrow("map2", &[0.3], 40, 100);
        let run = ctx.take_run();
        assert_eq!(run.num_stages(), 2);
        let s0 = &run.stages[0];
        assert_eq!(s0.phase, "aligner");
        assert_eq!(s0.task_cpu_s.len(), 2);
        assert!((s0.task_cpu_s[0] - 0.2).abs() < 1e-12);
        assert!((s0.task_cpu_s[1] - 0.3).abs() < 1e-12);
        assert_eq!(s0.kind, StageKind::Shuffle);
        assert_eq!(s0.total_shuffle_write(), 20);
        let s1 = &run.stages[1];
        assert_eq!(s1.shuffle_read_bytes, vec![20]);
        assert_eq!(s1.kind, StageKind::Final);
    }

    #[test]
    fn take_run_resets() {
        let ctx = EngineContext::default_ctx();
        ctx.record_narrow("op", &[0.1], 1, 1);
        let run1 = ctx.take_run();
        assert_eq!(run1.num_stages(), 1);
        let run2 = ctx.take_run();
        assert_eq!(run2.num_stages(), 0);
    }

    #[test]
    fn broadcast_charges_current_stage() {
        let ctx = EngineContext::default_ctx();
        let b = ctx.broadcast(vec![1u64; 100]);
        assert!(b.bytes() > 0);
        let run = ctx.take_run();
        assert_eq!(run.stages.len(), 1);
        assert_eq!(run.stages[0].broadcast_bytes, b.bytes());
    }

    #[test]
    fn collect_close_is_serial_kind() {
        let ctx = EngineContext::default_ctx();
        ctx.record_narrow("op", &[0.1], 1, 1);
        ctx.close_stage_collect("collect", vec![4096]);
        let run = ctx.take_run();
        assert_eq!(run.stages[0].kind, StageKind::Collect);
        assert_eq!(run.stages[0].total_shuffle_write(), 4096);
    }

    #[test]
    fn gc_seconds_scales_linearly() {
        let ctx = EngineContext::default_ctx();
        let one_gib = ctx.gc_seconds(1 << 30);
        assert!((one_gib - 25.0).abs() < 1e-9);
    }

    #[test]
    fn take_run_traced_exposes_the_event_stream() {
        let ctx = EngineContext::default_ctx();
        ctx.set_phase("cleaner");
        ctx.record_narrow("dedup", &[0.25, 0.5], 10, 64);
        ctx.record_serde(0.125);
        ctx.close_stage_shuffle("sortByKey", vec![100], vec![100]);
        let (run, trace) = ctx.take_run_traced();
        assert_eq!(run.num_stages(), 1, "open trailing stage would need events after the close");
        assert!((run.stages[0].serde_s - 0.125).abs() < 1e-15);
        // End events carry lossless CPU bits.
        let ends: Vec<&Event> =
            trace.events.iter().filter(|e| e.kind == EventKind::End).collect();
        assert_eq!(ends.len(), 2);
        assert_eq!(ends[0].counter(names::PART), Some(0));
        assert_eq!(ends[0].counter(names::CPU_BITS).map(f64::from_bits), Some(0.25));
        assert!(ends.iter().all(|e| &*e.phase == "cleaner"));
        // Re-deriving from the returned trace reproduces the same run.
        let again = derive_job_run(&trace.events);
        assert_eq!(again.num_stages(), run.num_stages());
        assert_eq!(again.stages[0].task_cpu_s, run.stages[0].task_cpu_s);
        assert_eq!(again.stages[0].shuffle_write_bytes, run.stages[0].shuffle_write_bytes);
        // The log itself was drained.
        assert!(ctx.trace_log().is_empty());
    }

    #[test]
    fn record_repartition_emits_counters_and_instant() {
        let before_splits = gpf_trace::counters_snapshot()
            .iter()
            .find(|(n, _)| *n == "repartition.splits")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        let before_cap = gpf_trace::counters_snapshot()
            .iter()
            .find(|(n, _)| *n == "repartition.cap_hit")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        let before_merged = gpf_trace::counters_snapshot()
            .iter()
            .find(|(n, _)| *n == "repartition.merged")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        let ctx = EngineContext::default_ctx();
        ctx.record_repartition(3, 12_000, 0, 0);
        ctx.record_repartition(1, 500, 2, 5);
        let (_, trace) = ctx.take_run_traced();
        let instants: Vec<&Event> = trace
            .events
            .iter()
            .filter(|e| &*e.name == "repartition.split")
            .collect();
        assert_eq!(instants.len(), 2);
        assert_eq!(instants[0].counter("splits"), Some(3));
        assert_eq!(instants[0].counter("moved"), Some(12_000));
        assert_eq!(instants[1].counter("cap_hits"), Some(2));
        assert_eq!(instants[0].counter("merged"), Some(0));
        assert_eq!(instants[1].counter("merged"), Some(5));
        let snap = gpf_trace::counters_snapshot();
        let splits_now =
            snap.iter().find(|(n, _)| *n == "repartition.splits").map(|(_, v)| *v).unwrap_or(0);
        let cap_now =
            snap.iter().find(|(n, _)| *n == "repartition.cap_hit").map(|(_, v)| *v).unwrap_or(0);
        let merged_now =
            snap.iter().find(|(n, _)| *n == "repartition.merged").map(|(_, v)| *v).unwrap_or(0);
        assert_eq!(splits_now - before_splits, 4);
        assert_eq!(cap_now - before_cap, 2);
        assert_eq!(merged_now - before_merged, 5);
    }

    #[test]
    fn budget_breach_slot_is_separate_from_failure() {
        let ctx = EngineContext::new(EngineConfig::gpf().with_memory_budget(1 << 16));
        assert!(ctx.accountant().is_some());
        assert!(ctx.take_budget_breach().is_none());
        ctx.fail_budget(crate::budget::BudgetBreach {
            stage: 2,
            operator: "map".into(),
            requested: 100,
            budget: 50,
        });
        // Echoes after the first breach are dropped.
        ctx.fail_budget(crate::budget::BudgetBreach {
            stage: 3,
            operator: "later".into(),
            requested: 1,
            budget: 1,
        });
        assert!(ctx.has_failed());
        assert!(ctx.take_failure().is_none(), "a breach must not masquerade as a task failure");
        let breach = ctx.take_budget_breach().expect("breach recorded");
        assert_eq!(breach.stage, 2);
        assert_eq!(breach.operator, "map");
        assert_eq!((breach.requested, breach.budget), (100, 50));
        assert!(!ctx.has_failed(), "taking the breach clears the short-circuit flag");
    }

    #[test]
    fn first_failure_wins_across_kinds() {
        let ctx = EngineContext::new(EngineConfig::gpf().with_memory_budget(1 << 16));
        ctx.fail(EngineError { label: "map".into(), stage: 1, partition: 2, attempts: Vec::new() });
        ctx.fail_budget(crate::budget::BudgetBreach {
            stage: 3,
            operator: "later".into(),
            requested: 1,
            budget: 1,
        });
        assert!(ctx.take_budget_breach().is_none(), "a task failure came first");
        assert!(ctx.has_failed(), "a reader of the other kind leaves the slot set");
        let err = ctx.take_failure().expect("task failure recorded");
        assert_eq!((err.label.as_str(), err.stage, err.partition), ("map", 1, 2));
        assert!(!ctx.has_failed());
        assert!(ctx.take_budget_breach().is_none(), "the echo was dropped");
    }

    #[test]
    fn phase_changes_stamp_events() {
        let ctx = EngineContext::default_ctx();
        ctx.set_phase("aligner");
        ctx.record_narrow("a", &[0.1], 1, 0);
        ctx.set_phase("caller");
        ctx.record_narrow("b", &[0.2], 1, 0);
        let (_, trace) = ctx.take_run_traced();
        let phases: Vec<&str> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::End)
            .map(|e| &*e.phase)
            .collect();
        assert_eq!(phases, vec!["aligner", "caller"]);
        // Phase flips also land as scheduler instants for the timeline.
        let marks = trace
            .events
            .iter()
            .filter(|e| e.cat == Category::Scheduler && e.kind == EventKind::Instant)
            .count();
        assert_eq!(marks, 2);
    }
}
