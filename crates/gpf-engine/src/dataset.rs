//! Partitioned, eagerly evaluated datasets with Spark-shaped operations.
//!
//! A [`Dataset<T>`] is an in-memory collection split into partitions.
//! *Narrow* operations run per-partition in parallel ([`gpf_support::par`])
//! and accumulate
//! measured CPU time into the engine's open stage; *wide* operations perform
//! a real shuffle — every bucket is serialized with the context's configured
//! [`gpf_compress::SerializerKind`] and deserialized on the reduce side — so
//! shuffle byte counts and serde CPU costs are measured, not estimated.
//!
//! Every task of every operator runs through one runner, [`run_tasks`]: it
//! times the task, attributes its heap, catches panics, and applies the
//! context's [`FaultConfig`] (injection, retries, speculation) when one is
//! installed. Failures reach the context's single failure slot as typed
//! errors; operators then return empty datasets so the failure propagates.
//!
//! Partition contents are held behind an `Arc`, so cloning a dataset is
//! cheap and read-only datasets (the FASTA/VCF partition RDDs of the paper's
//! Figure 7) can be reused by many downstream processes without copying.

use crate::budget::{BudgetBreach, Policy, Store};
use crate::context::{EngineContext, TaskSample};
use crate::fault::{corrupt_bit, AttemptRecord, EngineError, FaultConfig, FaultKind, FaultSurface};
use crate::timing::TaskTimer;
use gpf_compress::serializer::{
    deserialize_batch, deserialize_batch_into, serialize_batch, serialize_batch_into,
};
use gpf_compress::{GpfSerialize, SerializerKind};
use gpf_support::par;
use gpf_support::sync::Mutex;
use gpf_trace::alloc::{self, AllocTag};
use gpf_trace::clock::now_ns;
use gpf_trace::current_tid;
use gpf_trace::names as tn;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

/// Deterministic FNV-1a hasher used for hash partitioning, so shuffles
/// produce identical layouts across runs (important for reproducible
/// experiment tables).
#[derive(Default)]
pub struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { 0xcbf2_9ce4_8422_2325 } else { self.0 };
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.0 = h;
    }
}

/// Deterministic hash of a key.
pub fn stable_hash<K: Hash>(key: &K) -> u64 {
    let mut h = Fnv1a::default();
    key.hash(&mut h);
    h.finish()
}

/// Little-endian word from up to 8 bytes, zero-padded.
#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// The shuffle-segment / spill checksum: four multiply-xor lanes over
/// 8-byte little-endian words, seeded with the length and folded together
/// at the end.
///
/// Each lane step `(lane ^ word) * FNV_PRIME`, rotated, is a bijection of
/// the lane for a fixed word, and the final fold is a bijection of each
/// lane in turn, so any single flipped bit changes the result; the length
/// in the seed and the fold separates a buffer from its truncations. About
/// 20× faster than byte-at-a-time FNV-1a, which is what lets every shuffle
/// and spill buffer be checksummed on every run.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    #[inline(always)]
    fn step(lane: u64, word: u64) -> u64 {
        (lane ^ word).wrapping_mul(PRIME).rotate_left(29)
    }
    let len = bytes.len() as u64;
    let seed = 0xcbf2_9ce4_8422_2325 ^ len.wrapping_mul(PRIME);
    let mut lanes = [seed, seed.rotate_left(16), seed.rotate_left(32), seed.rotate_left(48)];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, le_word(word));
        }
    }
    for (lane, word) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        *lane = step(*lane, le_word(word));
    }
    let mut h = len;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(PRIME);
        h ^= h >> 31;
    }
    h
}

/// `n` empty partitions on `ctx` — what an operator returns once the
/// context holds a failure, so downstream operators short-circuit.
fn failed<T: Send + Sync + 'static>(ctx: &Arc<EngineContext>, n: usize) -> Dataset<T> {
    let parts = (0..n).map(|_| Vec::new()).collect();
    Dataset { ctx: Arc::clone(ctx), parts: Store::new(parts, None) }
}

/// Store freshly produced output partitions: budgeted (evictable) when the
/// context has a memory-budget accountant installed, unbudgeted otherwise.
/// Shuffle and barrier outputs route through this, so under a budget every
/// wide-operation result is an eviction candidate.
fn output_parts<T: GpfSerialize + Send + Sync + 'static>(
    ctx: &Arc<EngineContext>,
    parts: Vec<Vec<T>>,
) -> Arc<Store<T>> {
    let policy = ctx.accountant().map(|acct| {
        let faults = ctx.faults().map(|fc| (fc.plan.clone(), fc.max_task_retries));
        Policy::new(Arc::clone(acct), ctx.serializer(), ctx.current_stage(), faults)
    });
    Store::new(parts, policy)
}

/// A borrowed view of one partition. It pins the partition's `Arc`, which
/// keeps the eviction policy from dropping a budgeted partition while it is
/// being read. Derefs to `[T]`.
pub struct PartRef<'a, T> {
    data: Arc<Vec<T>>,
    _dataset: PhantomData<&'a [T]>,
}

impl<T> std::ops::Deref for PartRef<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<'b, T: PartialEq> PartialEq<PartRef<'b, T>> for PartRef<'_, T> {
    fn eq(&self, other: &PartRef<'b, T>) -> bool {
        **self == **other
    }
}

impl<T: PartialEq> PartialEq<[T]> for PartRef<'_, T> {
    fn eq(&self, other: &[T]) -> bool {
        **self == *other
    }
}

impl<T: PartialEq> PartialEq<Vec<T>> for PartRef<'_, T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == **other
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for PartRef<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// A partitioned in-memory dataset (the RDD analogue).
pub struct Dataset<T> {
    ctx: Arc<EngineContext>,
    parts: Arc<Store<T>>,
}

impl<T> Clone for Dataset<T> {
    fn clone(&self) -> Self {
        Self { ctx: Arc::clone(&self.ctx), parts: self.parts.clone() }
    }
}

impl<T: Send + Sync + 'static> Dataset<T> {
    /// Build a dataset from a vector, chunked into `parts` partitions.
    pub fn from_vec(ctx: Arc<EngineContext>, items: Vec<T>, parts: usize) -> Self
    where
        T: Clone,
    {
        assert!(parts > 0, "partition count must be positive");
        let n = items.len();
        let chunk = n.div_ceil(parts).max(1);
        let mut out: Vec<Vec<T>> = Vec::with_capacity(parts);
        let mut it = items.into_iter();
        for _ in 0..parts {
            out.push(it.by_ref().take(chunk).collect());
        }
        Self { ctx, parts: Store::new(out, None) }
    }

    /// Build from explicit partitions (used by shuffles and generators).
    pub fn from_partitions(ctx: Arc<EngineContext>, parts: Vec<Vec<T>>) -> Self {
        assert!(!parts.is_empty(), "dataset needs at least one partition");
        Self { ctx, parts: Store::new(parts, None) }
    }

    /// The engine context.
    pub fn ctx(&self) -> &Arc<EngineContext> {
        &self.ctx
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.parts.num_parts()
    }

    /// Total number of records (metadata peek; unlike Spark's `count()` this
    /// does not run a job — use [`Dataset::collect`] for an accounted action).
    pub fn len(&self) -> usize {
        self.parts.total_len()
    }

    /// `true` when the dataset holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records per partition (load-balance diagnostics; §4.4 of the paper
    /// drives its dynamic repartitioning off exactly this measure).
    pub fn partition_sizes(&self) -> Vec<usize> {
        (0..self.parts.num_parts()).map(|i| self.parts.part_len(i)).collect()
    }

    /// Borrow a partition's records. On a budgeted dataset this restores
    /// the partition if it was evicted; an infeasible restore
    /// panics, so pipelines should go through operators (which surface a
    /// structured breach instead) — this accessor is for tests, benches and
    /// diagnostics.
    pub fn partition(&self, idx: usize) -> PartRef<'_, T> {
        match self.parts.get(idx) {
            Ok(data) => PartRef { data, _dataset: PhantomData },
            Err((req, bud)) => {
                // gpf-lint: allow(no-panic): diagnostics-only accessor;
                // inside pipelines an infeasible restore surfaces as a
                // structured budget breach through the operators instead.
                panic!("partition({idx}): restore needs {req} bytes under a {bud}-byte budget")
            }
        }
    }

    /// Surface a memory-budget breach as the pipeline's structured failure.
    fn breach(&self, label: &str, requested: u64, budget: u64) {
        self.ctx.fail_budget(BudgetBreach {
            stage: self.ctx.current_stage(),
            operator: label.to_string(),
            requested,
            budget,
        });
    }

    /// Run `f` for every partition: in parallel, or one partition at a time
    /// on a budgeted store (DESIGN.md §16c), so at most one partition's
    /// transient copy is staged at a time.
    fn per_partition<R: Send>(&self, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        let n = self.parts.num_parts();
        if self.parts.budgeted() {
            (0..n).map(f).collect()
        } else {
            par::map_range(n, f)
        }
    }

    /// Serialize every partition as one batch buffer. A spilled partition
    /// stages through a transient decoded copy (nothing is admitted), so the
    /// buffers are byte-identical to the unbudgeted run's under any budget.
    fn serialize_partitions(&self, kind: SerializerKind) -> Vec<Vec<u8>>
    where
        T: GpfSerialize,
    {
        self.per_partition(|i| self.parts.with_whole(i, |p| serialize_batch(kind, p)))
    }

    /// Serialized size of each partition under `kind`, sized from streamed
    /// chunks, so sizing never admits (or breaches) anything.
    fn serialized_sizes(&self, kind: SerializerKind) -> Vec<u64>
    where
        T: GpfSerialize,
    {
        self.per_partition(|i| {
            let mut bytes = 0u64;
            self.parts.stream(i, &mut |chunk| bytes += serialize_batch(kind, chunk).len() as u64);
            bytes
        })
    }

    /// Run one narrow task per partition through [`run_tasks`] and record
    /// them into the open stage. `serial` is the budgeted rung of the
    /// degradation ladder (DESIGN.md §16c).
    fn run_narrow<U: Send + Sync + 'static>(
        &self,
        label: &str,
        serial: bool,
        body: impl Fn(usize) -> Vec<U> + Sync,
    ) -> Dataset<U> {
        let n = self.parts.num_parts();
        if self.ctx.has_failed() {
            return failed(&self.ctx, n);
        }
        let Some((outs, samples)) = run_tasks(&self.ctx, label, n, TaskKind::Narrow, serial, body)
        else {
            return failed(&self.ctx, n);
        };
        let records: u64 = outs.iter().map(|v| v.len() as u64).sum();
        let alloc = records * self.ctx.config().per_record_overhead_bytes;
        self.ctx.record_tasks(label, &samples, records, alloc);
        Dataset { ctx: Arc::clone(&self.ctx), parts: Store::new(outs, None) }
    }

    /// Core narrow operation: per-partition transform with metric
    /// recording. `f` receives `(partition_index, records)`. Unbudgeted
    /// inputs run in parallel; budgeted inputs restore one partition at a
    /// time, so any budget that fits the largest single partition stays
    /// feasible (element-wise operators avoid even that restore by
    /// streaming).
    pub fn narrow_op<U: Send + Sync + 'static>(
        &self,
        label: &str,
        f: impl Fn(usize, &[T]) -> Vec<U> + Send + Sync,
    ) -> Dataset<U> {
        self.run_narrow(label, self.parts.budgeted(), |i| match self.parts.get(i) {
            Ok(part) => f(i, &part),
            Err((requested, budget)) => {
                self.breach(label, requested, budget);
                Vec::new()
            }
        })
    }

    /// Element-wise narrow operation: `f` maps a *chunk* of records to
    /// outputs and is applied once per resident partition but
    /// once per spill frame for an evicted one — a map stage over an
    /// evicted partition never materializes it, so it stays parallel.
    fn stream_op<U: Send + Sync + 'static>(
        &self,
        label: &str,
        f: impl Fn(&[T]) -> Vec<U> + Send + Sync,
    ) -> Dataset<U> {
        self.run_narrow(label, false, |i| {
            let mut out = Vec::new();
            self.parts.stream(i, &mut |chunk| {
                let mut part = f(chunk);
                if out.is_empty() {
                    out = part;
                } else {
                    out.append(&mut part);
                }
            });
            out
        })
    }

    /// Element-wise transform.
    pub fn map<U: Send + Sync + 'static>(
        &self,
        f: impl Fn(&T) -> U + Send + Sync,
    ) -> Dataset<U> {
        self.stream_op("map", move |p| p.iter().map(&f).collect())
    }

    /// Element-to-many transform.
    pub fn flat_map<U: Send + Sync + 'static, I: IntoIterator<Item = U>>(
        &self,
        f: impl Fn(&T) -> I + Send + Sync,
    ) -> Dataset<U> {
        self.stream_op("flatMap", move |p| p.iter().flat_map(&f).collect())
    }

    /// Keep records matching the predicate.
    pub fn filter(&self, f: impl Fn(&T) -> bool + Send + Sync) -> Dataset<T>
    where
        T: Clone,
    {
        self.stream_op("filter", move |p| p.iter().filter(|t| f(t)).cloned().collect())
    }

    /// Whole-partition transform.
    pub fn map_partitions<U: Send + Sync + 'static>(
        &self,
        f: impl Fn(&[T]) -> Vec<U> + Send + Sync,
    ) -> Dataset<U> {
        self.narrow_op("mapPartitions", |_, p| f(p))
    }

    /// Whole-partition transform with the partition index.
    pub fn map_partitions_with_index<U: Send + Sync + 'static>(
        &self,
        f: impl Fn(usize, &[T]) -> Vec<U> + Send + Sync,
    ) -> Dataset<U> {
        self.narrow_op("mapPartitionsWithIndex", f)
    }

    /// Attach a key to every record.
    pub fn key_by<K: Send + Sync + 'static>(
        &self,
        f: impl Fn(&T) -> K + Send + Sync,
    ) -> Dataset<(K, T)>
    where
        T: Clone,
    {
        self.stream_op("keyBy", move |p| p.iter().map(|t| (f(t), t.clone())).collect())
    }

    /// Concatenate two datasets' partition lists (narrow, like Spark union).
    pub fn union(&self, other: &Dataset<T>) -> Dataset<T>
    where
        T: Clone,
    {
        let parts: Vec<Vec<T>> = [&self.parts, &other.parts]
            .into_iter()
            .flat_map(|s| (0..s.num_parts()).map(move |i| s.with_whole(i, <[T]>::to_vec)))
            .collect();
        let records = parts.iter().map(|p| p.len() as u64).sum();
        self.ctx.record_narrow("union", &[], records, 0);
        Dataset { ctx: Arc::clone(&self.ctx), parts: Store::new(parts, None) }
    }

    /// Pairwise partition zip (both datasets must have equal partition
    /// counts) — the primitive behind bundled RDDs (paper Figure 7(b)).
    ///
    /// When either side is budgeted the zip runs pairwise-serially:
    /// at most one left/right pair is resident at a time, so the working
    /// set is bounded by the largest pair, not the whole right-hand dataset.
    pub fn zip_partitions<U: Send + Sync + 'static, V: Send + Sync + 'static>(
        &self,
        other: &Dataset<U>,
        f: impl Fn(usize, &[T], &[U]) -> Vec<V> + Send + Sync,
    ) -> Dataset<V> {
        assert_eq!(
            self.num_partitions(),
            other.num_partitions(),
            "zip_partitions requires equal partition counts"
        );
        let label = "zipPartitions";
        let serial = self.parts.budgeted() || other.parts.budgeted();
        self.run_narrow(label, serial, |i| {
            match self.parts.get(i).and_then(|l| other.parts.get(i).map(|r| (l, r))) {
                Ok((left, right)) => f(i, &left, &right),
                Err((requested, budget)) => {
                    self.breach(label, requested, budget);
                    Vec::new()
                }
            }
        })
    }

    /// Collect every record to the driver — an *action* that closes the
    /// stage and charges the serialized result size as driver traffic.
    pub fn collect(&self) -> Vec<T>
    where
        T: GpfSerialize + Clone,
    {
        if self.ctx.has_failed() {
            return Vec::new();
        }
        let t0 = now_ns();
        let per_partition = self.serialized_sizes(self.ctx.serializer());
        self.ctx.record_serde(now_ns().saturating_sub(t0) as f64 * 1e-9);
        self.ctx.close_stage_collect("collect", per_partition);
        self.collect_local()
    }

    /// Concatenate all partitions without any accounting (test/diagnostic
    /// helper — not an engine action). Streams spilled partitions, so it
    /// works under any budget.
    pub fn collect_local(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::with_capacity(self.len());
        for i in 0..self.parts.num_parts() {
            self.parts.stream(i, &mut |chunk| out.extend_from_slice(chunk));
        }
        out
    }

    /// Serialized size of the whole dataset under `kind` — the measurement
    /// behind the paper's Table 3.
    pub fn serialized_size(&self, kind: gpf_compress::SerializerKind) -> u64
    where
        T: GpfSerialize,
    {
        self.serialized_sizes(kind).into_iter().sum()
    }

    /// Materialize the dataset through "disk": every partition is serialized
    /// and read back, closing the stage with the full dataset volume as both
    /// shuffle-write and shuffle-read bytes.
    ///
    /// This models classic file-based pipelines (Churchill, HugeSeq,
    /// GATK-Queue) whose steps hand intermediate SAM/BAM files to each other
    /// through the filesystem — the I/O pattern the paper's Table 1 blames
    /// for their poor scaling.
    ///
    /// Every spill buffer is checksummed when written; on read-back a
    /// checksum, decode, or record-count mismatch recomputes the partition
    /// from lineage (`self` still holds the pre-spill partitions) instead of
    /// trusting the bytes. Under a fault plan the write side may flip a bit
    /// ([`FaultSurface::Spill`]) and the read side may damage a *transient
    /// copy* of a buffer ([`FaultSurface::SpillRead`]); both must be caught
    /// by the same check.
    pub fn barrier_via_disk(&self, label: &str) -> Dataset<T>
    where
        T: GpfSerialize + Clone,
    {
        let n = self.parts.num_parts();
        if self.ctx.has_failed() {
            return failed(&self.ctx, n);
        }
        let kind = self.ctx.serializer();
        let fc = self.ctx.faults();
        let stage = self.ctx.current_stage();
        let t0 = now_ns();
        let mut bufs: Vec<Vec<u8>> = self.serialize_partitions(kind);
        let sums: Vec<u64> = bufs.iter().map(|b| fnv64(b)).collect();
        let ser_s = now_ns().saturating_sub(t0) as f64 * 1e-9;
        // Spill corruption is injected driver-side, after the checksums were
        // taken over the correct bytes — detection must fire even when the
        // flipped bit would still decode.
        if let Some(fc) = fc {
            for (i, buf) in bufs.iter_mut().enumerate() {
                if fc.plan.decide(stage, i as u32, 0, FaultSurface::Spill)
                    == Some(FaultKind::CorruptSpill)
                    && corrupt_bit(buf, fc.plan.corruption_salt(stage, i as u32))
                {
                    self.ctx.record_fault_event(tn::FAULT_INJECTED, stage, i as u32, 1);
                }
            }
        }
        let bytes: Vec<u64> = bufs.iter().map(|b| b.len() as u64).collect();
        self.ctx.record_serde(ser_s);
        self.ctx.close_stage_shuffle(label, bytes.clone(), bytes.clone());
        let read_stage = self.ctx.current_stage();
        let read_label = format!("{label}(read)");
        let t1 = now_ns();
        let read = run_tasks(&self.ctx, &read_label, n, TaskKind::SpillRead, false, |i| {
            let damage = fc.and_then(|fc| {
                let fkind = fc.plan.decide(read_stage, i as u32, 0, FaultSurface::SpillRead)?;
                let salt = fc.plan.corruption_salt(read_stage, i as u32);
                let mut copy = bufs[i].clone();
                if fkind == FaultKind::TruncateSpill {
                    copy.truncate((salt % copy.len().max(1) as u64) as usize);
                } else {
                    corrupt_bit(&mut copy, salt);
                }
                Some(copy)
            });
            let injected = damage.is_some() as u64;
            let read_bytes: &[u8] = damage.as_deref().unwrap_or(&bufs[i]);
            let verified = fnv64(read_bytes) == sums[i];
            let decoded = match verified.then(|| deserialize_batch(kind, read_bytes)) {
                Some(Ok(items)) if items.len() == self.parts.part_len(i) => Some(items),
                _ => None,
            };
            match decoded {
                Some(items) => (items, 0u64, injected),
                // Lineage recompute: the pre-spill partition is still held,
                // so a lost spill costs one clone, not a rerun.
                None => (self.parts.with_whole(i, <[T]>::to_vec), 1u64, injected),
            }
        });
        let Some((parts, de_samples)) = read else {
            return failed(&self.ctx, n);
        };
        for (i, (_, rec, inj)) in parts.iter().enumerate() {
            if *inj > 0 {
                self.ctx.record_fault_event(tn::FAULT_INJECTED, read_stage, i as u32, *inj);
            }
            if *rec > 0 {
                self.ctx.record_fault_event(tn::SHUFFLE_RECOMPUTED, read_stage, i as u32, *rec);
            }
        }
        let records: u64 = parts.iter().map(|(v, _, _)| v.len() as u64).sum();
        let churn: u64 =
            bytes.iter().sum::<u64>() + records * self.ctx.config().per_record_overhead_bytes;
        self.ctx.record_tasks(&read_label, &de_samples, records, churn);
        self.ctx.record_serde(now_ns().saturating_sub(t1) as f64 * 1e-9);
        Dataset {
            ctx: Arc::clone(&self.ctx),
            parts: output_parts(&self.ctx, parts.into_iter().map(|(v, _, _)| v).collect()),
        }
    }

    /// Repartition arbitrary records by an explicit routing function.
    pub fn partition_by(
        &self,
        nparts: usize,
        route: impl Fn(&T) -> usize + Send + Sync,
    ) -> Dataset<T>
    where
        T: GpfSerialize + Clone,
    {
        shuffle(&self.ctx, self.parts.clone(), nparts, "partitionBy", route)
    }

    /// Opt this dataset into the memory-budget eviction policy: under a
    /// configured budget ([`crate::EngineConfig::with_memory_budget`]) its
    /// partitions become LRU eviction victims — a dirty partition is
    /// spilled to checksummed frames, a clean one (its spill image already
    /// exists) is dropped and re-read — and map stages over evicted
    /// partitions stream chunk-by-chunk. A no-op when no budget is
    /// installed or the dataset is already budgeted.
    pub fn evictable(&self) -> Dataset<T>
    where
        T: GpfSerialize + Clone,
    {
        if self.parts.budgeted() || self.ctx.accountant().is_none() {
            return self.clone();
        }
        let parts = (0..self.parts.num_parts())
            .map(|i| self.parts.with_whole(i, <[T]>::to_vec))
            .collect();
        Dataset { ctx: Arc::clone(&self.ctx), parts: output_parts(&self.ctx, parts) }
    }

    /// Number of partitions currently evicted to checksummed spill frames.
    /// Always `0` for an unbudgeted dataset — i.e. whenever no memory
    /// budget is installed.
    pub fn spilled_partitions(&self) -> usize {
        self.parts.spilled_partitions()
    }

    /// Serialized bytes currently sitting in spill frames for this dataset
    /// (`0` for unbudgeted datasets).
    pub fn spilled_bytes(&self) -> u64 {
        self.parts.spilled_bytes()
    }

    /// Consuming [`Dataset::partition_by`]: when this handle holds the last
    /// reference to its partitions and no fault plan is installed, every
    /// record is *moved* into its shuffle bucket instead of cloned. Use it
    /// when the source dataset is not needed afterwards (the common case
    /// for pipeline intermediates).
    pub fn into_partition_by(
        self,
        nparts: usize,
        route: impl Fn(&T) -> usize + Send + Sync,
    ) -> Dataset<T>
    where
        T: GpfSerialize + Clone,
    {
        let Dataset { ctx, parts } = self;
        shuffle(&ctx, parts, nparts, "partitionBy", route)
    }

    /// [`Dataset::partition_by`] through the retained reference shuffle
    /// (clone-per-record map side, per-bucket allocation, post-hoc byte
    /// counting). Kept for differential tests and the CI perf gate; use
    /// [`Dataset::partition_by`] everywhere else.
    pub fn partition_by_reference(
        &self,
        nparts: usize,
        route: impl Fn(&T) -> usize + Send + Sync,
    ) -> Dataset<T>
    where
        T: GpfSerialize + Clone,
    {
        shuffle_reference(&self.ctx, &self.parts, nparts, "partitionBy", route)
    }

    /// Adaptive repartition — the paper's §4.4 dynamic split, engine side.
    ///
    /// Counts records per *base* partition (a narrow pass recorded into the
    /// same stage as the shuffle map that follows, the Spark-AQE "map
    /// statistics" shape), hands the aggregated counts to `rebalance` on
    /// the driver, then runs the real shuffle through the final
    /// (post-split) routing the returned [`RebalancePlan`] carries. The
    /// plan's split stats land in the `repartition.*` trace counters.
    pub fn partition_by_adaptive(
        &self,
        nbase: usize,
        route_base: impl Fn(&T) -> usize + Send + Sync,
        rebalance: impl FnOnce(&[u64]) -> RebalancePlan<T>,
    ) -> Dataset<T>
    where
        T: GpfSerialize + Clone,
    {
        adaptive_shuffle(&self.ctx, self.parts.clone(), nbase, route_base, rebalance)
    }

    /// Consuming [`Dataset::partition_by_adaptive`]: the count pass still
    /// borrows the partitions, but the shuffle that follows moves records
    /// into buckets when this handle held the last reference.
    pub fn into_partition_by_adaptive(
        self,
        nbase: usize,
        route_base: impl Fn(&T) -> usize + Send + Sync,
        rebalance: impl FnOnce(&[u64]) -> RebalancePlan<T>,
    ) -> Dataset<T>
    where
        T: GpfSerialize + Clone,
    {
        let Dataset { ctx, parts } = self;
        adaptive_shuffle(&ctx, parts, nbase, route_base, rebalance)
    }
}


impl<K, V> Dataset<(K, V)>
where
    K: Hash + Eq + Clone + Send + Sync + GpfSerialize + 'static,
    V: Clone + Send + Sync + GpfSerialize + 'static,
{
    /// Hash-partition by key, then group values per key (order of first
    /// arrival, so results are deterministic).
    pub fn group_by_key(&self, nparts: usize) -> Dataset<(K, Vec<V>)> {
        let shuffled = shuffle(&self.ctx, self.parts.clone(), nparts, "groupByKey", |kv: &(K, V)| {
            (stable_hash(&kv.0) % nparts as u64) as usize
        });
        shuffled.narrow_op("group", |_, p| {
            let mut order: Vec<K> = Vec::new();
            let mut groups: std::collections::HashMap<K, Vec<V>> = std::collections::HashMap::new();
            for (k, v) in p {
                groups
                    .entry(k.clone())
                    .or_insert_with(|| {
                        order.push(k.clone());
                        Vec::new()
                    })
                    .push(v.clone());
            }
            order
                .into_iter()
                .filter_map(|k| {
                    let vs = groups.remove(&k)?;
                    Some((k, vs))
                })
                .collect()
        })
    }

    /// Hash-partition by key and fold values with `f`.
    pub fn reduce_by_key(&self, nparts: usize, f: impl Fn(&V, &V) -> V + Send + Sync) -> Dataset<(K, V)> {
        // Folds each partition's values per key, keys in order of first
        // arrival: the map-side combine (Spark does this too, to cut shuffle
        // volume) and the reduce alike.
        let fold = |p: &[(K, V)]| {
            let mut order: Vec<K> = Vec::new();
            let mut acc: std::collections::HashMap<K, V> = std::collections::HashMap::new();
            for (k, v) in p {
                match acc.get_mut(k) {
                    Some(cur) => *cur = f(cur, v),
                    None => {
                        order.push(k.clone());
                        acc.insert(k.clone(), v.clone());
                    }
                }
            }
            order
                .into_iter()
                .filter_map(|k| {
                    let v = acc.remove(&k)?;
                    Some((k, v))
                })
                .collect()
        };
        let combined = self.narrow_op("mapSideCombine", |_, p| fold(p));
        // `combined` is a freshly built intermediate nobody else references,
        // so destructuring it hands the shuffle sole ownership of the
        // partitions and the map side moves records instead of cloning.
        let Dataset { ctx, parts } = combined;
        let shuffled = shuffle(&ctx, parts, nparts, "reduceByKey", |kv: &(K, V)| {
            (stable_hash(&kv.0) % nparts as u64) as usize
        });
        shuffled.narrow_op("reduce", |_, p| fold(p))
    }

    /// Inner hash join (both sides shuffled by key hash).
    pub fn join<W>(&self, other: &Dataset<(K, W)>, nparts: usize) -> Dataset<(K, (V, W))>
    where
        W: Clone + Send + Sync + GpfSerialize + 'static,
    {
        let left = shuffle(&self.ctx, self.parts.clone(), nparts, "join(left)", |kv: &(K, V)| {
            (stable_hash(&kv.0) % nparts as u64) as usize
        });
        let right = shuffle(&other.ctx, other.parts.clone(), nparts, "join(right)", |kv: &(K, W)| {
            (stable_hash(&kv.0) % nparts as u64) as usize
        });
        left.zip_partitions(&right, |_, l, r| {
            let mut table: std::collections::HashMap<&K, Vec<&V>> = std::collections::HashMap::new();
            for (k, v) in l {
                table.entry(k).or_default().push(v);
            }
            let mut out = Vec::new();
            for (k, w) in r {
                if let Some(vs) = table.get(k) {
                    for v in vs {
                        out.push((k.clone(), ((*v).clone(), w.clone())));
                    }
                }
            }
            out
        })
    }

    /// Repartition key-value records by a key routing function, preserving
    /// record order within each source partition.
    pub fn partition_by_key(
        &self,
        nparts: usize,
        route: impl Fn(&K) -> usize + Send + Sync,
    ) -> Dataset<(K, V)> {
        shuffle(&self.ctx, self.parts.clone(), nparts, "partitionByKey", move |kv: &(K, V)| {
            route(&kv.0)
        })
    }

    /// Range-partition by key and sort each partition — Spark's
    /// `sortByKey`. Boundaries are computed from a deterministic sample.
    pub fn sort_by_key(&self, nparts: usize) -> Dataset<(K, V)>
    where
        K: Ord,
    {
        // Sample up to 1024 keys deterministically (every k-th record).
        let total = self.len().max(1);
        let step = (total / 1024).max(1);
        let mut sample: Vec<K> = Vec::new();
        let mut idx = 0usize;
        for pi in 0..self.parts.num_parts() {
            self.parts.stream(pi, &mut |chunk| {
                for (k, _) in chunk {
                    if idx.is_multiple_of(step) {
                        sample.push(k.clone());
                    }
                    idx += 1;
                }
            });
        }
        sample.sort();
        // An empty sample (empty input, or an upstream budget breach that
        // degraded to an empty dataset) yields no bounds: every record —
        // there are none — routes to partition 0 and the op stays total.
        let bounds: Vec<K> = if sample.is_empty() {
            Vec::new()
        } else {
            (1..nparts)
                .map(|i| sample[(i * sample.len() / nparts).min(sample.len() - 1)].clone())
                .collect()
        };
        let shuffled = shuffle(&self.ctx, self.parts.clone(), nparts, "sortByKey", move |kv: &(K, V)| {
            bounds.partition_point(|b| *b <= kv.0)
        });
        shuffled.narrow_op("sortPartition", |_, p| {
            let mut v: Vec<(K, V)> = p.to_vec();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        })
    }
}

/// One serialized bucket inside a map task's output buffer.
///
/// Offsets, lengths, record counts and checksums are recorded *while
/// writing*, so nothing re-traverses the serialized data afterwards:
/// shuffle-write bytes come from the buffer length, shuffle-read bytes from
/// summing one segment column, and the reduce side pre-sizes its output
/// from the record counts and verifies each segment against its checksum.
#[derive(Clone, Copy)]
struct BucketSeg {
    offset: usize,
    len: usize,
    records: usize,
    /// [`fnv64`] over the segment's bytes (0 for an empty segment).
    checksum: u64,
}

/// Output of one map-side shuffle task: every bucket serialized
/// back-to-back into a single pooled buffer, indexed by [`BucketSeg`]s.
struct MapTaskOut {
    data: Vec<u8>,
    segs: Vec<BucketSeg>,
    ser_s: f64,
}

/// Cap on pooled map-side serialization buffers. Bounds idle memory while
/// still covering every worker thread of the widest in-repo shuffle.
const SCRATCH_POOL_CAP: usize = 64;

fn scratch_pool() -> &'static Mutex<Vec<Vec<u8>>> {
    static POOL: OnceLock<Mutex<Vec<Vec<u8>>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(Vec::new()))
}

/// Take a cleared serialization buffer from the pool (or allocate the first
/// time). Reuse keeps steady-state shuffles from re-growing a fresh `Vec`
/// through the allocator on every map task.
fn scratch_take() -> Vec<u8> {
    let got = scratch_pool().lock().pop();
    if gpf_trace::enabled() {
        if got.is_some() {
            gpf_trace::counter(tn::SHUFFLE_SCRATCH_REUSED).add(1);
        } else {
            gpf_trace::counter(tn::SHUFFLE_SCRATCH_ALLOCATED).add(1);
        }
    }
    got.unwrap_or_default()
}

/// Return a buffer to the pool once the reduce side has drained it.
fn scratch_put(mut buf: Vec<u8>) {
    buf.clear();
    let mut pool = scratch_pool().lock();
    if pool.len() < SCRATCH_POOL_CAP {
        pool.push(buf);
    }
}

/// Compute every record's target bucket in one routing pass, plus the
/// per-bucket counts used to pre-size the scatter (no bucket reallocates).
fn plan_routes<T>(
    p: &[T],
    nparts: usize,
    route: &(impl Fn(&T) -> usize + Send + Sync),
) -> (Vec<u32>, Vec<usize>) {
    let mut routes = Vec::with_capacity(p.len());
    let mut counts = vec![0usize; nparts];
    for item in p {
        let target = route(item);
        assert!(target < nparts, "router produced partition {target} >= {nparts}");
        counts[target] += 1;
        routes.push(target as u32);
    }
    (routes, counts)
}

/// Serialize every bucket back-to-back into one pooled buffer, recording a
/// checksummed [`BucketSeg`] per bucket as it is written.
fn serialize_buckets<T: GpfSerialize>(
    kind: SerializerKind,
    buckets: &[Vec<T>],
) -> (Vec<u8>, Vec<BucketSeg>) {
    let mut data = scratch_take();
    // Serialization allocations (scratch growth, codec temporaries) charge
    // the serde heap tag; one scope per map task keeps this off the
    // per-bucket hot path.
    let _serde_scope = alloc::scope(AllocTag::Serde);
    let mut segs = Vec::with_capacity(buckets.len());
    // Bucket stats accumulate locally and merge into the registry once
    // per task: a smoke run serializes millions of buckets, and even an
    // uncontended per-bucket `fetch_add` shows up in `--trace-overhead`.
    let mut stats = if gpf_trace::enabled() {
        Some((gpf_trace::LocalHistogram::new(), gpf_trace::LocalHistogram::new()))
    } else {
        None
    };
    for b in buckets {
        let offset = data.len();
        // Empty buckets produce zero bytes (Spark's shuffle index marks
        // them with zero-length segments; no framing is written).
        let len = if b.is_empty() { 0 } else { serialize_batch_into(kind, b, &mut data) };
        if let Some((by, recs)) = &mut stats {
            by.record(len as u64);
            recs.record(b.len() as u64);
        }
        let checksum = if len > 0 { fnv64(&data[offset..offset + len]) } else { 0 };
        segs.push(BucketSeg { offset, len, records: b.len(), checksum });
    }
    if let Some((by, recs)) = &stats {
        gpf_trace::histogram(tn::SHUFFLE_BUCKET_BYTES).merge(by);
        gpf_trace::histogram(tn::SHUFFLE_BUCKET_RECORDS).merge(recs);
    }
    (data, segs)
}

/// What a [`run_tasks`] call runs: decides the tasks' heap attribution tag
/// and whether the fault plan may inject into them.
#[derive(Clone, Copy)]
enum TaskKind {
    /// A narrow-op task.
    Narrow,
    /// A shuffle map task (route + scatter + serialize).
    ShuffleMap,
    /// The adaptive shuffle's count pass.
    Count,
    /// A shuffle reduce task (verify + decode).
    ShuffleRead,
    /// A `barrier_via_disk` read-back task.
    SpillRead,
}

impl TaskKind {
    /// The fault surface whose `TaskPanic`/`Straggler` decisions apply to
    /// this kind's tasks. Only narrow and map tasks are injection surfaces;
    /// the others still retry a panic under a fault config but are never
    /// injected into or speculated.
    fn surface(self) -> Option<FaultSurface> {
        match self {
            TaskKind::Narrow => Some(FaultSurface::NarrowTask),
            TaskKind::ShuffleMap => Some(FaultSurface::ShuffleMap),
            TaskKind::Count | TaskKind::ShuffleRead | TaskKind::SpillRead => None,
        }
    }

    fn tag(self) -> AllocTag {
        match self {
            TaskKind::Narrow => AllocTag::Task,
            TaskKind::ShuffleMap => AllocTag::Shuffle,
            TaskKind::Count => AllocTag::Repartition,
            TaskKind::ShuffleRead => AllocTag::Serde,
            TaskKind::SpillRead => AllocTag::Spill,
        }
    }
}

/// A task that survived [`run_with_retry`]: its output plus the attempt
/// history the retry loop accumulated.
struct TaskRun<R> {
    out: R,
    sample: TaskSample,
    /// Failed attempts, in order (empty when the first attempt succeeded).
    attempts: Vec<AttemptRecord>,
    /// Faults injected into this task (panics that were retried away plus
    /// straggler delays).
    injected: u32,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// Run one task attempt: time it, attribute its heap under `tag`, and catch
/// a panic as the attempt's failure cause. The one place a [`TaskSample`]
/// is measured.
fn timed<R>(tag: AllocTag, body: impl FnOnce() -> R) -> Result<(R, TaskSample), String> {
    let start_ns = now_ns();
    let t0 = TaskTimer::start();
    let scope = alloc::scope(tag);
    let ht = alloc::window_begin();
    let out = catch_unwind(AssertUnwindSafe(body));
    // A panicked attempt leaked its partial allocations past the window;
    // the window still closes so the thread-local peak state stays
    // balanced, and its stats go with the discarded attempt.
    let w = alloc::window_end(ht);
    drop(scope);
    let out = out.map_err(panic_message)?;
    let sample = TaskSample {
        cpu_s: t0.elapsed_s(),
        start_ns,
        end_ns: now_ns(),
        tid: current_tid(),
        heap_peak_bytes: w.peak_bytes,
        heap_alloc_bytes: w.alloc_bytes,
    };
    Ok((out, sample))
}

/// Run one task body, under the fault plan when one is installed: injected
/// panics and real panics consume attempts until `1 + max_task_retries`
/// are spent; an injected straggler completes but with its measured window
/// inflated by [`FaultConfig::straggler_extra_ns`] (accounting-only — no
/// sleeping — which is what keeps chaos runs fast and deterministic).
/// Without a fault config a task gets exactly one attempt.
fn run_with_retry<R>(
    fc: Option<&FaultConfig>,
    label: &str,
    stage: u32,
    partition: u32,
    kind: TaskKind,
    body: impl Fn() -> R,
) -> Result<TaskRun<R>, EngineError> {
    let mut attempts: Vec<AttemptRecord> = Vec::new();
    let mut injected = 0u32;
    let mut attempt = 0u32;
    loop {
        let decision = fc
            .zip(kind.surface())
            .and_then(|(fc, surface)| fc.plan.decide(stage, partition, attempt, surface));
        let cause = if decision == Some(FaultKind::TaskPanic) {
            injected += 1;
            "injected: task panic".to_string()
        } else {
            match timed(kind.tag(), &body) {
                Ok((out, mut sample)) => {
                    if let (Some(FaultKind::Straggler), Some(fc)) = (decision, fc) {
                        injected += 1;
                        sample.end_ns = sample.end_ns.saturating_add(fc.straggler_extra_ns);
                        sample.cpu_s += fc.straggler_extra_ns as f64 * 1e-9;
                    }
                    return Ok(TaskRun { out, sample, attempts, injected });
                }
                Err(cause) => cause,
            }
        };
        let backoff_ns = fc.map_or(0, |fc| fc.backoff_ns(attempt));
        attempts.push(AttemptRecord { attempt, cause, backoff_ns });
        if attempt >= fc.map_or(0, |fc| fc.max_task_retries) {
            return Err(EngineError { label: label.to_string(), stage, partition, attempts });
        }
        attempt += 1;
    }
}

/// Speculative execution over a completed stage's tasks: any task whose
/// measured window exceeds `speculation_multiplier ×` the stage median gets
/// one clean (injection-free) duplicate, and the strictly faster finisher
/// wins. Runs driver-side after the stage completes, which makes the winner
/// deterministic — under MockClock and, for the injected-straggler case,
/// under the real clock too (the injected delay dwarfs task jitter).
fn speculate<R>(
    ctx: &EngineContext,
    fc: &FaultConfig,
    stage: u32,
    kind: TaskKind,
    runs: &mut [TaskRun<R>],
    rerun: impl Fn(usize) -> R,
) {
    if !fc.speculation || runs.len() < 2 {
        return;
    }
    let dur = |s: &TaskSample| s.end_ns.saturating_sub(s.start_ns);
    let mut durs: Vec<u64> = runs.iter().map(|r| dur(&r.sample)).collect();
    durs.sort_unstable();
    let median = durs[durs.len() / 2];
    if median == 0 {
        return;
    }
    let threshold = (median as f64 * fc.speculation_multiplier) as u64;
    for (i, run) in runs.iter_mut().enumerate() {
        if dur(&run.sample) <= threshold {
            continue;
        }
        ctx.record_fault_event(tn::SPEC_LAUNCHED, stage, i as u32, 1);
        // A duplicate that panics simply loses to the original.
        if let Ok((out, sample)) = timed(kind.tag(), || rerun(i)) {
            if dur(&sample) < dur(&run.sample) {
                run.out = out;
                run.sample = sample;
                ctx.record_fault_event(tn::SPEC_WON, stage, i as u32, 1);
            }
        }
    }
}

/// Emit the per-task recovery events for a completed stage, driver-side so
/// the session trace stays in deterministic order.
fn record_task_fault_events<R>(ctx: &EngineContext, stage: u32, runs: &[TaskRun<R>]) {
    for (i, r) in runs.iter().enumerate() {
        if r.injected > 0 {
            ctx.record_fault_event(tn::FAULT_INJECTED, stage, i as u32, r.injected as u64);
        }
        if !r.attempts.is_empty() {
            ctx.record_fault_event(tn::TASK_RETRIES, stage, i as u32, r.attempts.len() as u64);
        }
    }
}

/// The task runner every operator goes through: runs `body` for each task
/// index in `0..n` — in parallel, or one at a time when `serial` (the
/// budgeted rung of DESIGN.md §16c) — under [`run_with_retry`], then
/// speculates stragglers of injectable parallel stages and records the
/// recovery events.
///
/// Returns each task's output and sample in index order, or `None` once the
/// context holds a failure: a task that exhausted its attempts is recorded
/// here, and a body may record a typed failure itself (a budget breach, an
/// unverifiable shuffle segment) and return an empty output. A serial run
/// stops at the first failure.
fn run_tasks<R: Send>(
    ctx: &EngineContext,
    label: &str,
    n: usize,
    kind: TaskKind,
    serial: bool,
    body: impl Fn(usize) -> R + Sync,
) -> Option<(Vec<R>, Vec<TaskSample>)> {
    let stage = ctx.current_stage();
    let fc = ctx.faults();
    let task = |i: usize| run_with_retry(fc, label, stage, i as u32, kind, || body(i));
    let results: Vec<Result<TaskRun<R>, EngineError>> = if serial {
        let mut results = Vec::with_capacity(n);
        for i in 0..n {
            if ctx.has_failed() || results.last().is_some_and(|r: &Result<_, _>| r.is_err()) {
                break;
            }
            results.push(task(i));
        }
        results
    } else {
        par::map_range(n, task)
    };
    let mut runs = match results.into_iter().collect::<Result<Vec<_>, _>>() {
        Ok(runs) => runs,
        Err(err) => {
            ctx.record_fault_event(tn::TASK_RETRIES, stage, err.partition, err.attempts.len() as u64);
            ctx.fail(err);
            return None;
        }
    };
    if ctx.has_failed() {
        return None;
    }
    if let (Some(fc), Some(_), false) = (fc, kind.surface(), serial) {
        speculate(ctx, fc, stage, kind, &mut runs, &body);
    }
    record_task_fault_events(ctx, stage, &runs);
    Some(runs.into_iter().map(|r| (r.out, r.sample)).unzip())
}

/// A driver-side rebalance decision: the final (post-split) layout an
/// adaptive shuffle routes through, plus the decision stats the engine
/// reports via the `repartition.*` trace counters.
///
/// Produced by the `rebalance` callback of
/// [`Dataset::partition_by_adaptive`] from the aggregated per-base-partition
/// record counts. The engine stays split-table-agnostic on purpose: callers
/// (gpf-core, the bench workloads, tests) build the routing from
/// `PartitionInfo::with_splits_stats` or any equivalent table, and the
/// engine only needs the final partition count and a routing closure.
pub struct RebalancePlan<T> {
    /// Number of final (post-split) partitions the shuffle writes to.
    pub n_final: usize,
    /// Routes a record to its final partition id in `0..n_final`.
    pub route: Box<dyn Fn(&T) -> usize + Send + Sync>,
    /// Base partitions the decision split.
    pub splits: u64,
    /// Records living in split partitions (their id changed vs the base
    /// layout).
    pub moved_records: u64,
    /// Partitions whose requested piece count was truncated by the
    /// 64-piece cap — surfaced so a too-hot-to-fix partition never
    /// truncates silently.
    pub cap_hits: u64,
    /// Underfull base partitions the decision *merged* into shared final
    /// partitions (piece-aware merging of the rebalance plan): their
    /// records change partition id without being split. Reported via the
    /// `repartition.merged` trace counter.
    pub merged: u64,
}

/// Adaptive shuffle (paper §4.4): count → driver rebalance → shuffle.
///
/// The count pass is recorded as a narrow op into the *open* stage, so the
/// statistics cost shows up in the same stage as the shuffle map tasks —
/// mirroring where Spark's AQE pays for its map statistics. It is not a
/// fault-injection surface. Driver aggregation between the two passes is a
/// plain vector sum. The data movement itself delegates to [`shuffle`] with
/// the plan's final routing, so lineage recompute resolves *final*
/// partition ids — a corrupted bucket on a split piece recomputes exactly
/// that piece.
fn adaptive_shuffle<T>(
    ctx: &Arc<EngineContext>,
    parts: Arc<Store<T>>,
    nbase: usize,
    route_base: impl Fn(&T) -> usize + Send + Sync,
    rebalance: impl FnOnce(&[u64]) -> RebalancePlan<T>,
) -> Dataset<T>
where
    T: GpfSerialize + Clone + Send + Sync + 'static,
{
    assert!(nbase > 0, "adaptive shuffle needs at least one base partition");
    if ctx.has_failed() {
        return failed(ctx, nbase);
    }
    // Count pass: per-map-partition histograms over base ids, streamed so an
    // evicted partition never has to rematerialize just to be counted.
    let label = crate::metrics::names::REPARTITION_COUNT;
    let counted = run_tasks(ctx, label, parts.num_parts(), TaskKind::Count, false, |i| {
        let mut h = vec![0u64; nbase];
        parts.stream(i, &mut |chunk| {
            for item in chunk {
                let r = route_base(item);
                assert!(r < nbase, "base route {r} out of range ({nbase} base partitions)");
                h[r] += 1;
            }
        });
        h
    });
    let Some((hists, samples)) = counted else {
        return failed(ctx, nbase);
    };
    ctx.record_tasks(label, &samples, parts.total_len() as u64, 0);
    // Driver side: aggregate the histograms and let the caller decide the
    // final layout from them.
    let mut counts = vec![0u64; nbase];
    for h in &hists {
        for (c, &v) in counts.iter_mut().zip(h) {
            *c += v;
        }
    }
    let plan = rebalance(&counts);
    assert!(plan.n_final > 0, "rebalance produced an empty final layout");
    ctx.record_repartition(plan.splits, plan.moved_records, plan.cap_hits, plan.merged);
    shuffle(ctx, parts, plan.n_final, "partitionByAdaptive", plan.route)
}

/// A shuffle's map-side input.
enum MapInput<T> {
    /// A store the shuffle owns outright: records are moved into their
    /// buckets and no lineage survives the map side. Each partition is taken
    /// exactly once, by the one attempt its task gets without a fault plan.
    Owned(Store<T>),
    /// A shared or budgeted store: records are cloned into buckets and the
    /// input is kept as lineage to recompute a segment that fails
    /// verification.
    Lineage(Arc<Store<T>>),
}

/// The shuffle: route, scatter, serialize, checksum, exchange, verify,
/// deserialize — with the same outputs and metrics as [`shuffle_reference`]
/// but none of its per-record clones or per-bucket buffers.
///
/// Takes the store `Arc` by value: when the store is unbudgeted, the
/// caller held the only reference (consuming APIs like
/// [`Dataset::into_partition_by`] or internal intermediates like
/// `reduceByKey`'s map-side combine) and no fault plan is installed,
/// records are *moved* into their buckets;
/// otherwise each record is cloned exactly once and the input stays
/// resident as lineage. Every segment is checksummed on write; the reduce
/// side verifies checksum and decoded record count, recomputes a failed
/// segment from lineage when lineage is held (same routing, same order, so
/// the recovered bytes are byte-identical), and otherwise fails the stage
/// with a typed [`EngineError`].
fn shuffle<T>(
    ctx: &Arc<EngineContext>,
    parts: Arc<Store<T>>,
    nparts: usize,
    label: &str,
    route: impl Fn(&T) -> usize + Send + Sync,
) -> Dataset<T>
where
    T: GpfSerialize + Clone + Send + Sync + 'static,
{
    assert!(nparts > 0, "shuffle needs at least one output partition");
    if ctx.has_failed() {
        return failed(ctx, nparts);
    }
    let kind = ctx.serializer();
    let fc = ctx.faults();
    let stage = ctx.current_stage();
    let n = parts.num_parts();
    let records = parts.total_len() as u64;
    let input = if parts.budgeted() || fc.is_some() {
        MapInput::Lineage(parts)
    } else {
        Arc::try_unwrap(parts).map_or_else(MapInput::Lineage, MapInput::Owned)
    };
    if gpf_trace::enabled() {
        let name = match input {
            MapInput::Owned(_) => tn::SHUFFLE_PARTITIONS_MOVED,
            MapInput::Lineage(_) => tn::SHUFFLE_PARTITIONS_CLONED,
        };
        gpf_trace::counter(name).add(n as u64);
    }

    // Map side: one routing pass per chunk plans the scatter into pre-sized
    // buckets; lineage inputs stream chunk-by-chunk, so an evicted partition
    // is routed one spill frame at a time, never rematerialized whole.
    let mapped = run_tasks(ctx, label, n, TaskKind::ShuffleMap, false, |i| {
        let mut buckets: Vec<Vec<T>> = (0..nparts).map(|_| Vec::new()).collect();
        match &input {
            MapInput::Owned(store) => {
                let p = store.take(i);
                let (routes, counts) = plan_routes(&p, nparts, &route);
                for (b, &c) in buckets.iter_mut().zip(&counts) {
                    b.reserve_exact(c);
                }
                for (item, &r) in p.into_iter().zip(&routes) {
                    buckets[r as usize].push(item);
                }
            }
            MapInput::Lineage(lineage) => lineage.stream(i, &mut |chunk| {
                let (routes, counts) = plan_routes(chunk, nparts, &route);
                for (b, &c) in buckets.iter_mut().zip(&counts) {
                    b.reserve(c);
                }
                for (item, &r) in chunk.iter().zip(&routes) {
                    buckets[r as usize].push(item.clone());
                }
            }),
        }
        let t = TaskTimer::start();
        let (data, segs) = serialize_buckets(kind, &buckets);
        MapTaskOut { data, segs, ser_s: t.elapsed_s() }
    });
    let Some((mut map_out, map_samples)) = mapped else {
        return failed(ctx, nparts);
    };

    // Bucket corruption is injected driver-side, after the map side
    // checksummed the correct bytes — the reduce-side verify must fire even
    // if the flipped bit would still decode to something.
    if let Some(fc) = fc {
        for (i, m) in map_out.iter_mut().enumerate() {
            if fc.plan.decide(stage, i as u32, 0, FaultSurface::ShuffleBucket)
                != Some(FaultKind::CorruptBucket)
            {
                continue;
            }
            let nonempty: Vec<usize> = (0..m.segs.len()).filter(|&j| m.segs[j].len > 0).collect();
            if nonempty.is_empty() {
                continue;
            }
            let salt = fc.plan.corruption_salt(stage, i as u32);
            let seg = m.segs[nonempty[(salt % nonempty.len() as u64) as usize]];
            if corrupt_bit(&mut m.data[seg.offset..seg.offset + seg.len], salt) {
                ctx.record_fault_event(tn::FAULT_INJECTED, stage, i as u32, 1);
            }
        }
    }

    let ser_s: f64 = map_out.iter().map(|m| m.ser_s).sum();
    // Transfer sizes come straight from the segment index recorded while
    // writing — no second traversal of the serialized buffers.
    let write_bytes: Vec<u64> = map_out.iter().map(|m| m.data.len() as u64).collect();
    let read_bytes: Vec<u64> = (0..nparts)
        .map(|t| map_out.iter().map(|m| m.segs[t].len as u64).sum())
        .collect();
    ctx.record_tasks(label, &map_samples, records, 0);
    ctx.record_serde(ser_s);
    ctx.close_stage_shuffle(label, write_bytes, read_bytes.clone());
    let read_stage = ctx.current_stage();
    let read_label = format!("{label}(read)");

    // Reduce side: verify → decode → count-check every segment in map
    // order into one output vector pre-sized from the segment index; a
    // failed segment discards its partial output and is recomputed from the
    // owning input partition.
    let reduced = run_tasks(ctx, &read_label, nparts, TaskKind::ShuffleRead, false, |t| {
        let expected: usize = map_out.iter().map(|m| m.segs[t].records).sum();
        let mut out: Vec<T> = Vec::with_capacity(expected);
        let mut recomputes = 0u64;
        for (mi, m) in map_out.iter().enumerate() {
            let seg = m.segs[t];
            if seg.len == 0 {
                continue;
            }
            let base = out.len();
            let bytes = &m.data[seg.offset..seg.offset + seg.len];
            let verified = fnv64(bytes) == seg.checksum;
            let decoded = verified
                && matches!(deserialize_batch_into(kind, bytes, &mut out), Ok(n) if n == seg.records);
            if decoded {
                continue;
            }
            out.truncate(base);
            let MapInput::Lineage(lineage) = &input else {
                ctx.fail(EngineError {
                    label: read_label.clone(),
                    stage: read_stage,
                    partition: t as u32,
                    attempts: vec![AttemptRecord {
                        attempt: 0,
                        cause: format!(
                            "shuffle segment from map task {mi} failed checksum or record-count \
                             verification, and its records were moved, so no lineage is held"
                        ),
                        backoff_ns: 0,
                    }],
                });
                return (Vec::new(), 0);
            };
            lineage.stream(mi, &mut |chunk| {
                out.extend(chunk.iter().filter(|item| route(item) == t).cloned());
            });
            recomputes += 1;
        }
        (out, recomputes)
    });
    for m in map_out {
        scratch_put(m.data);
    }
    let Some((reduce_out, de_samples)) = reduced else {
        return failed(ctx, nparts);
    };
    for (t, (_, rec)) in reduce_out.iter().enumerate() {
        if *rec > 0 {
            ctx.record_fault_event(tn::SHUFFLE_RECOMPUTED, read_stage, t as u32, *rec);
        }
    }
    let de_s: f64 = de_samples.iter().map(|s| s.cpu_s).sum();
    let out_records: u64 = reduce_out.iter().map(|(v, _)| v.len() as u64).sum();
    // Deserialized shuffle data is fresh heap churn (the GC driver).
    let churn: u64 = read_bytes.iter().sum::<u64>()
        + out_records * ctx.config().per_record_overhead_bytes;
    ctx.record_tasks(&read_label, &de_samples, out_records, churn);
    ctx.record_serde(de_s);
    Dataset {
        ctx: Arc::clone(ctx),
        parts: output_parts(ctx, reduce_out.into_iter().map(|(v, _)| v).collect()),
    }
}

/// The pre-optimization shuffle, retained verbatim: clones every record
/// into its bucket, serializes each bucket into its own fresh buffer, and
/// sizes transfers by re-reading buffer lengths. Differential property
/// tests hold [`shuffle`] to this implementation's outputs and metrics, and
/// the CI perf gate measures the speedup against it.
fn shuffle_reference<T>(
    ctx: &Arc<EngineContext>,
    parts: &Store<T>,
    nparts: usize,
    label: &str,
    route: impl Fn(&T) -> usize + Send + Sync,
) -> Dataset<T>
where
    T: GpfSerialize + Clone + Send + Sync + 'static,
{
    assert!(nparts > 0, "shuffle needs at least one output partition");
    let kind = ctx.serializer();

    // Map side: bucket and serialize.
    let map_out: Vec<(Vec<Vec<u8>>, TaskSample, f64)> = par::map_range(parts.num_parts(), |i| {
        let start_ns = now_ns();
        let t0 = TaskTimer::start();
        let mut buckets: Vec<Vec<T>> = (0..nparts).map(|_| Vec::new()).collect();
        parts.stream(i, &mut |chunk| {
            for item in chunk {
                let target = route(item);
                assert!(target < nparts, "router produced partition {target} >= {nparts}");
                buckets[target].push(item.clone());
            }
        });
        let bucket_time = t0.elapsed_s();
        let t1 = TaskTimer::start();
        // Empty buckets produce zero bytes (Spark's shuffle index marks
        // them with zero-length segments; no framing is written).
        let ser: Vec<Vec<u8>> = buckets
            .iter()
            .map(|b| if b.is_empty() { Vec::new() } else { serialize_batch(kind, b) })
            .collect();
        let ser_time = t1.elapsed_s();
        // The reference shuffle stays uninstrumented: it is the differential
        // baseline, so its samples carry no heap columns.
        let sample = TaskSample {
            cpu_s: bucket_time + ser_time,
            start_ns,
            end_ns: now_ns(),
            tid: current_tid(),
            heap_peak_bytes: 0,
            heap_alloc_bytes: 0,
        };
        (ser, sample, ser_time)
    });

    let map_samples: Vec<TaskSample> = map_out.iter().map(|(_, s, _)| *s).collect();
    let ser_s: f64 = map_out.iter().map(|(_, _, s)| *s).sum();
    let write_bytes: Vec<u64> = map_out
        .iter()
        .map(|(bufs, _, _)| bufs.iter().map(|b| b.len() as u64).sum())
        .collect();
    let read_bytes: Vec<u64> = (0..nparts)
        .map(|t| map_out.iter().map(|(bufs, _, _)| bufs[t].len() as u64).sum())
        .collect();
    let records = parts.total_len() as u64;
    ctx.record_tasks(label, &map_samples, records, 0);
    ctx.record_serde(ser_s);
    ctx.close_stage_shuffle(label, write_bytes, read_bytes.clone());

    // Reduce side: deserialize buckets in map order.
    let reduce_out: Vec<(Vec<T>, TaskSample)> = par::map_range(nparts, |t| {
        let start_ns = now_ns();
        let t0 = TaskTimer::start();
        let mut out: Vec<T> = Vec::new();
        for (bufs, _, _) in &map_out {
            if bufs[t].is_empty() {
                continue;
            }
            let mut items: Vec<T> =
                // gpf-lint: allow(no-panic): map-side serialize_batch
                // produced this buffer in the same shuffle; a decode failure
                // is engine corruption, not an input error.
                deserialize_batch(kind, &bufs[t]).expect("engine-produced buffer is valid");
            out.append(&mut items);
        }
        let cpu_s = t0.elapsed_s();
        (
            out,
            TaskSample {
                cpu_s,
                start_ns,
                end_ns: now_ns(),
                tid: current_tid(),
                heap_peak_bytes: 0,
                heap_alloc_bytes: 0,
            },
        )
    });
    let de_samples: Vec<TaskSample> = reduce_out.iter().map(|(_, s)| *s).collect();
    let de_s: f64 = de_samples.iter().map(|s| s.cpu_s).sum();
    let out_records: u64 = reduce_out.iter().map(|(v, _)| v.len() as u64).sum();
    // Deserialized shuffle data is fresh heap churn (the GC driver).
    let churn: u64 = read_bytes.iter().sum::<u64>()
        + out_records * ctx.config().per_record_overhead_bytes;
    ctx.record_tasks(&format!("{label}(read)"), &de_samples, out_records, churn);
    ctx.record_serde(de_s);
    // The reference shuffle is the differential baseline: its output stays
    // unbudgeted even under a budget, so comparisons read it without
    // restores.
    Dataset {
        ctx: Arc::clone(ctx),
        parts: Store::new(reduce_out.into_iter().map(|(v, _)| v).collect(), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;

    fn ctx() -> Arc<EngineContext> {
        EngineContext::new(EngineConfig::default().with_parallelism(4))
    }

    #[test]
    fn from_vec_chunks_evenly() {
        let d = Dataset::from_vec(ctx(), (0u64..10).collect(), 3);
        assert_eq!(d.num_partitions(), 3);
        assert_eq!(d.len(), 10);
        assert_eq!(d.partition_sizes(), vec![4, 4, 2]);
        assert_eq!(d.collect_local(), (0u64..10).collect::<Vec<_>>());
    }

    #[test]
    fn from_vec_more_parts_than_items() {
        let d = Dataset::from_vec(ctx(), vec![1u64], 4);
        assert_eq!(d.num_partitions(), 4);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn map_filter_flat_map() {
        let d = Dataset::from_vec(ctx(), (0u64..8).collect(), 2);
        let m = d.map(|x| x * 2);
        assert_eq!(m.collect_local(), vec![0, 2, 4, 6, 8, 10, 12, 14]);
        let f = m.filter(|x| *x >= 8);
        assert_eq!(f.collect_local(), vec![8, 10, 12, 14]);
        let fm = d.flat_map(|x| vec![*x, *x]);
        assert_eq!(fm.len(), 16);
    }

    #[test]
    fn narrow_ops_stay_in_one_stage() {
        let c = ctx();
        let d = Dataset::from_vec(Arc::clone(&c), (0u64..100).collect(), 4);
        let _x = d.map(|x| x + 1).filter(|x| x % 2 == 0).map(|x| x * 3);
        let run = c.take_run();
        assert_eq!(run.num_stages(), 1, "narrow chains must not create stages");
    }

    #[test]
    fn group_by_key_groups_everything() {
        let c = ctx();
        let data: Vec<(u64, u64)> = (0u64..100).map(|i| (i % 7, i)).collect();
        let d = Dataset::from_vec(Arc::clone(&c), data, 5);
        let g = d.group_by_key(3);
        let mut all: Vec<(u64, Vec<u64>)> = g.collect_local();
        all.sort_by_key(|(k, _)| *k);
        assert_eq!(all.len(), 7);
        for (k, vs) in &all {
            assert_eq!(vs.len(), if *k < 100 % 7 { 15 } else { 14 });
            for v in vs {
                assert_eq!(v % 7, *k);
            }
        }
        let run = c.take_run();
        assert_eq!(run.num_stages(), 2, "one shuffle => two stages");
        assert!(run.total_shuffle_bytes() > 0);
    }

    #[test]
    fn reduce_by_key_sums() {
        let data: Vec<(u64, u64)> = (0u64..50).map(|i| (i % 3, 1)).collect();
        let d = Dataset::from_vec(ctx(), data, 4);
        let mut out = d.reduce_by_key(2, |a, b| a + b).collect_local();
        out.sort();
        assert_eq!(out, vec![(0, 17), (1, 17), (2, 16)]);
    }

    #[test]
    fn join_matches_pairs() {
        let c = ctx();
        let left = Dataset::from_vec(
            Arc::clone(&c),
            vec![(1u64, "a".to_string()), (2, "b".to_string()), (2, "b2".to_string())],
            2,
        );
        let right =
            Dataset::from_vec(Arc::clone(&c), vec![(2u64, 20u64), (3, 30), (2, 21)], 2);
        let mut j = left.join(&right, 2).collect_local();
        j.sort_by(|a, b| (a.0, &a.1 .1).cmp(&(b.0, &b.1 .1)));
        assert_eq!(j.len(), 4); // keys 2×2 matches
        assert!(j.iter().all(|(k, _)| *k == 2));
    }

    #[test]
    fn sort_by_key_sorts_globally() {
        let data: Vec<(u64, u64)> = (0u64..200).rev().map(|i| (i, i * 10)).collect();
        let d = Dataset::from_vec(ctx(), data, 7);
        let s = d.sort_by_key(4);
        let collected = s.collect_local();
        let keys: Vec<u64> = collected.iter().map(|(k, _)| *k).collect();
        let mut expect: Vec<u64> = (0u64..200).collect();
        expect.sort();
        assert_eq!(keys, expect, "global order across partitions");
        // Partition boundaries respect ranges.
        for i in 0..s.num_partitions() - 1 {
            let last = s.partition(i).last().map(|(k, _)| *k);
            let first = s.partition(i + 1).first().map(|(k, _)| *k);
            if let (Some(l), Some(f)) = (last, first) {
                assert!(l <= f);
            }
        }
    }

    #[test]
    fn partition_by_routes_records() {
        let d = Dataset::from_vec(ctx(), (0u64..40).collect(), 4);
        let p = d.partition_by(4, |x| (*x % 4) as usize);
        for i in 0..4 {
            assert!(p.partition(i).iter().all(|x| (*x % 4) as usize == i));
        }
        assert_eq!(p.len(), 40);
    }

    #[test]
    fn zip_partitions_combines() {
        let c = ctx();
        let a = Dataset::from_vec(Arc::clone(&c), (0u64..10).collect(), 2);
        let b = Dataset::from_vec(Arc::clone(&c), (100u64..110).collect(), 2);
        let z = a.zip_partitions(&b, |_, x, y| {
            x.iter().zip(y).map(|(a, b)| a + b).collect::<Vec<u64>>()
        });
        assert_eq!(z.collect_local(), (0u64..10).map(|i| i + 100 + i).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "equal partition counts")]
    fn zip_partitions_rejects_mismatch() {
        let c = ctx();
        let a = Dataset::from_vec(Arc::clone(&c), (0u64..10).collect(), 2);
        let b = Dataset::from_vec(Arc::clone(&c), (0u64..10).collect(), 3);
        let _ = a.zip_partitions(&b, |_, x, _| x.to_vec());
    }

    #[test]
    fn union_concatenates() {
        let c = ctx();
        let a = Dataset::from_vec(Arc::clone(&c), vec![1u64, 2], 2);
        let b = Dataset::from_vec(Arc::clone(&c), vec![3u64], 1);
        let u = a.union(&b);
        assert_eq!(u.num_partitions(), 3);
        assert_eq!(u.collect_local(), vec![1, 2, 3]);
    }

    #[test]
    fn collect_closes_stage_with_bytes() {
        let c = ctx();
        let d = Dataset::from_vec(Arc::clone(&c), (0u64..100).collect(), 4);
        let got = d.collect();
        assert_eq!(got.len(), 100);
        let run = c.take_run();
        assert_eq!(run.num_stages(), 1);
        assert_eq!(run.stages[0].kind, crate::metrics::StageKind::Collect);
        assert!(run.stages[0].total_shuffle_write() > 0);
    }

    #[test]
    fn shuffle_bytes_depend_on_serializer() {
        use gpf_compress::SerializerKind;
        let data: Vec<(u64, String)> =
            (0..200).map(|i| (i % 10, format!("value-{i:06}"))).collect();
        let sizes: Vec<u64> = [EngineConfig::java(), EngineConfig::kryo()]
            .into_iter()
            .map(|cfg| {
                let c = EngineContext::new(cfg);
                let d = Dataset::from_vec(Arc::clone(&c), data.clone(), 4);
                let _g = d.group_by_key(4);
                c.take_run().total_shuffle_bytes()
            })
            .collect();
        assert!(sizes[0] > sizes[1], "java {} should exceed kryo {}", sizes[0], sizes[1]);
        // And serialized_size agrees in direction.
        let c = ctx();
        let d = Dataset::from_vec(Arc::clone(&c), data, 4);
        assert!(
            d.serialized_size(SerializerKind::JavaSim) > d.serialized_size(SerializerKind::KryoSim)
        );
    }

    #[test]
    fn group_by_key_is_deterministic() {
        let data: Vec<(u64, u64)> = (0u64..500).map(|i| (i % 13, i)).collect();
        let run1 = Dataset::from_vec(ctx(), data.clone(), 8).group_by_key(5).collect_local();
        let run2 = Dataset::from_vec(ctx(), data, 8).group_by_key(5).collect_local();
        assert_eq!(run1, run2);
    }

    #[test]
    fn barrier_via_disk_preserves_data_and_records_bytes() {
        let c = ctx();
        let d = Dataset::from_vec(Arc::clone(&c), (0u64..200).collect(), 4);
        let back = d.barrier_via_disk("checkpoint");
        assert_eq!(back.collect_local(), d.collect_local());
        let run = c.take_run();
        assert_eq!(run.num_stages(), 2, "barrier closes a stage");
        let wrote = run.stages[0].total_shuffle_write();
        let read = run.stages[1].total_shuffle_read();
        assert!(wrote > 0);
        assert_eq!(wrote, read, "everything written is read back");
    }

    #[test]
    fn shuffle_paths_agree_with_reference() {
        let data: Vec<(u64, String)> =
            (0u64..300).map(|i| (i % 11, format!("rec-{i:05}"))).collect();
        let route = |kv: &(u64, String)| (kv.0 % 5) as usize;

        let c_ref = ctx();
        let d_ref = Dataset::from_vec(Arc::clone(&c_ref), data.clone(), 6);
        let p_ref = d_ref.partition_by_reference(5, route);
        let bytes_ref = c_ref.take_run().total_shuffle_bytes();

        let c_new = ctx();
        let d_new = Dataset::from_vec(Arc::clone(&c_new), data.clone(), 6);
        let p_new = d_new.partition_by(5, route);
        let bytes_new = c_new.take_run().total_shuffle_bytes();

        let c_mv = ctx();
        let d_mv = Dataset::from_vec(Arc::clone(&c_mv), data.clone(), 6);
        let p_mv = d_mv.into_partition_by(5, route);
        let bytes_mv = c_mv.take_run().total_shuffle_bytes();

        for t in 0..5 {
            assert_eq!(p_ref.partition(t), p_new.partition(t), "clone path diverged at {t}");
            assert_eq!(p_ref.partition(t), p_mv.partition(t), "move path diverged at {t}");
        }
        assert_eq!(bytes_ref, bytes_new, "shuffle byte accounting changed");
        assert_eq!(bytes_ref, bytes_mv, "move path byte accounting changed");
    }

    #[test]
    fn adaptive_shuffle_counts_then_routes_final_ids() {
        // 4 base partitions; base 1 is hot. The rebalance splits it in two:
        // final ids become [0, 1..3, 4, 5] for bases [0, 1, 2, 3].
        let data: Vec<u64> = (0u64..400).map(|i| if i % 2 == 0 { 1 } else { i % 4 }).collect();
        let c = ctx();
        let d = Dataset::from_vec(Arc::clone(&c), data.clone(), 4);
        let seen = Arc::new(gpf_support::sync::Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let out = d.partition_by_adaptive(
            4,
            |x| (*x % 4) as usize,
            move |counts| {
                seen2.lock().extend_from_slice(counts);
                RebalancePlan {
                    n_final: 6,
                    route: Box::new(|x: &u64| match *x % 4 {
                        0 => 0,
                        1 => 1 + (*x as usize / 4) % 3,
                        2 => 4,
                        _ => 5,
                    }),
                    splits: 1,
                    moved_records: 250,
                    merged: 0,
                    cap_hits: 0,
                }
            },
        );
        // The driver saw the true per-base histogram.
        let hot = data.iter().filter(|x| **x % 4 == 1).count() as u64;
        assert_eq!(seen.lock().as_slice(), &[
            data.iter().filter(|x| **x % 4 == 0).count() as u64,
            hot,
            data.iter().filter(|x| **x % 4 == 2).count() as u64,
            data.iter().filter(|x| **x % 4 == 3).count() as u64,
        ]);
        // Records landed in their *final* partitions, none lost.
        assert_eq!(out.num_partitions(), 6);
        assert_eq!(out.len(), data.len());
        let split_total: usize = (1..4).map(|t| out.partition(t).len()).sum();
        assert_eq!(split_total as u64, hot, "hot base split across final ids 1..3");
        // The count pass shares a stage with the shuffle map: same stage
        // count as a plain partition_by, and the repartition instant shows.
        let (run, trace) = c.take_run_traced();
        assert_eq!(run.num_stages(), 2);
        assert!(trace.events.iter().any(|e| &*e.name == "repartition.split"));
        assert!(trace.events.iter().any(|e| &*e.name == "repartition.count"));
    }

    #[test]
    fn adaptive_identity_plan_matches_plain_shuffle() {
        let data: Vec<(u64, u64)> = (0u64..300).map(|i| (i * 17 % 23, i)).collect();
        let route = |kv: &(u64, u64)| (kv.0 % 5) as usize;
        let plain = Dataset::from_vec(ctx(), data.clone(), 6).into_partition_by(5, route);
        let adaptive = Dataset::from_vec(ctx(), data, 6).into_partition_by_adaptive(
            5,
            route,
            |_| RebalancePlan {
                n_final: 5,
                route: Box::new(route),
                splits: 0,
                moved_records: 0,
                cap_hits: 0,
                merged: 0,
            },
        );
        for t in 0..5 {
            assert_eq!(plain.partition(t), adaptive.partition(t), "identity plan diverged at {t}");
        }
    }

    #[test]
    fn consuming_shuffle_moves_partitions() {
        use gpf_trace::counters_snapshot;
        let get = |name: &str| {
            counters_snapshot().iter().find(|(n, _)| *n == name).map(|(_, v)| *v).unwrap_or(0)
        };
        gpf_trace::set_enabled(true);
        let moved0 = get("shuffle.partitions.moved");
        let d = Dataset::from_vec(ctx(), (0u64..64).collect(), 4);
        let p = d.into_partition_by(4, |x| (*x % 4) as usize);
        assert_eq!(p.len(), 64);
        let moved1 = get("shuffle.partitions.moved");
        // A shared handle forces the clone fallback.
        let cloned0 = get("shuffle.partitions.cloned");
        let d2 = Dataset::from_vec(ctx(), (0u64..64).collect(), 4);
        let _keep = d2.clone();
        let p2 = d2.into_partition_by(4, |x| (*x % 4) as usize);
        assert_eq!(p2.len(), 64);
        let cloned1 = get("shuffle.partitions.cloned");
        gpf_trace::set_enabled(false);
        // Deltas are >= because other concurrently running tests may also
        // shuffle while tracing is on.
        assert!(moved1 >= moved0 + 4, "sole-owner shuffle should take the move path");
        assert!(cloned1 >= cloned0 + 4, "shared partitions must fall back to cloning");
    }

    #[test]
    fn empty_dataset_ops() {
        let c = ctx();
        let d: Dataset<(u64, u64)> = Dataset::from_vec(Arc::clone(&c), vec![], 3);
        assert!(d.is_empty());
        let g = d.group_by_key(2);
        assert!(g.collect_local().is_empty());
        let m = d.map(|kv| kv.0);
        assert_eq!(m.num_partitions(), 3);
    }

    #[test]
    fn fnv64_detects_every_bit_flip_and_truncation() {
        // CorruptBucket / CorruptSpill / TruncateSpill recovery relies on
        // the checksum changing under exactly these two kinds of damage.
        let mut rng = gpf_support::rng::SplitMix64::new(0xc4ec_5a17);
        let (mut flips, mut truncations) = (0usize, 0usize);
        for len in [0usize, 1, 7, 8, 9, 31, 32, 33, 63, 65, 255, 1000, 4096] {
            let buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let sum = fnv64(&buf);
            let mut damaged = buf.clone();
            for bit in 0..len * 8 {
                damaged[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(fnv64(&damaged), sum, "flip of bit {bit} in a {len}-byte buffer");
                damaged[bit / 8] ^= 1 << (bit % 8);
                flips += 1;
            }
            for keep in 0..len {
                assert_ne!(fnv64(&buf[..keep]), sum, "truncation of {len} bytes to {keep}");
                truncations += 1;
            }
        }
        assert!(flips >= 32_768, "{flips} flips");
        assert!(truncations >= 4_096, "{truncations} truncations");
    }

    #[test]
    fn out_of_range_router_is_a_typed_failure() {
        let c = ctx();
        let d = Dataset::from_vec(Arc::clone(&c), (0u64..40).collect(), 4);
        let p = d.partition_by(4, |x| *x as usize);
        assert_eq!(p.num_partitions(), 4);
        assert!(p.is_empty(), "a failed shuffle yields an empty dataset");
        let err = c.take_failure().expect("the router's panic is recorded as a task failure");
        assert_eq!(err.label, "partitionBy");
        assert_eq!(err.partition, 0);
        assert_eq!(err.attempts.len(), 1, "no fault config: one attempt");
        let cause = &err.attempts[0].cause;
        assert!(cause.contains("router produced partition"), "{cause}");
    }
}

