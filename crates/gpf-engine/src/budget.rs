//! The partition store behind every [`crate::Dataset`], and the memory
//! budget it may carry: the accountant and its LRU eviction policy.
//!
//! A [`Store`] holds one slot per partition, `Resident` or `Spilled` (only
//! a checksummed spill image), plus each partition's record count. Only
//! stores built under [`crate::EngineConfig::with_memory_budget`] (shuffle
//! and barrier outputs, `evictable()` datasets) carry the optional budget
//! part; an unbudgeted store sizes, registers and charges nothing.
//!
//! Rosalind's O(√t) idea: cap peak resident bytes regardless of input
//! size by trading memory for spill IO. The
//! [`BudgetAccountant`] is a single ledger of exactly-accounted resident
//! partition bytes (via [`GpfSerialize::resident_bytes`]); every budgeted
//! partition materialization *admits* its charge, and when a charge would
//! breach the budget the accountant reclaims from registered budgeted
//! [`Store`]s — oldest-touched victims first — before giving up.
//!
//! Eviction walks victims least-recently-touched first, skipping any
//! partition a live reader pins, and treats each by whether its spill
//! image already exists:
//!
//! * a **clean** resident partition (its spill image already exists)
//!   is *dropped* and later re-read from that image
//!   ([`mem.budget.dropped_clean`][c1]);
//! * a **dirty** resident partition is *spilled* — serialized into
//!   checksummed [`SpillFrame`]s first ([`mem.budget.spilled`][c2]).
//!
//! Nothing is recomputed from lineage on eviction: every restore is a
//! checksummed re-read of the spill image.
//!
//! Spill frames model write-verified durable storage as in-memory buffers
//! (the same simulation stance as `barrier_via_disk`). Frames are
//! therefore pristine at rest —
//! read-back faults ([`FaultSurface::SpillRead`]) damage only the
//! transient copy handed to the decoder, the checksum detects it, and a
//! bounded retry re-reads pristine bytes: a store read never panics and
//! never returns corrupt data. The only way a read fails is a genuinely
//! infeasible budget (restoring one partition alone breaches), which
//! surfaces as a structured [`BudgetBreach`].
//!
//! [c1]: gpf_trace::names::MEM_BUDGET_DROPPED_CLEAN
//! [c2]: gpf_trace::names::MEM_BUDGET_SPILLED

use crate::dataset::fnv64;
use crate::fault::{corrupt_bit, FaultKind, FaultPlan, FaultSurface};
use gpf_compress::serializer::{
    deserialize_batch_into, serialize_batch, GpfSerialize, SerializerKind,
};
use gpf_compress::CodecError;
use gpf_support::chk::atomic::{AtomicU64, Ordering};
use gpf_support::sync::{Mutex, RwLock};
use gpf_trace::alloc::{self, AllocTag};
use gpf_trace::names as tn;
use std::sync::{Arc, Weak};

/// Records per spill frame: the unit of chunked streaming. Map stages over
/// a spilled partition decode one frame at a time, so their transient
/// footprint is bounded by the frame, not the partition.
pub(crate) const FRAME_RECORDS: usize = 1024;

/// Bump a registry counter. Unconditional — not gated on ambient tracing —
/// for the same reason as `record_fault_event`: these fire only on budget
/// events (a spill serializes frames, a restore decodes them) whose cost
/// dwarfs the registry lookup, and tests and benches read the counters
/// without a tracing session.
fn note(name: &'static str, n: u64) {
    if n > 0 {
        gpf_trace::counter(name).add(n);
    }
}

/// A structured budget breach: the accountant exhausted every eviction
/// victim and the charge still did not fit. Carried through
/// [`crate::EngineContext::fail_budget`] to `PipelineError::MemoryBudgetExceeded`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetBreach {
    /// Stage index at the failing operation's entry.
    pub stage: u32,
    /// Operation label (`"map"`, `"collect"`, …).
    pub operator: String,
    /// Bytes the operation tried to admit.
    pub requested: u64,
    /// The installed budget.
    pub budget: u64,
}

impl std::fmt::Display for BudgetBreach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory budget exceeded in operator `{}` (stage {}): requested {} bytes, budget {} bytes",
            self.operator, self.stage, self.requested, self.budget
        )
    }
}

/// Anything the accountant can reclaim resident bytes from.
pub(crate) trait Shed: Send + Sync {
    /// Evict victims until at least `need` bytes are freed (crediting the
    /// accountant per victim) or nothing evictable remains. Returns the
    /// bytes actually freed.
    fn shed(&self, need: u64) -> u64;
}

struct Ledger {
    used: u64,
    peak: u64,
}

/// The per-run memory-budget accountant (installed by
/// [`crate::EngineConfig::with_memory_budget`]).
///
/// The ledger holds *exact* resident partition bytes — charges come from
/// [`GpfSerialize::resident_bytes`], not the allocator — so its peak is
/// deterministic across runs. The PR 8 `TrackingAlloc` gauges ride along
/// as the ground-truth cross-check: [`crate::EngineContext`] annotates
/// every `heap.live_bytes` sample with the current ledger value.
pub struct BudgetAccountant {
    budget: u64,
    ledger: Mutex<Ledger>,
    stores: Mutex<Vec<Weak<dyn Shed>>>,
}

impl BudgetAccountant {
    /// A fresh accountant with `budget` bytes of headroom.
    pub fn new(budget: u64) -> Self {
        Self {
            budget,
            ledger: Mutex::new(Ledger { used: 0, peak: 0 }),
            stores: Mutex::new(Vec::new()),
        }
    }

    /// The installed budget in bytes.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently charged to the ledger.
    pub fn used(&self) -> u64 {
        self.ledger.lock().used
    }

    /// High-water mark of the ledger. Only successful admissions move it,
    /// so `peak() <= budget()` holds by construction.
    pub fn peak(&self) -> u64 {
        self.ledger.lock().peak
    }

    /// Register a budgeted store as a reclaim source. Held weakly: a
    /// dropped dataset unregisters itself by expiring.
    pub(crate) fn register(&self, store: Weak<dyn Shed>) {
        self.stores.lock().push(store);
    }

    /// Charge `bytes` to the ledger, evicting victims from registered
    /// stores if needed. `Err((requested, budget))` when the policy is
    /// exhausted and the charge still does not fit.
    pub(crate) fn admit(&self, bytes: u64) -> Result<(), (u64, u64)> {
        loop {
            {
                let mut led = self.ledger.lock();
                if led.used.saturating_add(bytes) <= self.budget {
                    led.used += bytes;
                    if led.used > led.peak {
                        led.peak = led.used;
                    }
                    return Ok(());
                }
            }
            if self.reclaim(bytes) == 0 {
                note(tn::MEM_BUDGET_BREACH, 1);
                return Err((bytes, self.budget));
            }
        }
    }

    /// Return `bytes` to the ledger (an eviction or a dropped dataset).
    pub(crate) fn credit(&self, bytes: u64) {
        let mut led = self.ledger.lock();
        led.used = led.used.saturating_sub(bytes);
    }

    /// Ask every live registered store to shed until `need` bytes are
    /// freed. Returns total bytes freed (0 = nothing evictable anywhere).
    fn reclaim(&self, need: u64) -> u64 {
        // Snapshot upgrades first so no store lock is taken while the
        // registry lock is held (shed() takes slot locks).
        let live: Vec<Arc<dyn Shed>> = {
            let mut stores = self.stores.lock();
            stores.retain(|w| w.strong_count() > 0);
            stores.iter().filter_map(Weak::upgrade).collect()
        };
        let mut freed = 0u64;
        for store in live {
            if freed >= need {
                break;
            }
            freed += store.shed(need - freed);
        }
        freed
    }
}

/// One checksummed spill frame: a serialized chunk of ≤ [`FRAME_RECORDS`]
/// records.
pub(crate) struct SpillFrame {
    bytes: Vec<u8>,
    records: u32,
    checksum: u64,
}

impl SpillFrame {
    /// The raw stored bytes, **not** checksum-verified. Every consumer
    /// must verify [`fnv64`] of this payload against `self.checksum`
    /// before decoding — enforced by gpf-lint's `spill-read-checksum`
    /// rule, which flags any call site without a nearby `fnv64` check.
    pub(crate) fn payload_unverified(&self) -> &[u8] {
        &self.bytes
    }
}

/// Appends a frame's decoded records (`deserialize_batch_into` for `T`).
type DecodeFn<T> = fn(SerializerKind, &[u8], &mut Vec<T>) -> Result<usize, CodecError>;

/// The spill image of one partition: checksummed frames, the serializer
/// that wrote them and the decoder that reads them back.
pub(crate) struct SpillTicket<T> {
    frames: Vec<SpillFrame>,
    kind: SerializerKind,
    decode: DecodeFn<T>,
}

impl<T> SpillTicket<T> {
    /// Serialize `data` into checksummed frames.
    fn write(kind: SerializerKind, data: &[T]) -> Self
    where
        T: GpfSerialize,
    {
        let _scope = alloc::scope(AllocTag::Spill);
        let frames = data
            .chunks(FRAME_RECORDS)
            .map(|chunk| {
                let bytes = serialize_batch(kind, chunk);
                let checksum = fnv64(&bytes);
                SpillFrame { bytes, records: chunk.len() as u32, checksum }
            })
            .collect();
        Self { frames, kind, decode: deserialize_batch_into::<T> }
    }

    /// Serialized size across all frames.
    fn spilled_bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.bytes.len() as u64).sum()
    }

    /// Verify + decode one frame from `payload` (a candidate byte image of
    /// `frame`). `false` when the checksum, the decode, or the record count
    /// disagrees — i.e. the payload is damaged.
    fn try_decode(&self, frame: &SpillFrame, payload: &[u8], out: &mut Vec<T>) -> bool {
        if fnv64(payload) != frame.checksum {
            return false;
        }
        let before = out.len();
        match (self.decode)(self.kind, payload, out) {
            Ok(n) if n == frame.records as usize => true,
            _ => {
                out.truncate(before);
                false
            }
        }
    }

    /// Append the records of `frame` (one of this image's frames, belonging
    /// to partition `part`) to `out`. Survives injected read-back damage: a
    /// transient copy is damaged, the checksum detects it, the retry
    /// re-reads. Never panics — stored frames are pristine, so the pristine
    /// attempt always verifies.
    fn read_frame(
        &self,
        frame: &SpillFrame,
        part: usize,
        faults: Option<&ReadFaults>,
        out: &mut Vec<T>,
    ) {
        let _scope = alloc::scope(AllocTag::Spill);
        let mut attempt = 0u32;
        loop {
            let injected = faults
                .filter(|f| attempt <= f.max_retries)
                .and_then(|f| f.plan.decide(f.stage, part as u32, attempt, FaultSurface::SpillRead));
            let ok = match injected {
                Some(kind) => {
                    // gpf-lint: allow(spill-read-checksum): damaged copy
                    // goes straight into try_decode's fnv64 verify.
                    let mut copy = frame.payload_unverified().to_vec();
                    let salt =
                        faults.map(|f| f.plan.corruption_salt(f.stage, part as u32)).unwrap_or(0);
                    if kind == FaultKind::TruncateSpill {
                        copy.truncate((salt % copy.len().max(1) as u64) as usize);
                    } else {
                        corrupt_bit(&mut copy, salt);
                    }
                    // Unconditional like `record_fault_event`: this
                    // branch only runs under configured faults, and
                    // chaos tests read the counter without tracing on.
                    gpf_trace::counter(tn::FAULT_INJECTED).add(1);
                    self.try_decode(frame, &copy, out)
                }
                None => {
                    let payload = frame.payload_unverified();
                    debug_assert_eq!(fnv64(payload), frame.checksum);
                    self.try_decode(frame, payload, out)
                }
            };
            if ok {
                return;
            }
            attempt += 1;
            // Unconditional for the same reason as the injection
            // counter above: a frame only fails to verify under
            // injected damage.
            gpf_trace::counter(tn::TASK_RETRIES).add(1);
        }
    }
}

/// Read-side fault injection state for a budgeted store, captured at build
/// time from the engine's fault config.
struct ReadFaults {
    plan: FaultPlan,
    max_retries: u32,
    /// Stage the store was built in: the stage its read faults are keyed on.
    stage: u32,
}

/// One partition slot of a [`Store`].
enum Slot<T> {
    /// In memory. `image` is the partition's spill image when one already
    /// exists (the partition is *clean*): eviction may drop the data and
    /// re-read the image later.
    Resident { data: Arc<Vec<T>>, image: Option<Arc<SpillTicket<T>>> },
    /// Evicted (or never admitted): only the checksummed spill image
    /// exists. Only a budgeted store has spilled slots.
    Spilled(Arc<SpillTicket<T>>),
}

/// How a budgeted [`Store`] charges, spills and restores its partitions —
/// captured from the engine context where the element type is known to be
/// [`GpfSerialize`], so the store itself needs no such bound.
pub(crate) struct Policy<T> {
    acct: Arc<BudgetAccountant>,
    kind: SerializerKind,
    faults: Option<ReadFaults>,
    /// A partition's resident charge ([`GpfSerialize::resident_bytes`]).
    charge: fn(&Vec<T>) -> u64,
    /// Serializes a partition into its spill image.
    spill: fn(SerializerKind, &[T]) -> SpillTicket<T>,
}

impl<T: GpfSerialize> Policy<T> {
    /// The policy for stores built in `stage` under `acct`, with the fault
    /// plan and retry budget of the engine's fault config, if any.
    pub(crate) fn new(
        acct: Arc<BudgetAccountant>,
        kind: SerializerKind,
        stage: u32,
        faults: Option<(FaultPlan, u32)>,
    ) -> Self {
        Self {
            acct,
            kind,
            faults: faults.map(|(plan, max_retries)| ReadFaults { plan, max_retries, stage }),
            charge: |part| part.resident_bytes() as u64,
            spill: SpillTicket::write,
        }
    }
}

/// The budget part of a [`Store`]: its policy, each partition's charge and
/// the LRU clock.
struct Budget<T> {
    policy: Policy<T>,
    charges: Vec<u64>,
    /// Per-slot last-touch generation (LRU clock for victim selection).
    touch: Vec<AtomicU64>,
    clock: AtomicU64,
}

impl<T> Budget<T> {
    /// Serialize dirty partition `i` into its spill image.
    fn spill(&self, i: usize, data: &[T]) -> Arc<SpillTicket<T>> {
        note(tn::MEM_BUDGET_SPILLED, 1);
        note(tn::MEM_BUDGET_SPILLED_BYTES, self.charges[i]);
        Arc::new((self.policy.spill)(self.policy.kind, data))
    }

    fn touch(&self, i: usize) {
        // gpf-lint: allow(relaxed-ordering): the touch clock is a pure LRU
        // heuristic for victim ordering — a stale generation can only make
        // eviction pick a slightly different victim, never corrupt data
        // (slot state itself is guarded by the per-slot RwLock).
        let gen = self.clock.fetch_add(1, Ordering::Relaxed);
        // gpf-lint: allow(relaxed-ordering): same heuristic clock as above.
        self.touch[i].store(gen, Ordering::Relaxed);
    }
}

/// The partition store behind every `Dataset`: one slot per partition, the
/// per-partition record counts, and — only for stores built under a memory
/// budget — the budget part.
pub(crate) struct Store<T> {
    counts: Vec<usize>,
    slots: Vec<RwLock<Slot<T>>>,
    budget: Option<Budget<T>>,
}

impl<T: Send + Sync + 'static> Store<T> {
    /// Build a store from materialized partitions. Without a policy every
    /// partition stays resident and nothing is charged. With one, each
    /// partition's charge is admitted, and a partition whose charge cannot
    /// be admitted even after eviction is spilled on the spot instead of
    /// failing: building a store always succeeds under any budget.
    pub(crate) fn new(parts: Vec<Vec<T>>, policy: Option<Policy<T>>) -> Arc<Self> {
        let counts = parts.iter().map(Vec::len).collect();
        let budget = policy.map(|policy| Budget {
            charges: parts.iter().map(policy.charge).collect(),
            touch: parts.iter().map(|_| AtomicU64::new(0)).collect(),
            clock: AtomicU64::new(1),
            policy,
        });
        let slots = parts
            .into_iter()
            .enumerate()
            .map(|(i, data)| {
                RwLock::new(match &budget {
                    Some(b) if b.policy.acct.admit(b.charges[i]).is_err() => {
                        Slot::Spilled(b.spill(i, &data))
                    }
                    _ => Slot::Resident { data: Arc::new(data), image: None },
                })
            })
            .collect();
        let store = Arc::new(Self { counts, slots, budget });
        if let Some(b) = &store.budget {
            let weak: Weak<Self> = Arc::downgrade(&store);
            b.policy.acct.register(weak);
        }
        store
    }
}

impl<T> Store<T> {
    /// Number of partitions.
    pub(crate) fn num_parts(&self) -> usize {
        self.slots.len()
    }

    /// Record count of partition `i` (known without restoring).
    pub(crate) fn part_len(&self, i: usize) -> usize {
        self.counts[i]
    }

    /// Records across all partitions.
    pub(crate) fn total_len(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Whether a memory budget governs this store. Whole-partition work on
    /// a budgeted store runs one partition at a time (DESIGN.md §16c), so
    /// at most one restore is admitted at a time.
    pub(crate) fn budgeted(&self) -> bool {
        self.budget.is_some()
    }

    fn faults(&self) -> Option<&ReadFaults> {
        self.budget.as_ref()?.policy.faults.as_ref()
    }

    /// Touch slot `i` on the LRU clock and pin its records — or, when it
    /// is spilled, its spill image (`Err`). No slot lock is held afterwards.
    fn peek(&self, i: usize) -> Result<Arc<Vec<T>>, Arc<SpillTicket<T>>> {
        if let Some(b) = &self.budget {
            b.touch(i);
        }
        match &*self.slots[i].read() {
            Slot::Resident { data, .. } => Ok(Arc::clone(data)),
            Slot::Spilled(image) => Err(Arc::clone(image)),
        }
    }

    /// Decode partition `i`'s whole spill image without charging anything.
    fn decode(&self, image: &SpillTicket<T>, i: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(self.counts[i]);
        for frame in &image.frames {
            image.read_frame(frame, i, self.faults(), &mut out);
        }
        out
    }

    /// Partition `i`, restored and charged to the ledger if it was evicted.
    /// `Err((requested, budget))` only when admitting the restore is
    /// infeasible under the budget.
    pub(crate) fn get(&self, i: usize) -> Result<Arc<Vec<T>>, (u64, u64)> {
        let image = match self.peek(i) {
            Ok(data) => return Ok(data),
            Err(image) => image,
        };
        // Never hold a slot lock across admit(): its reclaim path
        // write-locks slots.
        let budget = self.budget.as_ref();
        let charge = budget.map_or(0, |b| b.charges[i]);
        budget.map_or(Ok(()), |b| b.policy.acct.admit(charge))?;
        let data = Arc::new(self.decode(&image, i));
        let mut slot = self.slots[i].write();
        if let Slot::Resident { data: winner, .. } = &*slot {
            // Lost a restore race: keep the winner's copy, refund ours.
            let winner = Arc::clone(winner);
            drop(slot);
            if let Some(b) = budget {
                b.policy.acct.credit(charge);
            }
            return Ok(winner);
        }
        note(tn::MEM_BUDGET_RESTORED, 1);
        note(tn::MEM_BUDGET_RESTORED_BYTES, charge);
        *slot = Slot::Resident { data: Arc::clone(&data), image: Some(image) };
        Ok(data)
    }

    /// Visit partition `i` chunk by chunk without materializing it: a
    /// resident partition is one chunk, a spilled one yields one spill
    /// frame at a time. Infallible — nothing is charged to the ledger.
    pub(crate) fn stream(&self, i: usize, f: &mut dyn FnMut(&[T])) {
        match self.peek(i) {
            Ok(data) => f(&data),
            Err(image) => {
                let mut chunk = Vec::new();
                for frame in &image.frames {
                    chunk.clear();
                    image.read_frame(frame, i, self.faults(), &mut chunk);
                    f(&chunk);
                }
            }
        }
    }

    /// Visit partition `i` whole without charging the ledger: in place when
    /// resident, through a transient decoded copy when spilled.
    pub(crate) fn with_whole<R>(&self, i: usize, f: impl FnOnce(&[T]) -> R) -> R {
        match self.peek(i) {
            Ok(data) => f(&data),
            Err(image) => f(&self.decode(&image, i)),
        }
    }

    /// Move partition `i` out, leaving its slot empty — only for a store
    /// the caller owns outright and consumes. The records are cloned only
    /// if a reader still pins them.
    pub(crate) fn take(&self, i: usize) -> Vec<T>
    where
        T: Clone,
    {
        let empty = Slot::Resident { data: Arc::default(), image: None };
        match std::mem::replace(&mut *self.slots[i].write(), empty) {
            Slot::Resident { data, .. } => Arc::unwrap_or_clone(data),
            Slot::Spilled(image) => self.decode(&image, i),
        }
    }

    /// Number of partitions currently evicted to spill images.
    pub(crate) fn spilled_partitions(&self) -> usize {
        self.slots.iter().filter(|s| matches!(&*s.read(), Slot::Spilled(_))).count()
    }

    /// Serialized bytes currently held in spill frames across all evicted
    /// partitions.
    pub(crate) fn spilled_bytes(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| match &*s.read() {
                Slot::Spilled(image) => image.spilled_bytes(),
                Slot::Resident { .. } => 0,
            })
            .sum()
    }
}

impl<T> Drop for Store<T> {
    /// A dropped budgeted store returns its resident charges to the ledger.
    /// Without this, dead stores pin ledger bytes no reclaim can ever
    /// find — their `Weak` registration has already expired — and the
    /// accountant slowly fills with ghost charges until any admit fails.
    fn drop(&mut self) {
        let Some(b) = &self.budget else { return };
        let resident: u64 = self
            .slots
            .iter()
            .zip(&b.charges)
            .filter(|(slot, _)| matches!(&*slot.read(), Slot::Resident { .. }))
            .map(|(_, charge)| charge)
            .sum();
        if resident > 0 {
            b.policy.acct.credit(resident);
        }
    }
}

impl<T: Send + Sync> Shed for Store<T> {
    fn shed(&self, need: u64) -> u64 {
        let Some(b) = &self.budget else { return 0 };
        // Victim order: least-recently-touched first.
        let mut order: Vec<(u64, usize)> = (0..self.slots.len())
            // gpf-lint: allow(relaxed-ordering): LRU heuristic read —
            // staleness only reorders victims; slot locks carry correctness.
            .map(|i| (b.touch[i].load(Ordering::Relaxed), i))
            .collect();
        order.sort_unstable();
        let mut freed = 0u64;
        for (_, i) in order {
            if freed >= need {
                break;
            }
            let mut slot = self.slots[i].write();
            let Slot::Resident { data, image } = &mut *slot else { continue };
            // An active reader (a live PartRef) pins the partition.
            if Arc::strong_count(data) > 1 {
                continue;
            }
            let image = match image.take() {
                // Clean: the spill image already exists — drop the data and
                // re-read the image later.
                Some(image) => {
                    note(tn::MEM_BUDGET_DROPPED_CLEAN, 1);
                    image
                }
                // Dirty: serialize a checksummed spill image first.
                None => b.spill(i, data),
            };
            *slot = Slot::Spilled(image);
            drop(slot);
            b.policy.acct.credit(b.charges[i]);
            freed += b.charges[i];
        }
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSite;

    fn store_with(
        budget: u64,
        parts: Vec<Vec<u64>>,
        faults: Option<(FaultPlan, u32)>,
    ) -> (Arc<BudgetAccountant>, Arc<Store<u64>>) {
        let acct = Arc::new(BudgetAccountant::new(budget));
        let policy = Policy::new(Arc::clone(&acct), SerializerKind::Gpf, 0, faults);
        (acct, Store::new(parts, Some(policy)))
    }

    #[test]
    fn unlimited_budget_keeps_everything_resident() {
        let parts: Vec<Vec<u64>> = (0..4).map(|p| (0..100).map(|i| p * 1000 + i).collect()).collect();
        let (acct, store) = store_with(u64::MAX, parts.clone(), None);
        assert_eq!(store.spilled_partitions(), 0);
        for (i, want) in parts.iter().enumerate() {
            assert_eq!(&*store.get(i).unwrap(), want);
        }
        assert_eq!(acct.used(), acct.peak());
        assert!(acct.used() > 0);
    }

    #[test]
    fn tight_budget_spills_then_restores_byte_identically() {
        let parts: Vec<Vec<u64>> = (0..8).map(|p| (0..500).map(|i| p * 10_000 + i).collect()).collect();
        let one = parts[0].resident_bytes() as u64;
        // Room for ~2 partitions: building 8 must evict, not fail.
        let (acct, store) = store_with(one * 2 + 64, parts.clone(), None);
        assert!(store.spilled_partitions() > 0, "tight budget must spill");
        for (i, want) in parts.iter().enumerate() {
            assert_eq!(&*store.get(i).unwrap(), want, "partition {i}");
        }
        assert!(acct.peak() <= acct.budget(), "ledger peak may never pass the budget");
    }

    #[test]
    fn streaming_visits_all_records_without_admitting() {
        let parts: Vec<Vec<u64>> = vec![(0..5000).collect()];
        let one = parts[0].resident_bytes() as u64;
        // Budget below one partition: the slot starts (and stays) spilled.
        let (acct, store) = store_with(one / 2, parts.clone(), None);
        assert_eq!(store.spilled_partitions(), 1);
        let used_before = acct.used();
        let mut seen = Vec::new();
        let mut chunks = 0usize;
        store.stream(0, &mut |chunk| {
            chunks += 1;
            assert!(chunk.len() <= FRAME_RECORDS);
            seen.extend_from_slice(chunk);
        });
        assert_eq!(seen, parts[0]);
        assert!(chunks > 1, "5000 records must stream in multiple frames");
        assert_eq!(acct.used(), used_before, "streaming must not charge the ledger");
        assert_eq!(store.spilled_partitions(), 1, "streaming must not restore the slot");
    }

    #[test]
    fn infeasible_restore_surfaces_requested_and_budget() {
        let parts: Vec<Vec<u64>> = vec![(0..5000).collect()];
        let one = parts[0].resident_bytes() as u64;
        let (_acct, store) = store_with(one / 2, parts, None);
        let err = store.get(0).unwrap_err();
        assert_eq!(err, (one, one / 2));
    }

    #[test]
    fn injected_read_damage_is_detected_and_retried() {
        let parts: Vec<Vec<u64>> = vec![(0..3000).collect()];
        let one = parts[0].resident_bytes() as u64;
        // Explicit read faults on attempts 0 and 1; attempt 2 reads clean.
        let plan = FaultPlan::explicit(vec![
            FaultSite { stage: 0, partition: 0, attempt: 0, kind: FaultKind::CorruptSpillRead },
            FaultSite { stage: 0, partition: 0, attempt: 1, kind: FaultKind::TruncateSpill },
        ]);
        let (_acct, store) = store_with(one / 2, parts.clone(), Some((plan, 3)));
        let mut seen = Vec::new();
        store.stream(0, &mut |chunk| seen.extend_from_slice(chunk));
        assert_eq!(seen, parts[0], "damaged read-backs must recover byte-identically");
    }

    #[test]
    fn eviction_prefers_clean_partitions() {
        let parts: Vec<Vec<u64>> = (0..4).map(|p| (0..400).map(|i| p * 7 + i).collect()).collect();
        let one = parts[0].resident_bytes() as u64;
        let (acct, store) = store_with(one * 3 + 64, parts, None);
        // Restore everything once so some slots carry clean tickets, then
        // force an eviction pass via a fresh over-budget charge.
        for i in 0..4 {
            // gpf-lint: allow(swallowed-error): warming the LRU clock; a
            // restore failure would fail the assertions below anyway.
            let _ = store.get(i);
        }
        assert!(acct.admit(one * 2).is_ok(), "eviction must make room");
        acct.credit(one * 2);
        assert!(store.spilled_partitions() > 0);
    }

    #[test]
    fn breach_notes_counter_and_errors() {
        let acct = BudgetAccountant::new(100);
        assert!(acct.admit(40).is_ok());
        assert_eq!(acct.admit(100).unwrap_err(), (100, 100));
        assert_eq!(acct.used(), 40);
        assert_eq!(acct.peak(), 40);
    }
}
