//! Memory-budget accountant, LRU eviction policy, and the evictable
//! partition store behind [`crate::Dataset`]'s tracked mode.
//!
//! Rosalind's O(√t) idea: cap peak resident bytes regardless of input
//! size by trading memory for spill IO. The
//! [`BudgetAccountant`] is a single ledger of exactly-accounted resident
//! partition bytes (via [`GpfSerialize::resident_bytes`]); every partition
//! materialization *admits* its charge, and when a charge would breach the
//! budget the accountant reclaims from registered [`TrackedStore`]s —
//! oldest-touched victims first — before giving up.
//!
//! Eviction walks victims least-recently-touched first, skipping any
//! partition a live reader pins, and treats each by whether its spill
//! image already exists:
//!
//! * a **clean** resident partition (its spill ticket already exists)
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
//! bounded retry re-reads pristine bytes: a tracked-store read never
//! panics and never returns corrupt data. The only way a read fails is a
//! genuinely infeasible budget (restoring one partition alone breaches),
//! which surfaces as a structured [`BudgetBreach`].
//!
//! [c1]: gpf_trace::names::MEM_BUDGET_DROPPED_CLEAN
//! [c2]: gpf_trace::names::MEM_BUDGET_SPILLED

use crate::dataset::fnv64;
use crate::fault::{corrupt_bit, FaultKind, FaultPlan, FaultSurface};
use gpf_compress::serializer::{
    deserialize_batch_into, serialize_batch, GpfSerialize, SerializerKind,
};
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

    /// Register an evictable store as a reclaim source. Held weakly: a
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

/// The spill image of one partition: checksummed frames plus the
/// serializer that wrote them.
pub(crate) struct SpillTicket {
    frames: Vec<SpillFrame>,
    kind: SerializerKind,
}

impl SpillTicket {
    /// Serialize `data` into checksummed frames.
    fn write<T: GpfSerialize>(kind: SerializerKind, data: &[T]) -> Self {
        let _scope = alloc::scope(AllocTag::Spill);
        let mut frames = Vec::with_capacity(data.len().div_ceil(FRAME_RECORDS).max(1));
        if data.is_empty() {
            return Self { frames, kind };
        }
        for chunk in data.chunks(FRAME_RECORDS) {
            let bytes = serialize_batch(kind, chunk);
            let checksum = fnv64(&bytes);
            frames.push(SpillFrame { bytes, records: chunk.len() as u32, checksum });
        }
        Self { frames, kind }
    }

    /// Serialized size across all frames.
    pub(crate) fn spilled_bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.bytes.len() as u64).sum()
    }
}

/// Verify + decode one frame from `payload` (a candidate byte image of
/// `frame`). `None` when the checksum, the decode, or the record count
/// disagrees — i.e. the payload is damaged.
fn try_decode_frame<T: GpfSerialize>(
    kind: SerializerKind,
    frame: &SpillFrame,
    payload: &[u8],
    out: &mut Vec<T>,
) -> bool {
    if fnv64(payload) != frame.checksum {
        return false;
    }
    let before = out.len();
    match deserialize_batch_into(kind, payload, out) {
        Ok(n) if n == frame.records as usize => true,
        _ => {
            out.truncate(before);
            false
        }
    }
}

/// Read-side fault injection state for a tracked store, captured at build
/// time from the engine's fault config.
#[derive(Clone)]
struct ReadFaults {
    plan: FaultPlan,
    max_retries: u32,
}

/// One partition slot of a [`TrackedStore`].
enum Slot<T> {
    /// Materialized in memory, charged to the ledger. `ticket` present
    /// means the spill image already exists (the partition is *clean*):
    /// eviction may drop the data and recompute it by re-reading.
    Resident { data: Arc<Vec<T>>, bytes: u64, ticket: Option<Arc<SpillTicket>> },
    /// Evicted (or never admitted): only the checksummed spill image
    /// exists. `bytes` is the resident charge a restore will admit.
    Spilled { ticket: Arc<SpillTicket>, bytes: u64 },
}

/// Type-erased view of a [`TrackedStore`] used by `Dataset`'s `Parts`
/// enum, so datasets of non-serializable element types can still carry
/// the (always-plain) variant without a `GpfSerialize` bound.
pub(crate) trait TrackedParts<T>: Send + Sync {
    /// Number of partitions.
    fn num_parts(&self) -> usize;
    /// Record count of partition `i` (known without restoring).
    fn part_len(&self, i: usize) -> usize;
    /// Restore partition `i` fully resident. `Err((requested, budget))`
    /// only when admitting its charge is infeasible.
    fn read(&self, i: usize) -> Result<Arc<Vec<T>>, (u64, u64)>;
    /// Stream partition `i` chunk-by-chunk without materializing it:
    /// resident slots yield one chunk, spilled slots one per frame.
    fn stream(&self, i: usize, f: &mut dyn FnMut(&[T]));
    /// Whether partition `i` is currently evicted (test/bench visibility).
    fn is_spilled(&self, i: usize) -> bool;
    /// Serialized bytes currently held in spill frames across all evicted
    /// partitions (test/bench visibility).
    fn spilled_bytes(&self) -> u64;
}

/// An evictable partition store: the tracked backing of a `Dataset`.
pub(crate) struct TrackedStore<T> {
    kind: SerializerKind,
    stage: u32,
    acct: Arc<BudgetAccountant>,
    faults: Option<ReadFaults>,
    counts: Vec<usize>,
    slots: Vec<RwLock<Slot<T>>>,
    /// Per-slot last-touch generation (LRU clock for victim selection).
    touch: Vec<AtomicU64>,
    clock: AtomicU64,
}

impl<T: GpfSerialize + Send + Sync + 'static> TrackedStore<T> {
    /// Build a store from materialized partitions, admitting each
    /// partition's charge. A partition whose charge cannot be admitted
    /// even after eviction is spilled on the spot instead of failing:
    /// dataset *creation* always succeeds under any budget.
    pub(crate) fn build(
        parts: Vec<Vec<T>>,
        kind: SerializerKind,
        stage: u32,
        acct: Arc<BudgetAccountant>,
        faults: Option<(FaultPlan, u32)>,
    ) -> Arc<Self> {
        let faults = faults.map(|(plan, max_retries)| ReadFaults { plan, max_retries });
        let counts: Vec<usize> = parts.iter().map(Vec::len).collect();
        let n = parts.len();
        let mut slots = Vec::with_capacity(n);
        for part in parts {
            let bytes = part.resident_bytes() as u64;
            let slot = match acct.admit(bytes) {
                Ok(()) => Slot::Resident { data: Arc::new(part), bytes, ticket: None },
                Err(_) => {
                    let ticket = Arc::new(SpillTicket::write(kind, &part));
                    note(tn::MEM_BUDGET_SPILLED, 1);
                    note(tn::MEM_BUDGET_SPILLED_BYTES, bytes);
                    Slot::Spilled { ticket, bytes }
                }
            };
            slots.push(RwLock::new(slot));
        }
        let store = Arc::new(Self {
            kind,
            stage,
            acct: Arc::clone(&acct),
            faults,
            counts,
            slots,
            touch: (0..n).map(|_| AtomicU64::new(0)).collect(),
            clock: AtomicU64::new(1),
        });
        let weak: Weak<dyn Shed> = {
            let w: Weak<Self> = Arc::downgrade(&store);
            w
        };
        acct.register(weak);
        store
    }

    fn touch_slot(&self, i: usize) {
        // gpf-lint: allow(relaxed-ordering): the touch clock is a pure LRU
        // heuristic for victim ordering — a stale generation can only make
        // eviction pick a slightly different victim, never corrupt data
        // (slot state itself is guarded by the per-slot RwLock).
        let gen = self.clock.fetch_add(1, Ordering::Relaxed);
        // gpf-lint: allow(relaxed-ordering): same heuristic clock as above.
        self.touch[i].store(gen, Ordering::Relaxed);
    }
}

impl<T: GpfSerialize + Send + Sync + 'static> TrackedParts<T> for TrackedStore<T> {
    fn num_parts(&self) -> usize {
        self.slots.len()
    }

    fn part_len(&self, i: usize) -> usize {
        self.counts[i]
    }

    fn read(&self, i: usize) -> Result<Arc<Vec<T>>, (u64, u64)> {
        self.touch_slot(i);
        // Snapshot under a read lock; never hold any slot lock across
        // admit() (its reclaim path write-locks slots).
        let (ticket, bytes) = {
            let slot = self.slots[i].read();
            match &*slot {
                Slot::Resident { data, .. } => return Ok(Arc::clone(data)),
                Slot::Spilled { ticket, bytes } => (Arc::clone(ticket), *bytes),
            }
        };
        self.acct.admit(bytes)?;
        let mut out = Vec::with_capacity(self.counts[i]);
        TicketFrames { frames: &ticket.frames, kind: ticket.kind }.decode_all(
            self.stage,
            i,
            self.faults.as_ref(),
            &mut out,
        );
        let data = Arc::new(out);
        let mut slot = self.slots[i].write();
        match &*slot {
            // Lost a restore race: keep the winner's copy, refund ours.
            Slot::Resident { data: winner, .. } => {
                let winner = Arc::clone(winner);
                drop(slot);
                self.acct.credit(bytes);
                Ok(winner)
            }
            Slot::Spilled { .. } => {
                note(tn::MEM_BUDGET_RESTORED, 1);
                note(tn::MEM_BUDGET_RESTORED_BYTES, bytes);
                *slot = Slot::Resident { data: Arc::clone(&data), bytes, ticket: Some(ticket) };
                Ok(data)
            }
        }
    }

    fn stream(&self, i: usize, f: &mut dyn FnMut(&[T])) {
        self.touch_slot(i);
        let ticket = {
            let slot = self.slots[i].read();
            match &*slot {
                Slot::Resident { data, .. } => {
                    // Already paid for — one chunk, zero extra footprint.
                    let data = Arc::clone(data);
                    drop(slot);
                    f(&data);
                    return;
                }
                Slot::Spilled { ticket, .. } => Arc::clone(ticket),
            }
        };
        // Decode frame-by-frame: transient footprint is one frame, not the
        // partition, and nothing is charged to the ledger.
        let mut chunk: Vec<T> = Vec::new();
        for frame in &ticket.frames {
            chunk.clear();
            TicketFrames { frames: std::slice::from_ref(frame), kind: ticket.kind }
                .decode_all(self.stage, i, self.faults.as_ref(), &mut chunk);
            f(&chunk);
        }
    }

    fn is_spilled(&self, i: usize) -> bool {
        matches!(&*self.slots[i].read(), Slot::Spilled { .. })
    }

    fn spilled_bytes(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| match &*s.read() {
                Slot::Spilled { ticket, .. } => ticket.spilled_bytes(),
                Slot::Resident { .. } => 0,
            })
            .sum()
    }
}

/// Borrowed-frame decoder shared by the full-restore and chunked-streaming
/// paths: verifies each frame's checksum, survives injected read-back
/// damage (a transient copy is damaged, the checksum detects it, the retry
/// re-reads), and never panics — stored frames are pristine, so the
/// pristine attempt always verifies.
struct TicketFrames<'a> {
    frames: &'a [SpillFrame],
    kind: SerializerKind,
}

impl TicketFrames<'_> {
    fn decode_all<T: GpfSerialize>(
        &self,
        stage: u32,
        part: usize,
        faults: Option<&ReadFaults>,
        out: &mut Vec<T>,
    ) {
        let _scope = alloc::scope(AllocTag::Spill);
        for frame in self.frames {
            let mut attempt = 0u32;
            loop {
                let injected = faults.and_then(|f| {
                    if attempt <= f.max_retries {
                        f.plan.decide(stage, part as u32, attempt, FaultSurface::SpillRead)
                    } else {
                        None
                    }
                });
                let ok = match injected {
                    Some(kind) => {
                        // gpf-lint: allow(spill-read-checksum): damaged copy
                        // goes straight into try_decode_frame's fnv64 verify.
                        let mut copy = frame.payload_unverified().to_vec();
                        let salt = faults
                            .map(|f| f.plan.corruption_salt(stage, part as u32))
                            .unwrap_or(0);
                        match kind {
                            FaultKind::TruncateSpill => {
                                let keep = (salt % copy.len().max(1) as u64) as usize;
                                copy.truncate(keep);
                            }
                            _ => {
                                corrupt_bit(&mut copy, salt);
                            }
                        }
                        // Unconditional like `record_fault_event`: this
                        // branch only runs under configured faults, and
                        // chaos tests read the counter without tracing on.
                        gpf_trace::counter(tn::FAULT_INJECTED).add(1);
                        try_decode_frame(self.kind, frame, &copy, out)
                    }
                    None => {
                        let payload = frame.payload_unverified();
                        debug_assert_eq!(fnv64(payload), frame.checksum);
                        try_decode_frame(self.kind, frame, payload, out)
                    }
                };
                if ok {
                    break;
                }
                attempt += 1;
                // Unconditional for the same reason as the injection
                // counter above: a frame only fails to verify under
                // injected damage.
                gpf_trace::counter(tn::TASK_RETRIES).add(1);
            }
        }
    }
}

impl<T> Drop for TrackedStore<T> {
    /// A dropped dataset returns its resident charges to the ledger.
    /// Without this, dead stores pin ledger bytes no reclaim can ever
    /// find — their `Weak` registration has already expired — and the
    /// accountant slowly fills with ghost charges until any admit fails.
    fn drop(&mut self) {
        let mut resident = 0u64;
        for slot in &self.slots {
            if let Slot::Resident { bytes, .. } = &*slot.read() {
                resident += *bytes;
            }
        }
        if resident > 0 {
            self.acct.credit(resident);
        }
    }
}

impl<T: GpfSerialize + Send + Sync + 'static> Shed for TrackedStore<T> {
    fn shed(&self, need: u64) -> u64 {
        // Victim order: least-recently-touched first.
        let mut order: Vec<(u64, usize)> = (0..self.slots.len())
            // gpf-lint: allow(relaxed-ordering): LRU heuristic read —
            // staleness only reorders victims; slot locks carry correctness.
            .map(|i| (self.touch[i].load(Ordering::Relaxed), i))
            .collect();
        order.sort_unstable();
        let mut freed = 0u64;
        for (_, i) in order {
            if freed >= need {
                break;
            }
            let mut slot = self.slots[i].write();
            if let Slot::Resident { data, bytes, ticket } = &mut *slot {
                // An active reader (a live PartRef) pins the partition.
                if Arc::strong_count(data) > 1 {
                    continue;
                }
                let bytes = *bytes;
                let ticket = match ticket.take() {
                    // Clean: the spill image already exists — cheap
                    // lineage, drop and re-read later.
                    Some(t) => {
                        note(tn::MEM_BUDGET_DROPPED_CLEAN, 1);
                        t
                    }
                    // Dirty: expensive lineage — serialize a checksummed
                    // spill image first.
                    None => {
                        let t = Arc::new(SpillTicket::write(self.kind, data));
                        note(tn::MEM_BUDGET_SPILLED, 1);
                        note(tn::MEM_BUDGET_SPILLED_BYTES, bytes);
                        t
                    }
                };
                *slot = Slot::Spilled { ticket, bytes };
                drop(slot);
                self.acct.credit(bytes);
                freed += bytes;
            }
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
    ) -> (Arc<BudgetAccountant>, Arc<TrackedStore<u64>>) {
        let acct = Arc::new(BudgetAccountant::new(budget));
        let store =
            TrackedStore::build(parts, SerializerKind::Gpf, 0, Arc::clone(&acct), faults);
        (acct, store)
    }

    #[test]
    fn unlimited_budget_keeps_everything_resident() {
        let parts: Vec<Vec<u64>> = (0..4).map(|p| (0..100).map(|i| p * 1000 + i).collect()).collect();
        let (acct, store) = store_with(u64::MAX, parts.clone(), None);
        for (i, want) in parts.iter().enumerate() {
            assert!(!store.is_spilled(i));
            assert_eq!(&*store.read(i).unwrap(), want);
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
        assert!((0..8).any(|i| store.is_spilled(i)), "tight budget must spill");
        for (i, want) in parts.iter().enumerate() {
            assert_eq!(&*store.read(i).unwrap(), want, "partition {i}");
        }
        assert!(acct.peak() <= acct.budget(), "ledger peak may never pass the budget");
    }

    #[test]
    fn streaming_visits_all_records_without_admitting() {
        let parts: Vec<Vec<u64>> = vec![(0..5000).collect()];
        let one = parts[0].resident_bytes() as u64;
        // Budget below one partition: the slot starts (and stays) spilled.
        let (acct, store) = store_with(one / 2, parts.clone(), None);
        assert!(store.is_spilled(0));
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
        assert!(store.is_spilled(0), "streaming must not restore the slot");
    }

    #[test]
    fn infeasible_restore_surfaces_requested_and_budget() {
        let parts: Vec<Vec<u64>> = vec![(0..5000).collect()];
        let one = parts[0].resident_bytes() as u64;
        let (_acct, store) = store_with(one / 2, parts, None);
        let err = store.read(0).unwrap_err();
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
            let _ = store.read(i);
        }
        assert!(acct.admit(one * 2).is_ok(), "eviction must make room");
        acct.credit(one * 2);
        assert!((0..4).any(|i| store.is_spilled(i)));
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
