//! Dynamic RDD partitioning (§4.4 of the paper).
//!
//! Sequencing coverage is uneven — pileups beyond 10 000× occur inside a 50×
//! dataset — so partitioning the genome into equal-length chunks causes load
//! imbalance (and in Spark, executor OOM). GPF's answer:
//!
//! 1. a base [`PartitionInfo`] maps a position to a partition id through
//!    per-contig tables — *number of partitions per contig* and *starting
//!    partition id per contig* (Figure 8): `id = start[contig] + pos / len`;
//! 2. read counts per partition are gathered (a reduce + collect to the
//!    driver), and partitions exceeding a threshold are **split** through a
//!    split table (Figure 9): `final = split_start + offset/(len/count)`.

use gpf_compress::{ByteReader, ByteWriter, CodecError, GpfSerialize};
use gpf_formats::{GenomeInterval, GenomePosition};
use std::collections::HashMap;

/// One split-table entry (Figure 9's "Partition Split Table" row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitEntry {
    /// How many pieces the partition was split into.
    pub split_count: u32,
    /// First final partition id of the pieces.
    pub start_id: u32,
}

/// Maximum pieces one base partition may split into. Bounds the final
/// partition count against a degenerate count distribution (one partition
/// holding nearly every read would otherwise explode the task count);
/// [`SplitStats::cap_hits`] reports when the bound actually binds.
pub const MAX_SPLIT_PIECES: u32 = 64;

/// Statistics of one [`PartitionInfo::with_splits_stats`] rebalance
/// decision — what the engine's `repartition.*` trace counters and the
/// skew-bench report surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SplitStats {
    /// Base partitions that were split.
    pub splits: u32,
    /// Records living in split partitions (the reads whose partition id
    /// changes relative to the base layout).
    pub moved_records: u64,
    /// Partitions whose needed piece count exceeded [`MAX_SPLIT_PIECES`]
    /// and were truncated to it — a partition this hot stays overloaded
    /// even after splitting, so the cap firing silently would hide the
    /// exact stragglers splitting exists to remove.
    pub cap_hits: u32,
    /// Largest piece count any partition asked for before capping.
    pub max_pieces_requested: u64,
    /// Underfull base partitions that were *merged* into shared final
    /// partitions by [`PartitionInfo::with_splits_merges_stats`] — the sum
    /// of merge-run lengths over runs of two or more. Always 0 from the
    /// split-only [`PartitionInfo::with_splits_stats`].
    pub merged: u32,
}

/// The position → partition-id map.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionInfo {
    /// Genomic length of one base partition (the paper's 1 Mbp).
    pub partition_len: u64,
    /// Number of base partitions in each contig (Figure 8, first table).
    pub contig_num_partitions: Vec<u32>,
    /// Starting base-partition id of each contig (Figure 8, second table).
    pub contig_start_id: Vec<u32>,
    /// Split table: base partition id → entry (empty before splitting).
    pub splits: HashMap<u32, SplitEntry>,
    /// Final id of each *unsplit* base partition (renumbered to make final
    /// ids dense).
    final_id_of_base: Vec<u32>,
    /// Total number of final partitions.
    total_final: u32,
    /// Contig lengths (for interval reconstruction).
    contig_lengths: Vec<u64>,
}

impl PartitionInfo {
    /// Equal-length base partitioning of a genome.
    pub fn new(contig_lengths: &[u64], partition_len: u64) -> Self {
        assert!(partition_len > 0, "partition length must be positive");
        let contig_num_partitions: Vec<u32> =
            contig_lengths.iter().map(|&l| l.div_ceil(partition_len).max(1) as u32).collect();
        let mut contig_start_id = Vec::with_capacity(contig_lengths.len());
        let mut acc = 0u32;
        for &n in &contig_num_partitions {
            contig_start_id.push(acc);
            acc += n;
        }
        let final_id_of_base: Vec<u32> = (0..acc).collect();
        Self {
            partition_len,
            contig_num_partitions,
            contig_start_id,
            splits: HashMap::new(),
            final_id_of_base,
            total_final: acc,
            contig_lengths: contig_lengths.to_vec(),
        }
    }

    /// Number of base (pre-split) partitions.
    pub fn num_base_partitions(&self) -> u32 {
        self.final_id_of_base.len() as u32
    }

    /// Number of final partitions (after splits).
    pub fn num_partitions(&self) -> u32 {
        self.total_final
    }

    /// Figure 8: base partition id of a position.
    ///
    /// # Panics
    /// Panics when the contig id is out of range.
    pub fn base_partition_id(&self, pos: GenomePosition) -> u32 {
        let base = self.contig_start_id[pos.contig as usize];
        let offset = (pos.pos / self.partition_len) as u32;
        debug_assert!(offset < self.contig_num_partitions[pos.contig as usize]);
        base + offset
    }

    /// Figure 9: final partition id of a position (split table applied).
    pub fn partition_id(&self, pos: GenomePosition) -> u32 {
        let base = self.base_partition_id(pos);
        match self.splits.get(&base) {
            None => self.final_id_of_base[base as usize],
            Some(entry) => {
                let piece_len = (self.partition_len / entry.split_count as u64).max(1);
                let offset_in_partition = pos.pos % self.partition_len;
                let piece = ((offset_in_partition / piece_len) as u32).min(entry.split_count - 1);
                entry.start_id + piece
            }
        }
    }

    /// Split every partition whose read count exceeds `threshold` into
    /// `ceil(count / threshold)` pieces, renumbering final ids densely.
    ///
    /// `counts` are `(base partition id, reads)` pairs as returned by the
    /// driver's reduce (absent ids count 0).
    pub fn with_splits(&self, counts: &[(u32, u64)], threshold: u64) -> Self {
        self.with_splits_stats(counts, threshold).0
    }

    /// [`PartitionInfo::with_splits`] plus the decision's [`SplitStats`].
    ///
    /// The stats are what makes the [`MAX_SPLIT_PIECES`] cap observable:
    /// callers feed them into the `repartition.splits` /
    /// `repartition.moved_records` / `repartition.cap_hit` trace counters
    /// instead of truncating silently.
    pub fn with_splits_stats(&self, counts: &[(u32, u64)], threshold: u64) -> (Self, SplitStats) {
        assert!(threshold > 0);
        let n_base = self.num_base_partitions();
        let mut split_count = vec![1u32; n_base as usize];
        let mut stats = SplitStats::default();
        for &(id, count) in counts {
            if (id as usize) < split_count.len() && count > threshold {
                let need = count.div_ceil(threshold);
                stats.max_pieces_requested = stats.max_pieces_requested.max(need);
                if need > MAX_SPLIT_PIECES as u64 {
                    stats.cap_hits += 1;
                }
                split_count[id as usize] = need.min(MAX_SPLIT_PIECES as u64) as u32;
                stats.splits += 1;
                stats.moved_records += count;
            }
        }
        let mut out = self.clone();
        out.splits.clear();
        let mut next = 0u32;
        for (id, &sc) in split_count.iter().enumerate() {
            if sc > 1 {
                out.splits.insert(id as u32, SplitEntry { split_count: sc, start_id: next });
            }
            out.final_id_of_base[id] = next;
            next += sc;
        }
        out.total_final = next;
        (out, stats)
    }

    /// [`PartitionInfo::with_splits_stats`] plus *piece-aware merging* of
    /// underfull partitions: after hot partitions are split, runs of
    /// consecutive unsplit base partitions **within one contig** whose
    /// combined read count stays at or under `threshold` collapse into one
    /// shared final partition. Splitting removes stragglers; merging removes
    /// the opposite pathology — hundreds of near-empty tasks whose per-task
    /// overhead dominates — without ever creating a partition hotter than
    /// the split threshold. [`SplitStats::merged`] counts the base
    /// partitions absorbed into shared ids.
    pub fn with_splits_merges_stats(
        &self,
        counts: &[(u32, u64)],
        threshold: u64,
    ) -> (Self, SplitStats) {
        assert!(threshold > 0);
        let n_base = self.num_base_partitions() as usize;
        let mut count_of = vec![0u64; n_base];
        for &(id, c) in counts {
            if (id as usize) < n_base {
                count_of[id as usize] += c;
            }
        }
        let mut split_count = vec![1u32; n_base];
        let mut stats = SplitStats::default();
        for (id, &count) in count_of.iter().enumerate() {
            if count > threshold {
                let need = count.div_ceil(threshold);
                stats.max_pieces_requested = stats.max_pieces_requested.max(need);
                if need > MAX_SPLIT_PIECES as u64 {
                    stats.cap_hits += 1;
                }
                split_count[id] = need.min(MAX_SPLIT_PIECES as u64) as u32;
                stats.splits += 1;
                stats.moved_records += count;
            }
        }
        let mut out = self.clone();
        out.splits.clear();
        for (id, &sc) in split_count.iter().enumerate() {
            if sc > 1 {
                // start_id is assigned by rebuild_final_ids below.
                out.splits.insert(id as u32, SplitEntry { split_count: sc, start_id: 0 });
            }
        }
        // Greedy merge pass: extend each run while the next base partition
        // is unsplit, lives in the same contig (a merged final partition
        // must cover one contiguous genomic interval), and fits under the
        // threshold.
        let mut merge_run_len = vec![1u32; n_base];
        let mut i = 0usize;
        while i < n_base {
            if split_count[i] > 1 {
                i += 1;
                continue;
            }
            let contig = self.contig_of_base(i as u32);
            let mut j = i;
            let mut acc = 0u64;
            while j < n_base
                && split_count[j] == 1
                && self.contig_of_base(j as u32) == contig
                && acc + count_of[j] <= threshold
            {
                acc += count_of[j];
                j += 1;
            }
            let j = j.max(i + 1);
            if j - i > 1 {
                merge_run_len[i] = (j - i) as u32;
                stats.merged += (j - i) as u32;
            }
            i = j;
        }
        out.rebuild_final_ids(&merge_run_len);
        (out, stats)
    }

    /// Recompute dense final ids from the split table plus merge-run
    /// lengths (`merge_run_len[i] = k > 1` starts a k-base merged run at
    /// base `i`; all other entries are 1). Split entries get their
    /// `start_id` assigned here.
    fn rebuild_final_ids(&mut self, merge_run_len: &[u32]) {
        let n = self.final_id_of_base.len();
        let mut next = 0u32;
        let mut i = 0usize;
        while i < n {
            if let Some(e) = self.splits.get_mut(&(i as u32)) {
                e.start_id = next;
                self.final_id_of_base[i] = next;
                next += e.split_count;
                i += 1;
            } else {
                let k = (merge_run_len[i].max(1) as usize).min(n - i);
                for fid in &mut self.final_id_of_base[i..i + k] {
                    *fid = next;
                }
                next += 1;
                i += k;
            }
        }
        self.total_final = next;
    }

    /// Contig index owning a base partition id.
    fn contig_of_base(&self, base_id: u32) -> usize {
        self.contig_start_id.partition_point(|&s| s <= base_id).saturating_sub(1)
    }

    /// Final partition ids owned by a base partition — a one-element range
    /// when the partition is unsplit, `split_count` consecutive ids when
    /// split. Lets callers reconstruct the base layout from a split one
    /// (the split-vs-unsplit differential tests group outputs this way).
    ///
    /// # Panics
    /// Panics when `base_id` is out of range.
    pub fn final_range_of_base(&self, base_id: u32) -> std::ops::Range<u32> {
        let start = self.final_id_of_base[base_id as usize];
        let pieces = self.splits.get(&base_id).map(|e| e.split_count).unwrap_or(1);
        start..start + pieces
    }

    /// The genomic interval of a *base* partition id.
    pub fn base_partition_interval(&self, base_id: u32) -> GenomeInterval {
        let contig = self.contig_of_base(base_id);
        let within = base_id - self.contig_start_id[contig];
        let start = within as u64 * self.partition_len;
        let end = (start + self.partition_len).min(self.contig_lengths[contig]);
        GenomeInterval::new(contig as u32, start, end)
    }

    /// The genomic interval of a *final* partition id.
    pub fn partition_interval(&self, final_id: u32) -> GenomeInterval {
        // Locate the owning base partition: the last base whose final id is
        // ≤ final_id.
        let base = self
            .final_id_of_base
            .partition_point(|&f| f <= final_id)
            .saturating_sub(1) as u32;
        let iv = self.base_partition_interval(base);
        match self.splits.get(&base) {
            None => {
                // A merged final partition is shared by a contiguous run of
                // base partitions; span from the run's first member to its
                // last. (Unmerged ids: lo == base and this is just `iv`.)
                let lo = self.final_id_of_base.partition_point(|&f| f < final_id) as u32;
                if lo == base {
                    iv
                } else {
                    let iv_lo = self.base_partition_interval(lo);
                    GenomeInterval::new(iv_lo.contig, iv_lo.start, iv.end)
                }
            }
            Some(entry) => {
                let piece = final_id - entry.start_id;
                let piece_len = (self.partition_len / entry.split_count as u64).max(1);
                let start = iv.start + piece as u64 * piece_len;
                let end = if piece + 1 == entry.split_count {
                    iv.end
                } else {
                    (start + piece_len).min(iv.end)
                };
                GenomeInterval::new(iv.contig, start.min(iv.end), end)
            }
        }
    }

    /// All final partition intervals, in id order.
    pub fn intervals(&self) -> Vec<GenomeInterval> {
        (0..self.total_final).map(|id| self.partition_interval(id)).collect()
    }
}

impl GpfSerialize for PartitionInfo {
    fn write(&self, w: &mut ByteWriter) {
        w.write_u64(self.partition_len);
        self.contig_lengths.write(w);
        let mut splits: Vec<(u32, u32, u32)> =
            self.splits.iter().map(|(&k, e)| (k, e.split_count, e.start_id)).collect();
        splits.sort();
        w.write_u64(splits.len() as u64);
        for (k, sc, sid) in splits {
            w.write_u32(k);
            w.write_u32(sc);
            w.write_u32(sid);
        }
        // Merge runs, derived from shared final ids: consecutive base
        // partitions with equal final ids were merged (splits always own
        // distinct ids, so equality only arises from merging).
        let fids = &self.final_id_of_base;
        let mut runs: Vec<(u32, u32)> = Vec::new();
        let mut i = 0usize;
        while i < fids.len() {
            let mut j = i + 1;
            while j < fids.len() && fids[j] == fids[i] {
                j += 1;
            }
            if j - i > 1 {
                runs.push((i as u32, (j - i) as u32));
            }
            i = j;
        }
        w.write_u64(runs.len() as u64);
        for (start, len) in runs {
            w.write_u32(start);
            w.write_u32(len);
        }
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let partition_len = r.read_u64()?;
        if partition_len == 0 {
            return Err(CodecError::Corrupt("zero partition length".into()));
        }
        let contig_lengths: Vec<u64> = Vec::read(r)?;
        let mut base = PartitionInfo::new(&contig_lengths, partition_len);
        let n = r.read_u64()? as usize;
        let mut counts: Vec<(u32, u64)> = Vec::with_capacity(n);
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let k = r.read_u32()?;
            let sc = r.read_u32()?;
            let sid = r.read_u32()?;
            entries.push((k, sc, sid));
            // Reconstruct equivalent splits through with_splits by synthetic
            // counts: count = sc * 1 with threshold 1 reproduces sc pieces.
            counts.push((k, sc as u64));
        }
        if !counts.is_empty() {
            base = base.with_splits(&counts, 1);
        }
        let n_runs = r.read_u64()? as usize;
        if n_runs > 0 {
            let n_base = base.num_base_partitions() as usize;
            let mut merge_run_len = vec![1u32; n_base];
            for _ in 0..n_runs {
                let start = r.read_u32()? as usize;
                let len = r.read_u32()?;
                if start >= n_base || len < 2 || start + len as usize > n_base {
                    return Err(CodecError::Corrupt("merge run out of range".into()));
                }
                merge_run_len[start] = len;
            }
            base.rebuild_final_ids(&merge_run_len);
        }
        // Verify the reconstruction matches what was serialized.
        for (k, sc, sid) in entries {
            let got = base.splits.get(&k).copied();
            if got != Some(SplitEntry { split_count: sc, start_id: sid }) {
                return Err(CodecError::Corrupt("inconsistent split table".into()));
            }
        }
        Ok(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 8 configuration: 1 Mbp partitions, contigs of
    /// 250/244/199/192/181/172/160 partitions.
    fn figure8_info() -> PartitionInfo {
        let lens: Vec<u64> = [250u64, 244, 199, 192, 181, 172, 160]
            .iter()
            .map(|n| n * 1_000_000)
            .collect();
        PartitionInfo::new(&lens, 1_000_000)
    }

    #[test]
    fn figure8_tables_match_paper() {
        let pi = figure8_info();
        assert_eq!(pi.contig_num_partitions, vec![250, 244, 199, 192, 181, 172, 160]);
        assert_eq!(pi.contig_start_id, vec![0, 250, 494, 693, 885, 1066, 1238]);
    }

    #[test]
    fn figure8_position_lookup() {
        // Figure 8: Position (contig 4 in 1-based numbering = index 3,
        // position 12,345,678) -> segment base 693, offset 12, id 705.
        let pi = figure8_info();
        let id = pi.base_partition_id(GenomePosition::new(3, 12_345_678));
        assert_eq!(id, 705);
    }

    #[test]
    fn figure9_split_lookup() {
        // Figure 9: partition 705 split into 4 pieces starting at final id
        // 3510; position offset 345678 with piece length 250000 -> piece 1
        // -> final id 3511.
        let pi = figure8_info();
        // Build synthetic counts: make the renumbering put 705's pieces at
        // 3510 — that requires earlier splits; instead verify the *relative*
        // mechanics and the split arithmetic.
        let counts = vec![(705u32, 4_000u64)];
        let split = pi.with_splits(&counts, 1_000);
        let e = split.splits.get(&705).copied().expect("705 split");
        assert_eq!(e.split_count, 4);
        let id_piece1 = split.partition_id(GenomePosition::new(3, 12_345_678));
        assert_eq!(id_piece1, e.start_id + 1, "offset 345678 / 250000 = piece 1");
        // And unsplit partitions still map correctly.
        let before = split.partition_id(GenomePosition::new(3, 11_999_999));
        assert_eq!(before, split.final_id_of_base[704 as usize]);
    }

    #[test]
    fn dense_renumbering_after_splits() {
        let pi = PartitionInfo::new(&[1000, 500], 100);
        assert_eq!(pi.num_base_partitions(), 15);
        let counts = vec![(2u32, 5000u64), (12u32, 2500u64)];
        let split = pi.with_splits(&counts, 1000);
        assert_eq!(split.splits[&2].split_count, 5);
        assert_eq!(split.splits[&12].split_count, 3);
        assert_eq!(split.num_partitions(), 15 - 2 + 5 + 3);
        // Every position maps into range, and intervals tile the genome.
        let mut seen = vec![false; split.num_partitions() as usize];
        for contig in 0..2u32 {
            let len = [1000u64, 500][contig as usize];
            for pos in 0..len {
                let id = split.partition_id(GenomePosition::new(contig, pos));
                assert!(id < split.num_partitions(), "pos {pos} id {id}");
                seen[id as usize] = true;
                // Interval lookup agrees with the forward map.
                let iv = split.partition_interval(id);
                assert_eq!(iv.contig, contig);
                assert!(
                    iv.contains(GenomePosition::new(contig, pos)),
                    "pos {pos} not in {iv:?} (id {id})"
                );
            }
        }
        assert!(seen.iter().all(|&s| s), "all final partitions are reachable");
    }

    #[test]
    fn no_splits_is_identity() {
        let pi = PartitionInfo::new(&[1000], 100);
        let same = pi.with_splits(&[(3, 50)], 1000);
        assert!(same.splits.is_empty());
        assert_eq!(same.num_partitions(), pi.num_partitions());
        for pos in (0..1000).step_by(37) {
            assert_eq!(
                pi.partition_id(GenomePosition::new(0, pos)),
                same.partition_id(GenomePosition::new(0, pos))
            );
        }
    }

    #[test]
    fn intervals_tile_contigs() {
        let pi = PartitionInfo::new(&[950, 320], 100);
        let ivs = pi.intervals();
        assert_eq!(ivs.len(), 10 + 4);
        // Last partition of contig 0 is short (950 % 100 = 50).
        assert_eq!(ivs[9], GenomeInterval::new(0, 900, 950));
        assert_eq!(ivs[10], GenomeInterval::new(1, 0, 100));
        let total: u64 = ivs.iter().map(|iv| iv.len()).sum();
        assert_eq!(total, 950 + 320);
    }

    #[test]
    fn serialization_round_trips() {
        use gpf_compress::serializer::{deserialize_batch, serialize_batch, SerializerKind};
        let pi = PartitionInfo::new(&[100_000, 40_000], 1_000)
            .with_splits(&[(3, 10_000), (120, 9_000)], 2_000);
        for kind in [SerializerKind::JavaSim, SerializerKind::KryoSim, SerializerKind::Gpf] {
            let buf = serialize_batch(kind, std::slice::from_ref(&pi));
            let out: Vec<PartitionInfo> = deserialize_batch(kind, &buf).unwrap();
            assert_eq!(out[0], pi);
        }
    }

    #[test]
    fn split_cap_prevents_explosion() {
        let pi = PartitionInfo::new(&[1000], 100);
        let (split, stats) = pi.with_splits_stats(&[(0, u64::MAX / 2)], 1);
        assert_eq!(split.splits[&0].split_count, MAX_SPLIT_PIECES, "cap at 64 pieces");
        assert_eq!(stats.cap_hits, 1, "the cap firing is reported, not silent");
        assert_eq!(stats.max_pieces_requested, u64::MAX / 2);
    }

    #[test]
    fn split_stats_report_the_decision() {
        let pi = PartitionInfo::new(&[1000, 500], 100);
        let counts = vec![(2u32, 5000u64), (12u32, 2500u64), (7u32, 100u64)];
        let (split, stats) = pi.with_splits_stats(&counts, 1000);
        assert_eq!(split.splits.len(), 2);
        assert_eq!(stats.splits, 2);
        assert_eq!(stats.moved_records, 7500, "only over-threshold partitions move");
        assert_eq!(stats.cap_hits, 0);
        assert_eq!(stats.max_pieces_requested, 5);
        // No over-threshold partition: identity plus zeroed stats.
        let (same, none) = pi.with_splits_stats(&[(3, 50)], 1000);
        assert!(same.splits.is_empty());
        assert_eq!(none, SplitStats::default());
    }

    #[test]
    fn merging_collapses_underfull_runs_within_contigs() {
        let pi = PartitionInfo::new(&[1000, 500], 100); // 10 + 5 base partitions
        let counts =
            vec![(0u32, 100u64), (1, 200), (2, 5000), (3, 300), (4, 400)];
        let (m, stats) = pi.with_splits_merges_stats(&counts, 1000);
        // Base 2 splits into 5 pieces; 0..=1 merge (300 reads), 3..=9 merge
        // (700 reads — the run absorbs the empty tail of contig 0 but stops
        // at the contig boundary), 10..=14 merge (contig 1, all empty).
        assert_eq!(stats.splits, 1);
        assert_eq!(m.splits[&2].split_count, 5);
        assert_eq!(stats.merged, 2 + 7 + 5);
        assert_eq!(m.num_partitions(), 1 + 5 + 1 + 1);
        // Merged runs never cross contigs, and every position still maps to
        // an in-range id whose interval contains it.
        for contig in 0..2u32 {
            let len = [1000u64, 500][contig as usize];
            for pos in (0..len).step_by(17) {
                let p = GenomePosition::new(contig, pos);
                let id = m.partition_id(p);
                assert!(id < m.num_partitions());
                let iv = m.partition_interval(id);
                assert_eq!(iv.contig, contig, "merged interval stays in one contig");
                assert!(iv.contains(p), "pos {pos} not in {iv:?} (id {id})");
            }
        }
        // The merged final partition 0 spans bases 0..=1 of contig 0.
        assert_eq!(m.partition_interval(0), GenomeInterval::new(0, 0, 200));
        // No run is ever hotter than the threshold admits: two full
        // partitions never merge with each other, but each may still absorb
        // empty neighbours (the combined load stays at the threshold).
        // b0 stays solo (b1 would push it over); b1..=b9 share one id
        // (1000 + 8×0); contig 1's five empty bases share another.
        let (full, f) = pi.with_splits_merges_stats(&[(0, 1000), (1, 1000)], 1000);
        assert_eq!(f.merged, 9 + 5);
        assert_eq!(full.num_partitions(), 3);
    }

    #[test]
    fn merged_layout_serialization_round_trips() {
        use gpf_compress::serializer::{deserialize_batch, serialize_batch, SerializerKind};
        let pi = PartitionInfo::new(&[100_000, 40_000], 1_000);
        let (merged, stats) =
            pi.with_splits_merges_stats(&[(3, 10_000), (120, 9_000)], 2_000);
        assert!(stats.merged > 0, "this layout exercises merge runs");
        for kind in [SerializerKind::JavaSim, SerializerKind::KryoSim, SerializerKind::Gpf] {
            let buf = serialize_batch(kind, std::slice::from_ref(&merged));
            let out: Vec<PartitionInfo> = deserialize_batch(kind, &buf).unwrap();
            assert_eq!(out[0], merged);
        }
    }

    #[test]
    fn split_only_path_reports_no_merges() {
        let pi = PartitionInfo::new(&[1000], 100);
        let (_, stats) = pi.with_splits_stats(&[(2, 5000)], 1000);
        assert_eq!(stats.merged, 0);
    }

    #[test]
    fn final_ranges_tile_final_ids() {
        let pi = PartitionInfo::new(&[1000, 500], 100);
        let split = pi.with_splits(&[(2u32, 5000u64), (12u32, 2500u64)], 1000);
        let mut next = 0u32;
        for base in 0..split.num_base_partitions() {
            let r = split.final_range_of_base(base);
            assert_eq!(r.start, next, "ranges are consecutive");
            next = r.end;
        }
        assert_eq!(next, split.num_partitions(), "ranges tile 0..n_final");
        assert_eq!(split.final_range_of_base(2).len(), 5);
        assert_eq!(split.final_range_of_base(12).len(), 3);
        assert_eq!(split.final_range_of_base(0).len(), 1);
    }
}
