//! BWA-MEM-like seed-and-extend aligner over the FM-index.
//!
//! The pipeline stage the paper calls `BwaMemProcess.pairEnd` (Table 2).
//! Algorithmic skeleton, matching bwa-mem's architecture:
//!
//! 1. **Seeding** — exact-match seeds of length `seed_len` taken at a stride
//!    across the read (both orientations) are located through FM-index
//!    backward search; over-repetitive seeds are dropped, exactly like
//!    bwa-mem's `max_occ` filter.
//! 2. **Chaining/voting** — seed hits vote for alignment *diagonals*
//!    (text position − read offset, bucketed to tolerate indels).
//! 3. **Extension** — the best diagonals are verified by banded fitting
//!    alignment ([`crate::sw`]) against a padded reference window.
//! 4. **Scoring** — MAPQ derives from the margin between best and
//!    second-best alignment scores; reads without an acceptable alignment
//!    come back unmapped.
//! 5. **Pairing** — mates are aligned independently, combined with a
//!    proper-pair insert/orientation check, and a failed mate is *rescued*
//!    by a banded search in the window implied by its partner.

use crate::fmindex::FmIndex;
use crate::sw::{fit_align, Scoring};
use gpf_formats::base::{rank4, reverse_complement};
use gpf_formats::cigar::{Cigar, CigarOp};
use gpf_formats::fastq::FastqPair;
use gpf_formats::sam::{SamFlags, SamRecord};
use gpf_formats::{GenomeInterval, ReferenceGenome};
use std::collections::HashMap;

/// Aligner tuning parameters.
#[derive(Debug, Clone)]
pub struct AlignerOptions {
    /// Exact-match seed length.
    pub seed_len: usize,
    /// Stride between seed start offsets.
    pub seed_stride: usize,
    /// Seeds with more hits than this are skipped (repeat filter).
    pub max_seed_hits: usize,
    /// Diagonals to verify by extension, per read.
    pub max_candidates: usize,
    /// Reference padding around a candidate window.
    pub window_pad: usize,
    /// Extension scoring.
    pub scoring: Scoring,
    /// Minimum fraction of the perfect score to accept an alignment.
    pub min_score_frac: f64,
    /// Expected insert size mean (proper-pair check and rescue).
    pub insert_mean: f64,
    /// Expected insert size standard deviation.
    pub insert_sd: f64,
}

impl Default for AlignerOptions {
    fn default() -> Self {
        Self {
            seed_len: 19,
            seed_stride: 11,
            max_seed_hits: 64,
            max_candidates: 8,
            window_pad: 24,
            scoring: Scoring::default(),
            min_score_frac: 0.4,
            insert_mean: 380.0,
            insert_sd: 50.0,
        }
    }
}

/// One verified candidate alignment.
#[derive(Debug, Clone)]
struct Candidate {
    contig: u32,
    pos: u64,
    reverse: bool,
    score: i32,
    cigar: Cigar,
    edit: u32,
}

/// The aligner: FM-index plus options.
pub struct BwaMemAligner {
    index: FmIndex,
    opts: AlignerOptions,
}

impl BwaMemAligner {
    /// Build the index and aligner for a reference genome.
    pub fn new(reference: &ReferenceGenome) -> Self {
        Self::with_options(reference, AlignerOptions::default())
    }

    /// Build with explicit options.
    pub fn with_options(reference: &ReferenceGenome, opts: AlignerOptions) -> Self {
        Self { index: FmIndex::build(reference), opts }
    }

    /// Access the underlying FM-index.
    pub fn index(&self) -> &FmIndex {
        &self.index
    }

    /// Align a single read; returns the best alignment as a [`SamRecord`]
    /// (unmapped record when nothing acceptable is found).
    pub fn align_read(&self, name: &str, seq: &[u8], qual: &[u8]) -> SamRecord {
        let cands = self.candidates(seq);
        self.emit(name, seq, qual, &cands)
    }

    /// Align a pair; returns `(mate1, mate2)` records with mate/pairing
    /// fields filled in.
    pub fn align_pair(&self, pair: &FastqPair) -> (SamRecord, SamRecord) {
        let c1 = self.candidates(&pair.r1.seq);
        let c2 = self.candidates(&pair.r2.seq);
        let mut r1 = self.emit(&pair.r1.name, &pair.r1.seq, &pair.r1.qual, &c1);
        let mut r2 = self.emit(&pair.r2.name, &pair.r2.seq, &pair.r2.qual, &c2);

        // Mate rescue: one mapped, one not -> banded search near the mate.
        if r1.flags.is_mapped() && !r2.flags.is_mapped() {
            if let Some(res) = self.rescue(&r1, &pair.r2.seq) {
                self.apply_rescue(&mut r2, res, &pair.r2.seq, &pair.r2.qual);
            }
        } else if r2.flags.is_mapped() && !r1.flags.is_mapped() {
            if let Some(res) = self.rescue(&r2, &pair.r1.seq) {
                self.apply_rescue(&mut r1, res, &pair.r1.seq, &pair.r1.qual);
            }
        }

        // Pair flags and TLEN.
        r1.flags.set(SamFlags::PAIRED | SamFlags::FIRST_IN_PAIR);
        r2.flags.set(SamFlags::PAIRED | SamFlags::SECOND_IN_PAIR);
        if !r1.flags.is_mapped() {
            r2.flags.set(SamFlags::MATE_UNMAPPED);
        }
        if !r2.flags.is_mapped() {
            r1.flags.set(SamFlags::MATE_UNMAPPED);
        }
        if r1.flags.is_reverse() {
            r2.flags.set(SamFlags::MATE_REVERSE);
        }
        if r2.flags.is_reverse() {
            r1.flags.set(SamFlags::MATE_REVERSE);
        }
        if r1.flags.is_mapped() && r2.flags.is_mapped() {
            r1.mate_contig = r2.contig;
            r1.mate_pos = r2.pos;
            r2.mate_contig = r1.contig;
            r2.mate_pos = r1.pos;
            if r1.contig == r2.contig {
                let left = r1.pos.min(r2.pos);
                let right = r1.ref_end().max(r2.ref_end());
                let tlen = (right - left) as i64;
                let max_insert = self.opts.insert_mean + 4.0 * self.opts.insert_sd;
                let proper = r1.flags.is_reverse() != r2.flags.is_reverse()
                    && tlen as f64 <= max_insert;
                if proper {
                    r1.flags.set(SamFlags::PROPER_PAIR);
                    r2.flags.set(SamFlags::PROPER_PAIR);
                }
                if r1.pos <= r2.pos {
                    r1.tlen = tlen;
                    r2.tlen = -tlen;
                } else {
                    r1.tlen = -tlen;
                    r2.tlen = tlen;
                }
            }
        }
        (r1, r2)
    }

    /// Seed both orientations and verify the best diagonals.
    fn candidates(&self, seq: &[u8]) -> Vec<Candidate> {
        let mut out = Vec::new();
        for (reverse, oriented) in
            [(false, seq.to_vec()), (true, reverse_complement(seq))]
        {
            // Diagonal votes: (bucketed text diagonal) -> votes.
            let mut votes: HashMap<i64, u32> = HashMap::new();
            let sl = self.opts.seed_len;
            if oriented.len() < sl {
                continue;
            }
            let mut offsets: Vec<usize> =
                (0..=oriented.len() - sl).step_by(self.opts.seed_stride).collect();
            let tail = oriented.len() - sl;
            if offsets.last() != Some(&tail) {
                offsets.push(tail);
            }
            for off in offsets {
                let pattern = &oriented[off..off + sl];
                if pattern.contains(&b'N') {
                    continue;
                }
                if let Some((lo, hi)) = self.index.backward_search(pattern) {
                    if hi - lo > self.opts.max_seed_hits {
                        continue; // repeat region
                    }
                    for hit in self.index.locate(lo, hi, self.opts.max_seed_hits) {
                        let diag = hit as i64 - off as i64;
                        *votes.entry(diag - diag.rem_euclid(8)).or_insert(0) += 1;
                    }
                }
            }
            // Verify top diagonals.
            let mut ranked: Vec<(i64, u32)> = votes.into_iter().collect();
            ranked.sort_by_key(|&(d, v)| (std::cmp::Reverse(v), d));
            for &(diag, _) in ranked.iter().take(self.opts.max_candidates) {
                if let Some(c) = self.extend(&oriented, diag.max(0) as u64, reverse) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// Banded extension of an oriented read at a candidate text diagonal.
    fn extend(&self, oriented: &[u8], text_start: u64, reverse: bool) -> Option<Candidate> {
        let (contig, pos) = self.index.resolve(text_start as u32, 1)?;
        let clen = self.index.contig_len(contig);
        let pad = self.opts.window_pad as u64;
        let w_start = pos.saturating_sub(pad);
        let w_end = (pos + oriented.len() as u64 + pad).min(clen);
        if w_end <= w_start {
            return None;
        }
        let window = self.index.contig_window(GenomeInterval::new(contig, w_start, w_end));
        let read_ranks: Vec<u8> = oriented.iter().map(|&b| rank4(b)).collect();
        let diag_offset = (pos - w_start) as usize;
        let perfect = oriented.len() as i32 * self.opts.scoring.match_score;
        let threshold = self.opts.min_score_frac * perfect as f64;
        // Bit-parallel prefilter: skip the affine DP when no path can
        // reach the acceptance threshold (output-preserving — see
        // myers::prefilter_allows).
        if !crate::myers::prefilter_allows(
            &read_ranks,
            window,
            threshold.ceil() as i64,
            &self.opts.scoring,
        ) {
            return None;
        }
        let aln = fit_align(&read_ranks, window, diag_offset, &self.opts.scoring)?;
        if (aln.score as f64) < threshold {
            return None;
        }
        Some(Candidate {
            contig,
            pos: w_start + aln.window_start as u64,
            reverse,
            score: aln.score,
            cigar: aln.cigar,
            edit: aln.edit_distance,
        })
    }

    /// Build the output record from verified candidates.
    fn emit(&self, name: &str, seq: &[u8], qual: &[u8], cands: &[Candidate]) -> SamRecord {
        let mut sorted: Vec<&Candidate> = cands.iter().collect();
        sorted.sort_by_key(|c| (std::cmp::Reverse(c.score), c.contig, c.pos));
        // Deduplicate identical loci (same diagonal found twice).
        sorted.dedup_by_key(|c| (c.contig, c.pos, c.reverse));
        let Some(best) = sorted.first() else {
            return SamRecord::unmapped(name, seq.to_vec(), qual.to_vec());
        };
        let second = sorted.get(1).map(|c| c.score);
        let mapq = match second {
            None => 60,
            Some(s2) => (((best.score - s2) * 6).clamp(0, 60)) as u8,
        };
        let (stored_seq, stored_qual) = if best.reverse {
            let mut q = qual.to_vec();
            q.reverse();
            (reverse_complement(seq), q)
        } else {
            (seq.to_vec(), qual.to_vec())
        };
        let mut flags = SamFlags::default();
        if best.reverse {
            flags.set(SamFlags::REVERSE);
        }
        SamRecord {
            name: name.to_string(),
            flags,
            contig: best.contig,
            pos: best.pos,
            mapq,
            cigar: best.cigar.clone(),
            mate_contig: gpf_formats::sam::NO_CONTIG,
            mate_pos: 0,
            tlen: 0,
            seq: stored_seq,
            qual: stored_qual,
            read_group: 1,
            edit_distance: best.edit as u16,
        }
    }

    /// Try to place an unmapped mate near its mapped partner.
    fn rescue(&self, anchor: &SamRecord, mate_seq: &[u8]) -> Option<Candidate> {
        let clen = self.index.contig_len(anchor.contig);
        let span = (self.opts.insert_mean + 4.0 * self.opts.insert_sd) as u64;
        // The mate should be on the opposite strand, within the insert span.
        let (w_start, w_end, mate_reverse) = if anchor.flags.is_reverse() {
            (anchor.ref_end().saturating_sub(span), anchor.ref_end().min(clen), false)
        } else {
            (anchor.pos, (anchor.pos + span).min(clen), true)
        };
        if w_end <= w_start + mate_seq.len() as u64 / 2 {
            return None;
        }
        let oriented =
            if mate_reverse { reverse_complement(mate_seq) } else { mate_seq.to_vec() };
        let window =
            self.index.contig_window(GenomeInterval::new(anchor.contig, w_start, w_end));
        let read_ranks: Vec<u8> = oriented.iter().map(|&b| rank4(b)).collect();
        let perfect = oriented.len() as i32 * self.opts.scoring.match_score;
        let threshold = self.opts.min_score_frac * perfect as f64;
        // One bit-parallel prefilter covers the whole diagonal scan: the
        // fitting distance is diagonal-independent, so if no path anywhere
        // in the window can reach the threshold, every banded attempt
        // below would be rejected too.
        if !crate::myers::prefilter_allows(
            &read_ranks,
            window,
            threshold.ceil() as i64,
            &self.opts.scoring,
        ) {
            return None;
        }
        // A wide band is unnecessary: scan the window by trying several
        // diagonal offsets.
        let mut best: Option<Candidate> = None;
        let step = (self.opts.scoring.band).max(8);
        let mut diag = 0usize;
        while diag + oriented.len() / 2 < window.len() {
            if let Some(aln) = fit_align(&read_ranks, window, diag, &self.opts.scoring) {
                if (aln.score as f64) >= threshold
                    && best.as_ref().is_none_or(|b| aln.score > b.score)
                {
                    best = Some(Candidate {
                        contig: anchor.contig,
                        pos: w_start + aln.window_start as u64,
                        reverse: mate_reverse,
                        score: aln.score,
                        cigar: aln.cigar,
                        edit: aln.edit_distance,
                    });
                }
            }
            diag += step;
        }
        best
    }

    /// Overwrite an unmapped record with a rescued alignment.
    fn apply_rescue(&self, rec: &mut SamRecord, res: Candidate, seq: &[u8], qual: &[u8]) {
        rec.flags.clear(SamFlags::UNMAPPED);
        if res.reverse {
            rec.flags.set(SamFlags::REVERSE);
            rec.seq = reverse_complement(seq);
            let mut q = qual.to_vec();
            q.reverse();
            rec.qual = q;
        }
        rec.contig = res.contig;
        rec.pos = res.pos;
        rec.mapq = 20; // rescued placements get modest confidence
        rec.cigar = res.cigar;
        rec.edit_distance = res.edit as u16;
    }
}

/// Count soft-clippable low-score tails — exposed for tests of CIGAR shape.
pub fn has_only_mid(cigar: &Cigar) -> bool {
    cigar.0.iter().all(|(_, op)| matches!(op, CigarOp::Match | CigarOp::Ins | CigarOp::Del))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpf_formats::quality::phred_to_char;

    fn reference() -> ReferenceGenome {
        // Deterministic pseudo-random 6kb genome over two contigs.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut gen = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    b"ACGT"[(state >> 33) as usize % 4]
                })
                .collect()
        };
        ReferenceGenome::from_contigs(vec![("chr1", gen(4000)), ("chr2", gen(2000))])
    }

    fn quals(n: usize) -> Vec<u8> {
        vec![phred_to_char(35); n]
    }

    #[test]
    fn aligns_exact_read_to_its_locus() {
        let r = reference();
        let aligner = BwaMemAligner::new(&r);
        let read = r.contig_seq(0)[500..600].to_vec();
        let rec = aligner.align_read("r1", &read, &quals(100));
        assert!(rec.flags.is_mapped());
        assert_eq!(rec.contig, 0);
        assert_eq!(rec.pos, 500);
        assert_eq!(rec.cigar.to_string(), "100M");
        assert_eq!(rec.edit_distance, 0);
        assert!(rec.mapq >= 30);
    }

    #[test]
    fn aligns_reverse_complement_read() {
        let r = reference();
        let aligner = BwaMemAligner::new(&r);
        let fwd = r.contig_seq(1)[300..400].to_vec();
        let read = reverse_complement(&fwd);
        let rec = aligner.align_read("r2", &read, &quals(100));
        assert!(rec.flags.is_mapped());
        assert!(rec.flags.is_reverse());
        assert_eq!(rec.contig, 1);
        assert_eq!(rec.pos, 300);
        // Stored sequence is the reference-forward orientation.
        assert_eq!(rec.seq, fwd);
    }

    #[test]
    fn tolerates_mismatches() {
        let r = reference();
        let aligner = BwaMemAligner::new(&r);
        let mut read = r.contig_seq(0)[1000..1100].to_vec();
        for i in [10usize, 40, 90] {
            read[i] = match read[i] {
                b'A' => b'C',
                _ => b'A',
            };
        }
        let rec = aligner.align_read("r3", &read, &quals(100));
        assert!(rec.flags.is_mapped());
        assert_eq!(rec.pos, 1000);
        assert!(rec.edit_distance >= 2, "edit {}", rec.edit_distance);
    }

    #[test]
    fn tolerates_small_deletion() {
        let r = reference();
        let aligner = BwaMemAligner::new(&r);
        // Read skips 3 reference bases in the middle.
        let mut read = r.contig_seq(0)[2000..2050].to_vec();
        read.extend_from_slice(&r.contig_seq(0)[2053..2103]);
        let rec = aligner.align_read("r4", &read, &quals(100));
        assert!(rec.flags.is_mapped());
        assert_eq!(rec.pos, 2000);
        assert!(rec.cigar.has_indel(), "cigar {}", rec.cigar);
        assert_eq!(rec.cigar.ref_span(), 103);
    }

    #[test]
    fn garbage_read_is_unmapped() {
        let r = reference();
        let aligner = BwaMemAligner::new(&r);
        // A read that matches nothing (alternating pattern absent in the
        // pseudo-random genome at this length).
        let read: Vec<u8> = (0..100).map(|i| if i % 2 == 0 { b'A' } else { b'C' }).collect();
        let rec = aligner.align_read("junk", &read, &quals(100));
        // Either unmapped or very low quality.
        assert!(!rec.flags.is_mapped() || rec.mapq < 10 || rec.edit_distance > 20);
    }

    #[test]
    fn pair_alignment_sets_mate_fields() {
        let r = reference();
        let aligner = BwaMemAligner::new(&r);
        let frag = &r.contig_seq(0)[800..1180];
        let r1 = fastq_record_new("p/1", &frag[..100]);
        let r2 = fastq_record_new("p/2", &reverse_complement(&frag[280..380]));
        let pair = FastqPair::new(r1, r2).unwrap();
        let (a, b) = aligner.align_pair(&pair);
        assert!(a.flags.is_mapped() && b.flags.is_mapped());
        assert!(a.flags.has(SamFlags::PROPER_PAIR), "proper pair");
        assert_eq!(a.pos, 800);
        assert_eq!(b.pos, 1080);
        assert_eq!(a.mate_pos, b.pos);
        assert_eq!(a.tlen, 380);
        assert_eq!(b.tlen, -380);
        assert!(a.flags.has(SamFlags::FIRST_IN_PAIR));
        assert!(b.flags.has(SamFlags::SECOND_IN_PAIR));
        assert!(a.flags.has(SamFlags::MATE_REVERSE));
    }

    fn fastq_record_new(name: &str, seq: &[u8]) -> gpf_formats::FastqRecord {
        gpf_formats::FastqRecord::new(name, seq, &quals(seq.len())).unwrap()
    }

    #[test]
    fn mate_rescue_places_damaged_mate() {
        let r = reference();
        let aligner = BwaMemAligner::new(&r);
        let frag = &r.contig_seq(0)[1500..1880];
        // Mate 2 heavily corrupted in its seed region but still >60% intact.
        let mut m2 = reverse_complement(&frag[280..380]);
        for i in (0..m2.len()).step_by(5) {
            m2[i] = match m2[i] {
                b'A' => b'G',
                _ => b'A',
            };
        }
        let pair = FastqPair::new(fastq_record_new("q/1", &frag[..100]), {
            gpf_formats::FastqRecord::new("q/2", &m2, &quals(100)).unwrap()
        })
        .unwrap();
        let (a, b) = aligner.align_pair(&pair);
        assert!(a.flags.is_mapped());
        // Rescue should place mate 2 on chr1 near 1780 (or leave it unmapped
        // if the damage is too heavy — but never on another contig).
        if b.flags.is_mapped() {
            assert_eq!(b.contig, 0);
            assert!(b.pos.abs_diff(1780) < 40, "rescued at {}", b.pos);
        }
    }

    #[test]
    fn repeat_reads_get_low_mapq() {
        // Build a genome with an exact 300bp repeat at two loci.
        let mut state = 77u64;
        let mut gen = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                    b"ACGT"[(state >> 33) as usize % 4]
                })
                .collect()
        };
        let unique1 = gen(1000);
        let repeat = gen(300);
        let unique2 = gen(1000);
        let seq = [unique1, repeat.clone(), unique2, repeat.clone()].concat();
        let r = ReferenceGenome::from_contigs(vec![("chr1", seq)]);
        let aligner = BwaMemAligner::new(&r);
        let read = repeat[100..200].to_vec();
        let rec = aligner.align_read("rep", &read, &quals(100));
        assert!(rec.flags.is_mapped());
        assert_eq!(rec.mapq, 0, "ambiguous read must have MAPQ 0");
    }
}
