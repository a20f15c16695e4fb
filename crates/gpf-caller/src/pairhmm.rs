//! Pair-HMM: `P(read | haplotype)` with quality-aware emissions.
//!
//! The standard three-state (match / insert / delete) pair hidden Markov
//! model used by GATK's HaplotypeCaller, implemented in linear probability
//! space with per-row scaling (numerically equivalent to log space but much
//! faster). The read aligns globally; the haplotype start and end are free,
//! which the initial distribution and final summation encode.
//!
//! This is the compute kernel the paper identifies as one of the two
//! CPU-dominant components (§5.3.2: "Both the BWA-MEM and HaplotypeCaller
//! are computationally intensive components ... in which CPU architecture
//! and speed completely determine efficiency").
//!
//! Two entry points compute the same quantity. [`log10_likelihood`] is the
//! scalar seed kernel, retained as the executable reference and still used
//! by the differential proptests and the `--kernel-bench` gate.
//! [`PairHmmBatch`] is the production path: it evaluates one read against
//! *all* haplotypes of an active region in one pass, hoisting the per-read
//! work — the quality→probability lookups (via the cached 256-entry table
//! in `gpf_formats::quality`) and the per-row emission pair
//! `(1−e, e/3)` — out of the per-haplotype DP, reusing row buffers across
//! haplotypes and reads, and fusing the row-scaling max into the DP sweep.
//! Every floating-point operation sequence per (read, haplotype) pair is
//! kept identical to the reference, so batch results are bit-equal and the
//! genotyper's output is byte-identical.

use gpf_formats::quality::char_to_error_prob;

/// Transition probabilities.
#[derive(Debug, Clone, Copy)]
pub struct HmmParams {
    /// Gap-open probability (match → ins/del).
    pub gap_open: f64,
    /// Gap-extension probability (ins → ins, del → del).
    pub gap_extend: f64,
}

impl Default for HmmParams {
    fn default() -> Self {
        // GATK defaults: gap open ~ Q45, extension ~ Q10.
        Self { gap_open: 10f64.powf(-4.5), gap_extend: 0.1 }
    }
}

/// log10 P(read | haplotype).
///
/// `read`/`qual` must have equal lengths; `haplotype` is raw ACGT bytes.
pub fn log10_likelihood(read: &[u8], qual: &[u8], haplotype: &[u8], params: &HmmParams) -> f64 {
    assert_eq!(read.len(), qual.len());
    let m = read.len();
    let n = haplotype.len();
    if m == 0 || n == 0 {
        return f64::NEG_INFINITY;
    }
    let go = params.gap_open;
    let ge = params.gap_extend;
    let t_mm = 1.0 - 2.0 * go; // match -> match
    let t_gm = 1.0 - ge; // gap -> match

    // DP rows over haplotype positions 0..=n for states M, X (ins in read),
    // Y (del from read / gap in read... conventions: X consumes read only,
    // Y consumes haplotype only).
    let width = n + 1;
    let mut m_prev = vec![0.0f64; width];
    let mut x_prev = vec![0.0f64; width];
    let mut y_prev = vec![0.0f64; width];
    let mut m_cur = vec![0.0f64; width];
    let mut x_cur = vec![0.0f64; width];
    let mut y_cur = vec![0.0f64; width];

    // Free start anywhere on the haplotype: probability mass 1/n enters at
    // each haplotype offset through the Y state of row 0.
    let start = 1.0 / n as f64;
    y_prev[..=n].fill(start);

    let mut log_scale = 0.0f64;
    for i in 1..=m {
        m_cur[0] = 0.0;
        x_cur[0] = 0.0;
        y_cur[0] = 0.0;
        let e = char_to_error_prob(qual[i - 1]);
        for j in 1..=n {
            let emit = if read[i - 1] == haplotype[j - 1] && read[i - 1] != b'N' {
                1.0 - e
            } else {
                e / 3.0
            };
            m_cur[j] = emit
                * (t_mm * m_prev[j - 1] + t_gm * (x_prev[j - 1] + y_prev[j - 1]));
            // X: read insertion (consume read base, stay on haplotype col).
            x_cur[j] = m_prev[j] * go + x_prev[j] * ge;
            // Y: haplotype deletion (consume haplotype base, same read row).
            y_cur[j] = m_cur[j - 1] * go + y_cur[j - 1] * ge;
        }
        // Scale the row to avoid underflow on long reads.
        let row_max = m_cur
            .iter()
            .chain(x_cur.iter())
            .chain(y_cur.iter())
            .fold(0.0f64, |a, &b| a.max(b));
        if row_max > 0.0 && !(1e-280..=1e280).contains(&row_max) {
            let inv = 1.0 / row_max;
            for v in m_cur.iter_mut().chain(x_cur.iter_mut()).chain(y_cur.iter_mut()) {
                *v *= inv;
            }
            log_scale += row_max.log10();
        }
        std::mem::swap(&mut m_prev, &mut m_cur);
        std::mem::swap(&mut x_prev, &mut x_cur);
        std::mem::swap(&mut y_prev, &mut y_cur);
    }

    // Free end: sum the final read row over all haplotype positions.
    let total: f64 = (0..=n).map(|j| m_prev[j] + x_prev[j]).sum();
    if total <= 0.0 {
        f64::NEG_INFINITY
    } else {
        total.log10() + log_scale
    }
}

/// Lanes interleaved per DP column: up to this many haplotypes advance
/// through the recurrence together in one sweep.
const LANES: usize = 4;

/// Batched pair-HMM: one read against all haplotypes of an active region.
///
/// Construction is cheap; the value is in reuse and interleaving — one
/// instance per region (or per worker) keeps the DP row buffers and the
/// per-read emission rows warm across every evaluation, so the inner DP
/// allocates nothing, and haplotypes are processed [`LANES`] at a time
/// with their columns *interleaved* in memory (`row[j·LANES + lane]`).
/// Interleaving is what buys the throughput: the in-row recurrence
/// `Y(j) = go·M(j−1) + ge·Y(j−1)` is a serial multiply–add chain whose
/// latency bounds any single-haplotype sweep, but the four lanes' chains
/// are independent, so they pipeline and the sweep runs at ALU throughput
/// instead of chain latency.
///
/// Results are **bit-identical** to [`log10_likelihood`]: per (read,
/// haplotype) pair, the DP executes the same floating-point operations in
/// the same order — interleaving reorders work *across* haplotypes, never
/// within one — the emission pair `(1−e, e/3)` is hoisted (same IEEE
/// operations, computed once per read base instead of once per cell), and
/// the row-scaling max is taken per lane over exactly the scalar's value
/// set (`f64::max` over non-NaN, non-negative values is order-insensitive).
/// Lanes shorter than the longest haplotype of their group run with pad
/// columns whose values never feed a live column, the row max, the row
/// scaling, or the final sum.
pub struct PairHmmBatch {
    params: HmmParams,
    /// Per-read emission rows, hoisted across haplotypes:
    /// `em[i] = 1 − e_i` (correct base), `mm[i] = e_i / 3` (miscall).
    em: Vec<f64>,
    mm: Vec<f64>,
    /// `true` where the read base is `N` (emission forced to `mm`).
    is_n: Vec<bool>,
    /// Haplotype bytes, lane-interleaved to match the row layout.
    hb: Vec<[u8; LANES]>,
    // Lane-interleaved DP rows over haplotype positions — one [`LANES`]-wide
    // bundle per column, so a column index pays one bounds check for all
    // four lanes — reused across evaluations.
    m_prev: Vec<[f64; LANES]>,
    x_prev: Vec<[f64; LANES]>,
    y_prev: Vec<[f64; LANES]>,
    m_cur: Vec<[f64; LANES]>,
    x_cur: Vec<[f64; LANES]>,
    y_cur: Vec<[f64; LANES]>,
}

impl PairHmmBatch {
    /// A fresh batch evaluator with empty (lazily grown) scratch.
    pub fn new(params: HmmParams) -> Self {
        Self {
            params,
            em: Vec::new(),
            mm: Vec::new(),
            is_n: Vec::new(),
            hb: Vec::new(),
            m_prev: Vec::new(),
            x_prev: Vec::new(),
            y_prev: Vec::new(),
            m_cur: Vec::new(),
            x_cur: Vec::new(),
            y_cur: Vec::new(),
        }
    }

    /// log10 P(read | h) for each haplotype, in iteration order.
    ///
    /// Total over hostile input: a read/qual length mismatch, an empty
    /// read, or an empty haplotype yields `NEG_INFINITY` for the affected
    /// entries — no panic, and no NaN (the scaled DP keeps probabilities
    /// finite and non-negative).
    pub fn likelihoods<'h, I>(&mut self, read: &[u8], qual: &[u8], haps: I) -> Vec<f64>
    where
        I: IntoIterator<Item = &'h [u8]>,
    {
        let hv: Vec<&[u8]> = haps.into_iter().collect();
        let mut out = vec![f64::NEG_INFINITY; hv.len()];
        if read.len() != qual.len() || read.is_empty() {
            return out;
        }
        // Hoist the per-read emission rows once for the whole batch.
        self.em.clear();
        self.mm.clear();
        self.is_n.clear();
        for (&b, &q) in read.iter().zip(qual) {
            let e = char_to_error_prob(q);
            self.em.push(1.0 - e);
            self.mm.push(e / 3.0);
            self.is_n.push(b == b'N');
        }
        // Empty haplotypes keep their NEG_INFINITY; the rest run in
        // interleaved groups of up to LANES.
        let live: Vec<usize> = (0..hv.len()).filter(|&k| !hv[k].is_empty()).collect();
        for group in live.chunks(LANES) {
            self.group(read, &hv, group, &mut out);
        }
        if gpf_trace::enabled() {
            let cells = hv.iter().fold(0u64, |a, h| {
                a.saturating_add((read.len() as u64).saturating_mul(h.len() as u64))
            });
            gpf_trace::counter(gpf_trace::names::PAIRHMM_CELLS).add(cells);
        }
        out
    }

    /// One interleaved pass of up to [`LANES`] (read, haplotype) DPs.
    /// `group` holds indices into `hv`/`out` of non-empty haplotypes.
    /// Mirrors the reference DP operation for operation per lane; see the
    /// struct docs for why the hoists and interleaving preserve
    /// bit-equality.
    fn group(&mut self, read: &[u8], hv: &[&[u8]], group: &[usize], out: &mut [f64]) {
        let m = read.len();
        let lanes = group.len(); // 1..=LANES
        let mut ns = [0usize; LANES];
        for (l, &k) in group.iter().enumerate() {
            ns[l] = hv[k].len();
        }
        let max_n = ns.iter().copied().fold(0, usize::max);
        // Shortest live haplotype: columns 0..=min_n exist in every live
        // lane, so that range reduces lane-parallel below.
        let min_n = ns[..lanes].iter().copied().fold(usize::MAX, usize::min);
        let width = max_n + 1; // in LANES-wide column bundles

        for row in [
            &mut self.m_prev,
            &mut self.x_prev,
            &mut self.y_prev,
            &mut self.m_cur,
            &mut self.x_cur,
            &mut self.y_cur,
        ] {
            row.clear();
            row.resize(width, [0.0; LANES]);
        }
        // Free start anywhere on each haplotype; pad columns and missing
        // lanes stay 0.0 so nothing enters the DP through them.
        for (l, n_l) in ns[..lanes].iter().copied().enumerate() {
            let start = 1.0 / n_l as f64;
            for j in 0..=n_l {
                self.y_prev[j][l] = start;
            }
        }
        self.hb.clear();
        self.hb.resize(max_n, [0; LANES]);
        for (l, &k) in group.iter().enumerate() {
            for (j, &b) in hv[k].iter().enumerate() {
                self.hb[j][l] = b;
            }
        }

        let go = self.params.gap_open;
        let ge = self.params.gap_extend;
        let t_mm = 1.0 - 2.0 * go;
        let t_gm = 1.0 - ge;

        // Local slice views: one bounds assertion each, then the hot-loop
        // indexing below stays in range by construction.
        let em_row = &self.em[..m];
        let mm_row = &self.mm[..m];
        let n_row = &self.is_n[..m];
        let hb = &self.hb[..max_n];
        let mut m_prev = &mut self.m_prev[..width];
        let mut x_prev = &mut self.x_prev[..width];
        let mut y_prev = &mut self.y_prev[..width];
        let mut m_cur = &mut self.m_cur[..width];
        let mut x_cur = &mut self.x_cur[..width];
        let mut y_cur = &mut self.y_cur[..width];

        let mut log_scale = [0.0f64; LANES];
        for i in 1..=m {
            let rb = read[i - 1];
            let force_mm = n_row[i - 1];
            let em = em_row[i - 1];
            let mm = mm_row[i - 1];
            m_cur[0] = [0.0; LANES];
            x_cur[0] = [0.0; LANES];
            y_cur[0] = [0.0; LANES];
            for j in 1..=max_n {
                // Column bundles copy into registers: one bounds check per
                // bundle, four lanes of arithmetic each.
                let mp_d = m_prev[j - 1];
                let xp_d = x_prev[j - 1];
                let yp_d = y_prev[j - 1];
                let mp = m_prev[j];
                let xp = x_prev[j];
                let mc_d = m_cur[j - 1];
                let yc_d = y_cur[j - 1];
                let hbj = hb[j - 1];
                let mut mv = [0.0f64; LANES];
                let mut xv = [0.0f64; LANES];
                let mut yv = [0.0f64; LANES];
                for l in 0..LANES {
                    let emit = if !force_mm && rb == hbj[l] { em } else { mm };
                    mv[l] = emit * (t_mm * mp_d[l] + t_gm * (xp_d[l] + yp_d[l]));
                    xv[l] = mp[l] * go + xp[l] * ge;
                    yv[l] = mc_d[l] * go + yc_d[l] * ge;
                }
                m_cur[j] = mv;
                x_cur[j] = xv;
                y_cur[j] = yv;
            }
            // Per-lane row max over exactly the scalar's value set (columns
            // 0..=n_l — pad columns excluded). Twelve independent max
            // chains (3 states × LANES lanes) keep the reduction
            // pipelined instead of one serial chain.
            let mut am = [0.0f64; LANES];
            let mut ax = [0.0f64; LANES];
            let mut ay = [0.0f64; LANES];
            for j in 0..=min_n {
                let mc = m_cur[j];
                let xc = x_cur[j];
                let yc = y_cur[j];
                for l in 0..LANES {
                    am[l] = am[l].max(mc[l]);
                    ax[l] = ax[l].max(xc[l]);
                    ay[l] = ay[l].max(yc[l]);
                }
            }
            for (l, n_l) in ns[..lanes].iter().copied().enumerate() {
                for j in min_n + 1..=n_l {
                    am[l] = am[l].max(m_cur[j][l]);
                    ax[l] = ax[l].max(x_cur[j][l]);
                    ay[l] = ay[l].max(y_cur[j][l]);
                }
            }
            for (l, n_l) in ns[..lanes].iter().copied().enumerate() {
                let row_max = am[l].max(ax[l]).max(ay[l]);
                if row_max > 0.0 && !(1e-280..=1e280).contains(&row_max) {
                    let inv = 1.0 / row_max;
                    for j in 0..=n_l {
                        m_cur[j][l] *= inv;
                        x_cur[j][l] *= inv;
                        y_cur[j][l] *= inv;
                    }
                    log_scale[l] += row_max.log10();
                }
            }
            std::mem::swap(&mut m_prev, &mut m_cur);
            std::mem::swap(&mut x_prev, &mut x_cur);
            std::mem::swap(&mut y_prev, &mut y_cur);
        }

        // Free end: per lane, sum the final read row in the scalar's
        // column order.
        for (l, &k) in group.iter().enumerate() {
            let mut total = 0.0f64;
            for j in 0..=ns[l] {
                total += m_prev[j][l] + x_prev[j][l];
            }
            out[k] = if total <= 0.0 { f64::NEG_INFINITY } else { total.log10() + log_scale[l] };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpf_formats::quality::phred_to_char;

    fn q(n: usize, phred: u8) -> Vec<u8> {
        vec![phred_to_char(phred); n]
    }

    const HAP: &[u8] = b"ACGTACGGTACGTTACGGATCCGATCGATTACGACGTACGGTACGTTACG";

    #[test]
    fn perfect_read_beats_mismatched_read() {
        let read = &HAP[10..40];
        let good = log10_likelihood(read, &q(30, 30), HAP, &HmmParams::default());
        let mut bad = read.to_vec();
        bad[15] = if bad[15] == b'A' { b'C' } else { b'A' };
        let worse = log10_likelihood(&bad, &q(30, 30), HAP, &HmmParams::default());
        assert!(good > worse + 1.0, "good {good} vs bad {worse}");
    }

    #[test]
    fn likelihood_is_a_probability() {
        let read = &HAP[5..35];
        let l = log10_likelihood(read, &q(30, 30), HAP, &HmmParams::default());
        assert!(l <= 0.0, "log10 prob must be ≤ 0: {l}");
        assert!(l.is_finite());
    }

    #[test]
    fn low_quality_mismatch_is_forgiven() {
        let mut read = HAP[10..40].to_vec();
        read[20] = if read[20] == b'G' { b'T' } else { b'G' };
        let mut quals = q(30, 35);
        let high_q = log10_likelihood(&read, &quals, HAP, &HmmParams::default());
        quals[20] = phred_to_char(2); // the mismatching base is marked unreliable
        let low_q = log10_likelihood(&read, &quals, HAP, &HmmParams::default());
        assert!(low_q > high_q, "low-q mismatch {low_q} vs high-q mismatch {high_q}");
    }

    #[test]
    fn matching_haplotype_beats_wrong_haplotype() {
        let hap_alt: Vec<u8> = HAP
            .iter()
            .map(|&b| if b == b'A' { b'C' } else { b })
            .collect();
        let read = &HAP[10..40];
        let own = log10_likelihood(read, &q(30, 30), HAP, &HmmParams::default());
        let other = log10_likelihood(read, &q(30, 30), &hap_alt, &HmmParams::default());
        assert!(own > other + 3.0);
    }

    #[test]
    fn indel_read_prefers_indel_haplotype() {
        // Read carries a 4bp deletion relative to HAP.
        let mut read = HAP[10..25].to_vec();
        read.extend_from_slice(&HAP[29..44]);
        let mut hap_del = HAP[..25].to_vec();
        hap_del.extend_from_slice(&HAP[29..]);
        let on_ref = log10_likelihood(&read, &q(30, 30), HAP, &HmmParams::default());
        let on_alt = log10_likelihood(&read, &q(30, 30), &hap_del, &HmmParams::default());
        assert!(on_alt > on_ref + 2.0, "alt {on_alt} vs ref {on_ref}");
    }

    #[test]
    fn n_bases_are_neutral() {
        let mut read = HAP[10..40].to_vec();
        let clean = log10_likelihood(&read, &q(30, 30), HAP, &HmmParams::default());
        read[5] = b'N';
        let with_n = log10_likelihood(&read, &q(30, 30), HAP, &HmmParams::default());
        // An N costs roughly a mismatch emission but must not zero out.
        assert!(with_n.is_finite());
        assert!(with_n < clean);
        assert!(with_n > clean - 6.0);
    }

    #[test]
    fn long_read_does_not_underflow() {
        let hap: Vec<u8> = HAP.iter().cycle().take(3000).copied().collect();
        let read = &hap[100..1100]; // 1000bp read
        let l = log10_likelihood(read, &q(1000, 30), &hap, &HmmParams::default());
        assert!(l.is_finite(), "scaled DP survives 1000bp: {l}");
    }

    #[test]
    fn empty_inputs_are_impossible() {
        assert_eq!(
            log10_likelihood(b"", b"", HAP, &HmmParams::default()),
            f64::NEG_INFINITY
        );
        assert_eq!(
            log10_likelihood(b"ACGT", &q(4, 30), b"", &HmmParams::default()),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn batch_is_bit_identical_to_scalar() {
        let read = &HAP[10..40];
        let quals = q(30, 30);
        let hap_alt: Vec<u8> = HAP.iter().map(|&b| if b == b'C' { b'G' } else { b }).collect();
        let haps: Vec<&[u8]> = vec![HAP, &hap_alt, &HAP[5..45]];
        let mut batch = PairHmmBatch::new(HmmParams::default());
        let got = batch.likelihoods(read, &quals, haps.iter().copied());
        for (h, g) in haps.iter().zip(&got) {
            let want = log10_likelihood(read, &quals, h, &HmmParams::default());
            assert_eq!(g.to_bits(), want.to_bits(), "batch must be bit-equal");
        }
        // Reuse across reads keeps buffers clean.
        let read2 = &HAP[0..25];
        let quals2 = q(25, 20);
        let got2 = batch.likelihoods(read2, &quals2, haps.iter().copied());
        for (h, g) in haps.iter().zip(&got2) {
            let want = log10_likelihood(read2, &quals2, h, &HmmParams::default());
            assert_eq!(g.to_bits(), want.to_bits(), "reused buffers must stay clean");
        }
    }

    #[test]
    fn batch_is_total_over_hostile_input() {
        let mut batch = PairHmmBatch::new(HmmParams::default());
        let haps: Vec<&[u8]> = vec![HAP, b""];
        // Length mismatch: no panic, NEG_INFINITY everywhere.
        let bad = batch.likelihoods(b"ACGT", b"II", haps.iter().copied());
        assert!(bad.iter().all(|l| *l == f64::NEG_INFINITY));
        // Empty read.
        let empty = batch.likelihoods(b"", b"", haps.iter().copied());
        assert!(empty.iter().all(|l| *l == f64::NEG_INFINITY));
        // Quality bytes outside the phred range clamp instead of panicking,
        // and never produce NaN.
        let wild = batch.likelihoods(b"ACGT", &[0u8, 31, 127, 255], haps.iter().copied());
        assert_eq!(wild[1], f64::NEG_INFINITY); // empty haplotype
        assert!(wild[0].is_finite() && !wild[0].is_nan());
        // All-N read stays finite (every base emits the miscall floor).
        let all_n = batch.likelihoods(b"NNNN", &q(4, 30), [HAP].into_iter());
        assert!(all_n[0].is_finite());
    }
}
