//! Hot-path perf benchmarks and the ratio gates CI defends them with.
//!
//! Four entry points, wired to `experiments --codec-bench`,
//! `--shuffle-bench`, `--skew-bench`, and `--kernel-bench`:
//!
//! * [`codec_bench`] — read-field encode/decode throughput (MB/s over raw
//!   `seq+qual` bytes) of the word-level/table-driven codec vs the retained
//!   scalar reference in [`gpf_compress::reference`]. Appends one summary
//!   line to `BENCH_codec.json`. Floor: **2×** on both directions.
//! * [`shuffle_bench`] — records/s of a hash repartition through the
//!   clone-free consuming shuffle vs
//!   [`Dataset::partition_by_reference`], measured as paired rounds so the
//!   two sides always sample the same machine state. Appends one summary
//!   line to `BENCH_shuffle.json`. Floor: **1.5×**.
//! * [`skew_bench`] — the adaptive-repartition gate (paper §4.4): runs the
//!   deterministic skewed workload unsplit and adaptively, checks the two
//!   outputs are byte-identical, and holds the straggler-tail reduction
//!   (max/median task CPU of the compute stage) to [`SKEW_FLOOR`]. Appends
//!   one summary line — including 2048-core simulated makespans and the
//!   64-piece-cap hits — to `BENCH_skew.json`.
//! * [`kernel_bench`] — cell throughput (million DP cells/s) of the SWAR
//!   banded Smith–Waterman vs [`gpf_align::sw::reference::fit_align_ref`]
//!   and of the batched pair-HMM vs the scalar
//!   [`gpf_caller::pairhmm::log10_likelihood`], measured as paired rounds
//!   on identical inputs (both sides walk the same cells, so the time
//!   ratio is the throughput ratio). Appends one summary line to
//!   `BENCH_kernels.json`. Floor: **2×** on both kernels.
//!
//! Both take real timings even under `--smoke` (smoke only shrinks the
//! workload): a perf gate measured from a single untimed iteration would
//! flake, and a flaky gate is worse than no gate. The experiments binary
//! exits 3 when [`GateReport::passed`] is false — the same contract as
//! `--trace-overhead`.

use crate::workload::SkewedWorkload;
use gpf_compress::qualcodec::QualityCodec;
use gpf_compress::reference::{compress_read_fields_ref, decompress_read_fields_ref};
use gpf_compress::sequence::{
    compress_read_fields, compress_read_fields_into, decompress_read_fields_into, CompressedRead,
    ReadCodecScratch,
};
use gpf_engine::sim::simulate;
use gpf_engine::{Dataset, EngineConfig, EngineContext, JobRun, SimCluster, SimOptions};
use gpf_support::bench::{black_box, BenchmarkGroup, Criterion, Throughput};
use gpf_support::rng::SplitMix64;
use std::sync::Arc;

/// Minimum accepted speedup of the fast codec over the scalar reference.
pub const CODEC_FLOOR: f64 = 2.0;
/// Minimum accepted speedup of the clone-free shuffle over the reference.
pub const SHUFFLE_FLOOR: f64 = 1.5;
/// Minimum accepted straggler-tail (max/median task CPU) reduction of the
/// adaptive repartition over the unsplit layout on the skewed workload.
pub const SKEW_FLOOR: f64 = 1.3;
/// Minimum accepted cell-throughput speedup of the SWAR Smith–Waterman and
/// the batched pair-HMM over their retained scalar references.
pub const KERNEL_FLOOR: f64 = 2.0;

/// Outcome of one perf gate: the JSON summary line that was appended to
/// the `BENCH_*.json` artifact, and the measured worst-case ratio.
pub struct GateReport {
    /// The summary line appended to the artifact file.
    pub json_line: String,
    /// Worst measured new/reference speedup across the gate's benchmarks.
    pub worst_ratio: f64,
    /// The floor the ratio is held to.
    pub floor: f64,
}

impl GateReport {
    /// Did the measured speedup clear the floor?
    pub fn passed(&self) -> bool {
        self.worst_ratio >= self.floor
    }
}

/// Deterministic FASTQ-shaped reads: ~1% `N`s, random-walk qualities
/// (adjacent scores correlate, as in the paper's Figure 5 corpus).
fn gen_reads(n: usize, len: usize, seed: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let mut seq = Vec::with_capacity(len);
            let mut qual = Vec::with_capacity(len);
            let mut q = 60i64;
            for _ in 0..len {
                let r = rng.next_u64();
                seq.push(if r.is_multiple_of(97) { b'N' } else { b"AGCT"[(r >> 8) as usize % 4] });
                q = (q + (r >> 16) as i64 % 5 - 2).clamp(33, 73);
                qual.push(q as u8);
            }
            (seq, qual)
        })
        .collect()
}

fn last_median_ns(group: &BenchmarkGroup<'_>) -> f64 {
    group.last_stats().map(|s| s.median_ns).unwrap_or(f64::INFINITY)
}

fn mb_per_s(bytes: u64, median_ns: f64) -> f64 {
    bytes as f64 / 1e6 / (median_ns * 1e-9)
}

fn append_artifact(path: &str, line: &str) {
    use std::io::Write;
    match std::fs::OpenOptions::new().create(true).append(true).open(path) {
        Ok(mut f) => {
            let _ = writeln!(f, "{line}");
        }
        Err(e) => gpf_trace::sink::console_err(&format!("perf: cannot append {path}: {e}")),
    }
}

/// Codec gate: time the fast and reference read-field codecs over the same
/// corpus and hold fast/reference to [`CODEC_FLOOR`] on both directions.
pub fn codec_bench(smoke: bool) -> GateReport {
    let (nreads, readlen) = if smoke { (256, 100) } else { (2048, 100) };
    let reads = gen_reads(nreads, readlen, 0xc0de_c0de_2018);
    let codec = QualityCodec::default_codec();
    let total_bytes: u64 = reads.iter().map(|(s, q)| (s.len() + q.len()) as u64).sum();
    let compressed: Vec<CompressedRead> = reads
        .iter()
        .map(|(s, q)| {
            // gpf-lint: allow(no-panic): the generator above only emits
            // AGCTN bases and in-range qualities.
            compress_read_fields(s, q, &codec).expect("generated reads are encodable")
        })
        .collect();

    let mut crit = Criterion::default().smoke(false);
    let mut group = crit.benchmark_group("codec");
    group.throughput(Throughput::Bytes(total_bytes)).sample_size(if smoke { 10 } else { 20 });

    let mut scratch = ReadCodecScratch::default();
    group.bench_function("encode/new", |b| {
        b.iter(|| {
            let mut sink = 0u64;
            for (s, q) in &reads {
                let parts = compress_read_fields_into(s, q, &codec, &mut scratch)
                    // gpf-lint: allow(no-panic): same corpus as above.
                    .expect("generated reads are encodable");
                sink = sink.wrapping_add(parts.qual_stream.len() as u64);
            }
            sink
        });
    });
    let enc_new_ns = last_median_ns(&group);

    group.bench_function("encode/reference", |b| {
        b.iter(|| {
            let mut sink = 0u64;
            for (s, q) in &reads {
                let c = compress_read_fields_ref(s, q, &codec)
                    // gpf-lint: allow(no-panic): same corpus as above.
                    .expect("generated reads are encodable");
                sink = sink.wrapping_add(c.qual_stream.len() as u64);
            }
            sink
        });
    });
    let enc_ref_ns = last_median_ns(&group);

    let mut seq_out = Vec::new();
    let mut qual_out = Vec::new();
    group.bench_function("decode/new", |b| {
        b.iter(|| {
            let mut sink = 0u64;
            for c in &compressed {
                decompress_read_fields_into(
                    c.len,
                    &c.packed_seq,
                    &c.qual_stream,
                    &c.n_quals,
                    &codec,
                    &mut seq_out,
                    &mut qual_out,
                )
                // gpf-lint: allow(no-panic): decoding bytes this bench
                // itself produced from valid reads.
                .expect("bench-produced stream is valid");
                sink = sink.wrapping_add(seq_out.len() as u64);
            }
            sink
        });
    });
    let dec_new_ns = last_median_ns(&group);

    group.bench_function("decode/reference", |b| {
        b.iter(|| {
            let mut sink = 0u64;
            for c in &compressed {
                let (s, _q) = decompress_read_fields_ref(c, &codec)
                    // gpf-lint: allow(no-panic): decoding bytes this bench
                    // itself produced from valid reads.
                    .expect("bench-produced stream is valid");
                sink = sink.wrapping_add(s.len() as u64);
            }
            sink
        });
    });
    let dec_ref_ns = last_median_ns(&group);
    group.finish();

    let encode_ratio = enc_ref_ns / enc_new_ns;
    let decode_ratio = dec_ref_ns / dec_new_ns;
    let json_line = format!(
        "{{\"group\":\"codec\",\"bench\":\"gate\",\"reads\":{nreads},\"read_len\":{readlen},\
         \"bytes_per_iter\":{total_bytes},\
         \"encode_new_mbps\":{:.1},\"encode_ref_mbps\":{:.1},\
         \"decode_new_mbps\":{:.1},\"decode_ref_mbps\":{:.1},\
         \"encode_ratio\":{encode_ratio:.2},\"decode_ratio\":{decode_ratio:.2},\
         \"floor\":{CODEC_FLOOR},\"smoke\":{smoke}}}",
        mb_per_s(total_bytes, enc_new_ns),
        mb_per_s(total_bytes, enc_ref_ns),
        mb_per_s(total_bytes, dec_new_ns),
        mb_per_s(total_bytes, dec_ref_ns),
    );
    append_artifact("BENCH_codec.json", &json_line);
    GateReport { json_line, worst_ratio: encode_ratio.min(decode_ratio), floor: CODEC_FLOOR }
}

fn median_ns(samples: &mut [u64]) -> f64 {
    if samples.is_empty() {
        return f64::INFINITY;
    }
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// Shuffle gate: paired rounds of the same hash repartition — each round
/// builds two identical fresh inputs and times one consuming clone-free
/// shuffle and one [`Dataset::partition_by_reference`] back to back, in
/// alternating order, holding the ratio of per-side median times to
/// [`SHUFFLE_FLOOR`] as records/s.
///
/// Pairing is the point: on a busy single-core host, two long separately
/// timed loops sample different machine states and the ratio inherits the
/// drift. Timing both sides within each round (build, drop, and trace
/// drain all outside the timed window) cancels it — only the shuffles
/// themselves are compared. The fast side owns its input solely, so every
/// timed call takes the move path; the reference clones every record and
/// regrows scratch from empty, which is exactly the retained seed
/// behavior.
pub fn shuffle_bench(smoke: bool) -> GateReport {
    let nrecords: usize = if smoke { 20_000 } else { 40_000 };
    let in_parts = 8usize;
    let out_parts = 16usize;
    let payload_len = 200usize;
    let rounds = if smoke { 9 } else { 15 };
    let mut rng = SplitMix64::new(0x5aff_f1e5_2018);
    let data: Vec<(u64, String)> = (0..nrecords as u64)
        .map(|i| {
            let mut s = String::with_capacity(payload_len);
            while s.len() < payload_len {
                s.push_str(&format!("{:016x}", rng.next_u64()));
            }
            s.truncate(payload_len);
            (i, s)
        })
        .collect();
    let route = move |kv: &(u64, String)| {
        (gpf_engine::dataset::stable_hash(&kv.0) % out_parts as u64) as usize
    };

    let ctx = EngineContext::new(EngineConfig::default());
    let build = |ctx: &Arc<EngineContext>| {
        Dataset::from_vec(Arc::clone(ctx), data.clone(), in_parts)
    };

    let mut new_samples = Vec::with_capacity(rounds);
    let mut ref_samples = Vec::with_capacity(rounds);
    // Two untimed warmup rounds populate the scratch pool and fault in the
    // working set before anything is measured.
    for round in 0..rounds + 2 {
        let time_new = |out: &mut Vec<u64>, timed: bool| {
            let din = build(&ctx);
            let t0 = gpf_trace::clock::now_ns();
            let part = din.into_partition_by(out_parts, route);
            let dt = gpf_trace::clock::now_ns().saturating_sub(t0);
            black_box(part.len());
            if timed {
                out.push(dt);
            }
            drop(part);
            let _ = ctx.take_run();
        };
        let time_ref = |out: &mut Vec<u64>, timed: bool| {
            let din = build(&ctx);
            let t0 = gpf_trace::clock::now_ns();
            let part = din.partition_by_reference(out_parts, route);
            let dt = gpf_trace::clock::now_ns().saturating_sub(t0);
            black_box(part.len());
            if timed {
                out.push(dt);
            }
            drop(part);
            let _ = ctx.take_run();
        };
        let timed = round >= 2;
        // Alternate which side goes first so neither systematically
        // inherits a warmer cache or allocator.
        if round % 2 == 0 {
            time_new(&mut new_samples, timed);
            time_ref(&mut ref_samples, timed);
        } else {
            time_ref(&mut ref_samples, timed);
            time_new(&mut new_samples, timed);
        }
    }
    let new_ns = median_ns(&mut new_samples);
    let ref_ns = median_ns(&mut ref_samples);

    let ratio = ref_ns / new_ns;
    let recs = |ns: f64| nrecords as f64 / (ns * 1e-9);
    let json_line = format!(
        "{{\"group\":\"shuffle\",\"bench\":\"gate\",\"records\":{nrecords},\
         \"in_parts\":{in_parts},\"out_parts\":{out_parts},\
         \"payload_len\":{payload_len},\"rounds\":{rounds},\
         \"new_recs_per_s\":{:.0},\"ref_recs_per_s\":{:.0},\
         \"ratio\":{ratio:.2},\"floor\":{SHUFFLE_FLOOR},\"smoke\":{smoke}}}",
        recs(new_ns),
        recs(ref_ns),
    );
    append_artifact("BENCH_shuffle.json", &json_line);
    GateReport { json_line, worst_ratio: ratio, floor: SHUFFLE_FLOOR }
}

/// Straggler tail of the compute stage: max over median task CPU seconds.
/// The compute stage is the last recorded stage (shuffle read + the fused
/// pileup narrow op), so its per-task CPU is exactly the per-final-partition
/// load the repartition is supposed to level.
fn straggler_tail(run: &JobRun) -> (f64, f64) {
    let Some(stage) = run.stages.last() else {
        return (f64::INFINITY, f64::INFINITY);
    };
    let mut cpu: Vec<f64> = stage.task_cpu_s.clone();
    if cpu.is_empty() {
        return (f64::INFINITY, f64::INFINITY);
    }
    cpu.sort_unstable_by(|a, b| a.total_cmp(b));
    let max = cpu[cpu.len() - 1];
    let median = cpu[cpu.len() / 2].max(1e-12);
    let p95 = cpu[(cpu.len() * 95 / 100).min(cpu.len() - 1)];
    (max / median, p95)
}

/// Adaptive-repartition gate: the skewed workload run twice — once on the
/// static base layout, once through the dynamic count-pass/split-table path
/// — must (a) produce byte-identical canonical output (divergence zeroes
/// the ratio, failing the gate outright) and (b) cut the compute stage's
/// straggler tail by at least [`SKEW_FLOOR`]. The summary line also carries
/// simulated 2048-core makespans of both runs and the split decision
/// (splits, moved records, and any 64-piece cap hits — the cap is a
/// reported signal here, never a silent truncation).
pub fn skew_bench(smoke: bool) -> GateReport {
    let scale = if smoke { 0.2 } else { 1.0 };
    let w = SkewedWorkload::build(scale, 0x5e_2018);
    let unsplit = w.run(false);
    let adaptive = w.run(true);

    let identical = unsplit.canonical == adaptive.canonical;
    let (tail_unsplit, p95_unsplit) = straggler_tail(&unsplit.run);
    let (tail_adaptive, p95_adaptive) = straggler_tail(&adaptive.run);
    let tail_ratio = if identical { tail_unsplit / tail_adaptive } else { 0.0 };

    let cluster = SimCluster::paper_cluster(2048);
    let opts = SimOptions::default();
    let makespan_unsplit = simulate(&unsplit.run, &cluster, &opts).makespan_s;
    let makespan_adaptive = simulate(&adaptive.run, &cluster, &opts).makespan_s;

    let json_line = format!(
        "{{\"group\":\"skew\",\"bench\":\"gate\",\"records\":{},\
         \"base_parts\":{},\"final_parts\":{},\
         \"splits\":{},\"moved_records\":{},\"cap_hits\":{},\
         \"identical\":{identical},\
         \"tail_unsplit\":{tail_unsplit:.2},\"tail_adaptive\":{tail_adaptive:.2},\
         \"tail_ratio\":{tail_ratio:.2},\
         \"task_p95_unsplit_s\":{p95_unsplit:.4},\"task_p95_adaptive_s\":{p95_adaptive:.4},\
         \"sim2048_makespan_unsplit_s\":{makespan_unsplit:.3},\
         \"sim2048_makespan_adaptive_s\":{makespan_adaptive:.3},\
         \"floor\":{SKEW_FLOOR},\"smoke\":{smoke}}}",
        w.records.len(),
        unsplit.n_partitions,
        adaptive.n_partitions,
        adaptive.splits,
        adaptive.moved_records,
        adaptive.cap_hits,
    );
    append_artifact("BENCH_skew.json", &json_line);
    GateReport { json_line, worst_ratio: tail_ratio, floor: SKEW_FLOOR }
}

/// One banded-SW case: a read, the window it came from, and the diagonal
/// hint an aligner would pass. Windows embed the read at a known offset
/// with ~2% substitutions, so the DP does realistic work (mostly matches,
/// a few mismatch cells) instead of degenerate all-mismatch rows.
struct SwCase {
    read: Vec<u8>,
    window: Vec<u8>,
    diag: usize,
}

fn gen_sw_cases(n: usize, read_len: usize, flank: usize, seed: u64) -> Vec<SwCase> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let read: Vec<u8> = (0..read_len).map(|_| (rng.next_u64() % 4) as u8).collect();
            let mut window = Vec::with_capacity(read_len + 2 * flank);
            for _ in 0..flank {
                window.push((rng.next_u64() % 4) as u8);
            }
            for &b in &read {
                let r = rng.next_u64();
                window.push(if r.is_multiple_of(50) { (b + 1 + (r >> 8) as u8 % 3) % 4 } else { b });
            }
            for _ in 0..flank {
                window.push((rng.next_u64() % 4) as u8);
            }
            SwCase { read, window, diag: flank }
        })
        .collect()
}

/// Banded cells one `fit_align` call touches (same formula both kernels).
fn sw_cells(read_len: usize, window_len: usize, diag: usize, band: usize) -> u64 {
    (0..=read_len)
        .map(|i| {
            let lo = (i + diag).saturating_sub(band);
            let hi = (i + diag + band + 1).min(window_len + 1);
            hi.saturating_sub(lo) as u64
        })
        .sum()
}

/// One pair-HMM "active region": a read with qualities plus the haplotype
/// set the genotyper would evaluate it against (reference haplotype and a
/// few single-base variants of it).
struct HmmRegion {
    read: Vec<u8>,
    qual: Vec<u8>,
    haps: Vec<Vec<u8>>,
}

fn gen_hmm_regions(n: usize, read_len: usize, hap_len: usize, nhaps: usize, seed: u64) -> Vec<HmmRegion> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let base: Vec<u8> =
                (0..hap_len).map(|_| b"ACGT"[(rng.next_u64() % 4) as usize]).collect();
            let off = (rng.next_u64() as usize) % (hap_len - read_len);
            let mut read = base[off..off + read_len].to_vec();
            let mut qual = Vec::with_capacity(read_len);
            let mut q = 60i64;
            for b in read.iter_mut() {
                let r = rng.next_u64();
                if r.is_multiple_of(100) {
                    *b = b"ACGT"[(r >> 8) as usize % 4];
                }
                q = (q + (r >> 16) as i64 % 5 - 2).clamp(33, 73);
                qual.push(q as u8);
            }
            let haps = (0..nhaps)
                .map(|k| {
                    let mut h = base.clone();
                    for _ in 0..k {
                        let at = (rng.next_u64() as usize) % hap_len;
                        h[at] = b"ACGT"[(rng.next_u64() % 4) as usize];
                    }
                    h
                })
                .collect();
            HmmRegion { read, qual, haps }
        })
        .collect()
}

/// Kernel gate: paired rounds of the SWAR banded SW vs the scalar
/// reference and the batched pair-HMM vs the scalar reference, on
/// identical inputs. Each round times both sides back to back in
/// alternating order (same pairing rationale as [`shuffle_bench`]); the
/// per-side medians give cell throughput, and the fast/reference ratio of
/// each kernel is held to [`KERNEL_FLOOR`].
///
/// Both sides of each comparison walk exactly the same DP cells — the SW
/// band geometry and the pair-HMM `m×n` rectangles are input-determined —
/// so the time ratio *is* the cell-throughput ratio.
pub fn kernel_bench(smoke: bool) -> GateReport {
    use gpf_align::sw::{self, reference::fit_align_ref, Scoring};
    use gpf_caller::pairhmm::{log10_likelihood, HmmParams, PairHmmBatch};

    let (sw_n, hmm_n, rounds) = if smoke { (200, 48, 9) } else { (800, 192, 15) };
    let (read_len, flank) = (150usize, 75usize);
    let sc = Scoring::default();
    let cases = gen_sw_cases(sw_n, read_len, flank, 0x5aa5_2018);
    let sw_cells_per_iter: u64 = cases
        .iter()
        .map(|c| sw_cells(c.read.len(), c.window.len(), c.diag, sc.band))
        .sum();

    let (hmm_read_len, hap_len, nhaps) = (120usize, 250usize, 4usize);
    let regions = gen_hmm_regions(hmm_n, hmm_read_len, hap_len, nhaps, 0x4a11_2018);
    let params = HmmParams::default();
    let hmm_cells_per_iter: u64 =
        regions.iter().map(|r| (r.read.len() * r.haps.len() * hap_len) as u64).sum();

    let mut sw_new = Vec::with_capacity(rounds);
    let mut sw_ref = Vec::with_capacity(rounds);
    let mut hmm_new = Vec::with_capacity(rounds);
    let mut hmm_ref = Vec::with_capacity(rounds);
    let mut batch = PairHmmBatch::new(params);
    for round in 0..rounds + 2 {
        let timed = round >= 2; // two untimed warmup rounds
        let time_sw_new = |out: &mut Vec<u64>, timed: bool| {
            let t0 = gpf_trace::clock::now_ns();
            let mut sink = 0i64;
            for c in &cases {
                if let Some(a) = sw::fit_align(&c.read, &c.window, c.diag, &sc) {
                    sink = sink.wrapping_add(a.score as i64);
                }
            }
            let dt = gpf_trace::clock::now_ns().saturating_sub(t0);
            black_box(sink);
            if timed {
                out.push(dt);
            }
        };
        let time_sw_ref = |out: &mut Vec<u64>, timed: bool| {
            let t0 = gpf_trace::clock::now_ns();
            let mut sink = 0i64;
            for c in &cases {
                if let Some(a) = fit_align_ref(&c.read, &c.window, c.diag, &sc) {
                    sink = sink.wrapping_add(a.score as i64);
                }
            }
            let dt = gpf_trace::clock::now_ns().saturating_sub(t0);
            black_box(sink);
            if timed {
                out.push(dt);
            }
        };
        let mut time_hmm_new = |out: &mut Vec<u64>, timed: bool| {
            let t0 = gpf_trace::clock::now_ns();
            let mut sink = 0.0f64;
            for r in &regions {
                for l in batch.likelihoods(&r.read, &r.qual, r.haps.iter().map(|h| h.as_slice())) {
                    sink += l;
                }
            }
            let dt = gpf_trace::clock::now_ns().saturating_sub(t0);
            black_box(sink);
            if timed {
                out.push(dt);
            }
        };
        let time_hmm_ref = |out: &mut Vec<u64>, timed: bool| {
            let t0 = gpf_trace::clock::now_ns();
            let mut sink = 0.0f64;
            for r in &regions {
                for h in &r.haps {
                    sink += log10_likelihood(&r.read, &r.qual, h, &params);
                }
            }
            let dt = gpf_trace::clock::now_ns().saturating_sub(t0);
            black_box(sink);
            if timed {
                out.push(dt);
            }
        };
        // Alternate which side of each pair goes first so neither
        // systematically inherits a warmer cache.
        if round % 2 == 0 {
            time_sw_new(&mut sw_new, timed);
            time_sw_ref(&mut sw_ref, timed);
            time_hmm_new(&mut hmm_new, timed);
            time_hmm_ref(&mut hmm_ref, timed);
        } else {
            time_sw_ref(&mut sw_ref, timed);
            time_sw_new(&mut sw_new, timed);
            time_hmm_ref(&mut hmm_ref, timed);
            time_hmm_new(&mut hmm_new, timed);
        }
    }
    let sw_new_ns = median_ns(&mut sw_new);
    let sw_ref_ns = median_ns(&mut sw_ref);
    let hmm_new_ns = median_ns(&mut hmm_new);
    let hmm_ref_ns = median_ns(&mut hmm_ref);
    let sw_ratio = sw_ref_ns / sw_new_ns;
    let hmm_ratio = hmm_ref_ns / hmm_new_ns;
    let mcps = |cells: u64, ns: f64| cells as f64 / (ns * 1e-9) / 1e6;

    let json_line = format!(
        "{{\"group\":\"kernels\",\"bench\":\"gate\",\"rounds\":{rounds},\
         \"sw_reads\":{sw_n},\"sw_read_len\":{read_len},\"sw_band\":{},\
         \"sw_cells_per_iter\":{sw_cells_per_iter},\
         \"sw_new_mcells_s\":{:.1},\"sw_ref_mcells_s\":{:.1},\"sw_ratio\":{sw_ratio:.2},\
         \"hmm_regions\":{hmm_n},\"hmm_read_len\":{hmm_read_len},\
         \"hmm_haps\":{nhaps},\"hmm_hap_len\":{hap_len},\
         \"hmm_cells_per_iter\":{hmm_cells_per_iter},\
         \"hmm_new_mcells_s\":{:.1},\"hmm_ref_mcells_s\":{:.1},\"hmm_ratio\":{hmm_ratio:.2},\
         \"floor\":{KERNEL_FLOOR},\"smoke\":{smoke}}}",
        sc.band,
        mcps(sw_cells_per_iter, sw_new_ns),
        mcps(sw_cells_per_iter, sw_ref_ns),
        mcps(hmm_cells_per_iter, hmm_new_ns),
        mcps(hmm_cells_per_iter, hmm_ref_ns),
    );
    append_artifact("BENCH_kernels.json", &json_line);
    GateReport { json_line, worst_ratio: sw_ratio.min(hmm_ratio), floor: KERNEL_FLOOR }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_reads_are_encodable_and_deterministic() {
        let a = gen_reads(8, 50, 7);
        let b = gen_reads(8, 50, 7);
        assert_eq!(a, b);
        let codec = QualityCodec::default_codec();
        for (s, q) in &a {
            compress_read_fields(s, q, &codec).unwrap();
        }
    }

    #[test]
    fn gate_report_pass_logic() {
        let r = GateReport { json_line: String::new(), worst_ratio: 2.0, floor: 1.5 };
        assert!(r.passed());
        let r = GateReport { json_line: String::new(), worst_ratio: 1.49, floor: 1.5 };
        assert!(!r.passed());
    }
}
