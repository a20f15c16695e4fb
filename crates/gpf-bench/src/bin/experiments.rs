//! Experiment driver: regenerate any table/figure of the paper's evaluation.
//!
//! ```text
//! experiments <id>[,<id>...] [--scale X]
//! experiments all [--scale X]
//! experiments --smoke
//! experiments --smoke --trace out.json     # traced WGS run -> Chrome JSON
//! experiments --validate-trace out.json    # schema-check a trace file
//! experiments --smoke --trace-overhead     # measure tracing cost (<5%)
//! ```
//!
//! Ids: table1 table3 table4 table5 fig5 fig10 fig11a fig11b fig11c fig11d
//! fig12 fig13. `--scale` (or `GPF_SCALE`) shrinks/grows the workload;
//! 1.0 ≈ a 1 Mb genome at 20×. `--smoke` runs every requested experiment
//! at a tiny fixed scale — a CI-speed check that each code path still
//! executes, not a measurement.

use gpf_bench::experiments::{self, Lab};
use gpf_bench::ExperimentReport;
use gpf_trace::sink::{self, console_err, console_out};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = gpf_bench::env_scale();
    let mut smoke = false;
    let mut trace_path: Option<String> = None;
    let mut validate_path: Option<String> = None;
    let mut trace_overhead = false;
    let mut mem_report = false;
    let mut mem_gate = false;
    let mut mem_budget_bench = false;
    let mut allow_drops = false;
    let mut codec_gate = false;
    let mut shuffle_gate = false;
    let mut skew_gate = false;
    let mut kernel_gate = false;
    let mut chaos_seed: Option<u64> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--trace" => {
                i += 1;
                trace_path =
                    Some(args.get(i).cloned().unwrap_or_else(|| die("--trace needs a path")));
            }
            "--validate-trace" => {
                i += 1;
                validate_path = Some(
                    args.get(i).cloned().unwrap_or_else(|| die("--validate-trace needs a path")),
                );
            }
            "--trace-overhead" => trace_overhead = true,
            "--mem-report" => mem_report = true,
            "--mem-gate" => mem_gate = true,
            "--mem-budget-bench" => mem_budget_bench = true,
            "--allow-drops" => allow_drops = true,
            "--codec-bench" => codec_gate = true,
            "--shuffle-bench" => shuffle_gate = true,
            "--skew-bench" => skew_gate = true,
            "--kernel-bench" => kernel_gate = true,
            "--chaos" => {
                // Optional numeric SEED next-arg; omitted -> default seed.
                chaos_seed = Some(match args.get(i + 1).and_then(|s| s.parse().ok()) {
                    Some(seed) => {
                        i += 1;
                        seed
                    }
                    None => 2018,
                });
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments <id>[,<id>...]|all [--scale X] [--smoke]\n\
                     ids: table1 table3 table4 table5 fig5 fig10 fig11a fig11b fig11c fig11d fig12 fig13\n\
                     extra: diag (per-stage task/straggler diagnostics, not a paper artifact)\n\
                     --smoke: tiny fixed scale; verifies code paths, numbers are meaningless\n\
                     --trace PATH: run the WGS pipeline traced; write Chrome JSON to PATH,\n\
                                   print the text report (load PATH at https://ui.perfetto.dev)\n\
                     --validate-trace PATH: schema-check a Chrome trace file; exit 2 on\n\
                                            failure or when events were dropped (ring\n\
                                            overflow) unless --allow-drops is also given\n\
                     --trace-overhead: time the WGS run tracing-off vs tracing-on;\n\
                                       writes BENCH_trace_overhead.json, exit 3 if >= 5%\n\
                     --mem-report: run the WGS pipeline with the tracking allocator on and\n\
                                   print the per-stage heap breakdown + tag attribution\n\
                     --mem-gate: time the traced WGS run heap-tracking-off vs -on;\n\
                                 writes BENCH_mem.json (with per-stage peak bytes),\n\
                                 exit 3 if overhead >= 5%\n\
                     --mem-budget-bench: run the WGS pipeline under memory budgets at\n\
                                         1/2, 1/4 and 1/8 of the materialized footprint;\n\
                                         writes BENCH_memory.json, exit 3 unless every\n\
                                         budgeted run completes byte-identically with\n\
                                         ledger peak <= budget + 64 KiB slack\n\
                     --codec-bench: fast vs reference read-field codec throughput;\n\
                                    writes BENCH_codec.json, exit 3 if speedup < 2x\n\
                     --shuffle-bench: clone-free vs reference shuffle records/s;\n\
                                      writes BENCH_shuffle.json, exit 3 if speedup < 1.5x\n\
                     --skew-bench: adaptive repartition vs static layout on the skewed\n\
                                   workload; writes BENCH_skew.json, exit 3 if the\n\
                                   straggler-tail cut < 1.3x or the outputs diverge\n\
                     --kernel-bench: SWAR Smith-Waterman and batched pair-HMM cell\n\
                                     throughput vs the scalar references; writes\n\
                                     BENCH_kernels.json, exit 3 if either speedup < 2x\n\
                     --chaos [SEED]: run the WGS pipeline under seeded fault plans and\n\
                                     require byte-identical recovery; writes BENCH_chaos.json,\n\
                                     exit 3 on divergence or an unexpected task failure\n\
                     (--smoke shrinks the gate workloads but keeps real timing)"
                );
                return;
            }
            id => ids.extend(id.split(',').map(|s| s.to_string())),
        }
        i += 1;
    }
    if ids.is_empty() {
        ids.push("all".to_string());
    }
    if smoke {
        scale = 0.05;
        console_err(&format!("[smoke] scale forced to {scale}; output verifies code paths only"));
    }

    if let Some(path) = &validate_path {
        validate_trace_file(path, allow_drops);
        return;
    }
    if trace_overhead {
        measure_trace_overhead(scale);
        return;
    }
    if mem_gate {
        measure_mem_gate(scale);
        return;
    }
    if mem_report {
        run_mem_report(scale);
        return;
    }
    if mem_budget_bench {
        run_mem_budget_bench(scale);
        return;
    }
    if codec_gate || shuffle_gate || skew_gate || kernel_gate {
        run_perf_gates(codec_gate, shuffle_gate, skew_gate, kernel_gate, smoke);
        return;
    }
    if let Some(seed) = chaos_seed {
        run_chaos(scale, seed);
        return;
    }
    if let Some(path) = &trace_path {
        run_traced(scale, path);
        return;
    }

    if ids.iter().any(|s| s == "all") {
        for report in experiments::all(scale) {
            report.print();
        }
        return;
    }

    let lab = Lab::new(scale);
    for id in &ids {
        if id == "diag" {
            diagnose(&lab);
            continue;
        }
        let report: ExperimentReport = match id.as_str() {
            "table1" => experiments::table1(),
            "fig5" => experiments::fig5(),
            "fig10" => experiments::fig10(&lab),
            "fig11a" => experiments::fig11a(&lab),
            "fig11b" => experiments::fig11b(&lab),
            "fig11c" => experiments::fig11c(&lab),
            "fig11d" => experiments::fig11d(&lab),
            "table3" => experiments::table3(&lab),
            "table4" => experiments::table4(&lab),
            "fig12" => experiments::fig12(&lab),
            "fig13" => experiments::fig13(&lab),
            "table5" => experiments::table5(&lab),
            other => die(&format!("unknown experiment `{other}`")),
        };
        report.print();
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// `--trace PATH`: run the optimized WGS pipeline with tracing enabled,
/// write the Chrome trace JSON to `path`, and print the terminal report.
fn run_traced(scale: f64, path: &str) {
    gpf_trace::set_enabled(true);
    // Heap tracking rides along on traced runs so the exported trace
    // carries the heap.live_bytes counter track and the text report its
    // memory section.
    gpf_trace::alloc::set_tracking(true);
    let lab = Lab::new(scale);
    let gpf = lab.gpf_opt();
    let json = sink::chrome_trace(&gpf.trace);
    if let Err(e) = std::fs::write(path, &json) {
        die(&format!("cannot write trace to {path}: {e}"));
    }
    console_out(&sink::text_report(&gpf.trace, 10));
    console_err(&format!(
        "trace: {} events ({} dropped), {} stages derived, {} fused chains -> {path} \
         (load at https://ui.perfetto.dev)",
        gpf.trace.events.len(),
        gpf.trace.dropped,
        gpf.run.num_stages(),
        gpf.fused_chains,
    ));
}

/// `--validate-trace PATH`: schema-check a Chrome trace file, and fail when
/// the exporter recorded ring drops (the derived numbers undercount) unless
/// `--allow-drops` waives the check.
fn validate_trace_file(path: &str, allow_drops: bool) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    match sink::validate_chrome_trace(&text) {
        Ok(n) => console_err(&format!("{path}: valid Chrome trace, {n} events")),
        Err(e) => die(&format!("{path}: invalid Chrome trace: {e}")),
    }
    let dropped = parse_gpf_dropped(&text).unwrap_or(0);
    if dropped > 0 {
        if allow_drops {
            console_err(&format!(
                "{path}: {dropped} events dropped (ring overflow) — accepted via --allow-drops"
            ));
        } else {
            die(&format!(
                "{path}: {dropped} events dropped (ring overflow) — derived numbers \
                 undercount; raise the trace capacity or pass --allow-drops"
            ));
        }
    }
}

/// Extract the `"gpfDropped":N` header field the Chrome exporter stamps.
fn parse_gpf_dropped(text: &str) -> Option<u64> {
    let key = "\"gpfDropped\":";
    let at = text.find(key)? + key.len();
    let digits: String = text[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// `--trace-overhead`: wall-clock the WGS run tracing-off vs tracing-on
/// (min of 3 each, on-side includes the Chrome render), append the result
/// to `BENCH_trace_overhead.json`, and exit 3 when overhead reaches 5%.
fn measure_trace_overhead(scale: f64) {
    use std::time::Instant;
    let workload = gpf_bench::workload::WgsWorkload::build(scale, 2018);
    let time_once = |traced: bool| -> f64 {
        gpf_trace::set_enabled(traced);
        let t0 = Instant::now();
        let run = workload.run_gpf(true);
        if traced {
            let _ = sink::chrome_trace(&run.trace).len();
        }
        let dt = t0.elapsed().as_secs_f64();
        gpf_trace::set_enabled(false);
        dt
    };
    let min3 = |traced: bool| (0..3).map(|_| time_once(traced)).fold(f64::INFINITY, f64::min);
    time_once(false); // warmup: page in the workload caches
    let off_s = min3(false);
    let on_s = min3(true);
    let overhead_pct = (on_s / off_s - 1.0) * 100.0;
    let line = format!(
        "{{\"group\":\"trace_overhead\",\"bench\":\"smoke\",\"off_s\":{off_s:.4},\
         \"on_s\":{on_s:.4},\"overhead_pct\":{overhead_pct:.2}}}"
    );
    use std::io::Write;
    match std::fs::OpenOptions::new().create(true).append(true).open("BENCH_trace_overhead.json") {
        Ok(mut f) => {
            let _ = writeln!(f, "{line}");
        }
        Err(e) => console_err(&format!("cannot append BENCH_trace_overhead.json: {e}")),
    }
    console_out(&line);
    if overhead_pct >= 5.0 {
        console_err(&format!("trace overhead {overhead_pct:.2}% >= 5% budget"));
        std::process::exit(3);
    }
}

/// Render the per-stage heap columns of a derived run plus the global tag
/// attribution the tracking allocator accumulated.
fn mem_breakdown(run: &gpf_engine::JobRun) -> String {
    use std::fmt::Write as _;
    let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
    let mut out = String::new();
    let _ = writeln!(out, "per-stage heap (tracking allocator)");
    let _ = writeln!(
        out,
        "{:<4} {:<10} {:<28} {:>10} {:>12} {:>13}",
        "id", "phase", "label", "peak(MB)", "live-end(MB)", "task-peak(MB)"
    );
    for s in &run.stages {
        let _ = writeln!(
            out,
            "{:<4} {:<10} {:<28} {:>10.2} {:>12.2} {:>13.2}",
            s.id,
            s.phase,
            s.label.chars().take(28).collect::<String>(),
            mb(s.heap_peak_bytes),
            mb(s.heap_live_bytes),
            mb(s.heap_task_peak_bytes),
        );
    }
    let total = |name: &str| -> u64 {
        gpf_trace::counters_snapshot()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    use gpf_trace::names as tn;
    let _ = writeln!(
        out,
        "heap tags (MB allocated): task {:.2}  serde {:.2}  shuffle {:.2}  spill {:.2}  \
         repartition {:.2}  untagged {:.2}",
        mb(total(tn::HEAP_TAG_TASK)),
        mb(total(tn::HEAP_TAG_SERDE)),
        mb(total(tn::HEAP_TAG_SHUFFLE)),
        mb(total(tn::HEAP_TAG_SPILL)),
        mb(total(tn::HEAP_TAG_REPARTITION)),
        mb(total(tn::HEAP_TAG_UNTAGGED)),
    );
    let _ = writeln!(
        out,
        "heap totals: {:.2} MB allocated / {:.2} MB freed over {} allocations",
        mb(total(tn::HEAP_ALLOC_BYTES)),
        mb(total(tn::HEAP_FREED_BYTES)),
        total(tn::HEAP_ALLOC_COUNT),
    );
    out
}

/// `--mem-report`: run the WGS pipeline with tracing and the tracking
/// allocator on, then print the trace text report followed by the
/// per-stage heap breakdown and tag attribution.
fn run_mem_report(scale: f64) {
    gpf_trace::set_enabled(true);
    gpf_trace::alloc::set_tracking(true);
    let workload = gpf_bench::workload::WgsWorkload::build(scale, 2018);
    let run = workload.run_gpf(true);
    gpf_trace::alloc::flush_thread_stats();
    gpf_trace::alloc::set_tracking(false);
    gpf_trace::set_enabled(false);
    console_out(&sink::text_report(&run.trace, 10));
    console_out(&mem_breakdown(&run.run));
}

/// `--mem-gate`: wall-clock the *traced* WGS run with heap tracking off vs
/// on (min of 3 each — the tracked side is the marginal allocator cost, not
/// the tracing cost), append a summary with per-stage peak bytes to
/// `BENCH_mem.json`, and exit 3 when tracking overhead reaches 5%.
fn measure_mem_gate(scale: f64) {
    use std::time::Instant;
    let workload = gpf_bench::workload::WgsWorkload::build(scale, 2018);
    let time_once = |tracked: bool| -> f64 {
        gpf_trace::set_enabled(true);
        gpf_trace::alloc::set_tracking(tracked);
        let t0 = Instant::now();
        let _run = workload.run_gpf(true);
        let dt = t0.elapsed().as_secs_f64();
        gpf_trace::alloc::set_tracking(false);
        gpf_trace::set_enabled(false);
        dt
    };
    let min3 = |tracked: bool| (0..3).map(|_| time_once(tracked)).fold(f64::INFINITY, f64::min);
    time_once(false); // warmup: page in the workload caches
    let off_s = min3(false);
    let on_s = min3(true);
    let overhead_pct = (on_s / off_s - 1.0) * 100.0;
    // One final tracked run provides the per-stage heap profile.
    gpf_trace::set_enabled(true);
    gpf_trace::alloc::set_tracking(true);
    let profile = workload.run_gpf(true);
    gpf_trace::alloc::flush_thread_stats();
    gpf_trace::alloc::set_tracking(false);
    gpf_trace::set_enabled(false);
    let stages: Vec<String> = profile
        .run
        .stages
        .iter()
        .map(|s| {
            format!(
                "{{\"id\":{},\"label\":\"{}\",\"peak_bytes\":{},\"live_bytes\":{},\
                 \"task_peak_bytes\":{}}}",
                s.id, s.label, s.heap_peak_bytes, s.heap_live_bytes, s.heap_task_peak_bytes
            )
        })
        .collect();
    let line = format!(
        "{{\"group\":\"mem\",\"bench\":\"sim-wgs\",\"off_s\":{off_s:.4},\"on_s\":{on_s:.4},\
         \"overhead_pct\":{overhead_pct:.2},\"stages\":[{}]}}",
        stages.join(",")
    );
    use std::io::Write;
    match std::fs::OpenOptions::new().create(true).append(true).open("BENCH_mem.json") {
        Ok(mut f) => {
            let _ = writeln!(f, "{line}");
        }
        Err(e) => console_err(&format!("cannot append BENCH_mem.json: {e}")),
    }
    console_out(&line);
    console_out(&mem_breakdown(&profile.run));
    if overhead_pct >= 5.0 {
        console_err(&format!("heap tracking overhead {overhead_pct:.2}% >= 5% budget"));
        std::process::exit(3);
    }
}

/// `--mem-budget-bench`: the bounded-memory streaming gate. One run under
/// an effectively unlimited budget measures the materialized footprint
/// (the accountant's peak with nothing forced to spill); the identical WGS
/// pipeline then re-runs at 1/2, 1/4 and 1/8 of that footprint. Every
/// budgeted run must complete without a breach, emit byte-identical calls,
/// and keep the ledger peak within budget + 64 KiB slack (driver-side
/// buffers the ledger does not track). Appends one line per fraction to
/// `BENCH_memory.json`; exits 3 on any violation.
fn run_mem_budget_bench(scale: f64) {
    use gpf_compress::serializer::{serialize_batch, SerializerKind};
    use gpf_engine::EngineConfig;
    use std::time::Instant;

    const SLACK_BYTES: u64 = 64 * 1024;

    let counter_total = |name: &str| -> u64 {
        gpf_trace::counters_snapshot()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };

    let workload = gpf_bench::workload::WgsWorkload::build(scale, 2018);
    let cfg = |budget: u64| {
        EngineConfig::gpf().with_parallelism(workload.fastq_parts).with_memory_budget(budget)
    };
    let t0 = Instant::now();
    let baseline = match workload.run_gpf_cfg(true, cfg(u64::MAX)) {
        Ok(run) => run,
        Err(e) => die(&format!("unbudgeted WGS run failed: {e}")),
    };
    let base_s = t0.elapsed().as_secs_f64();
    let materialized = baseline.ledger_peak_bytes.unwrap_or(0);
    if materialized == 0 {
        die("accountant recorded no materialized footprint; budget plumbing is broken");
    }
    let base_bytes = serialize_batch(SerializerKind::Gpf, &baseline.calls);
    console_err(&format!(
        "[mem-budget] materialized footprint {materialized} bytes; {} calls \
         ({} bytes) in {base_s:.2}s",
        baseline.calls.len(),
        base_bytes.len(),
    ));

    let mut failed = false;
    let mut lines = Vec::new();
    for denom in [2u64, 4, 8] {
        let budget = (materialized / denom).max(1);
        let spilled0 = counter_total("mem.budget.spilled");
        let spilled_bytes0 = counter_total("mem.budget.spilled_bytes");
        let restored0 = counter_total("mem.budget.restored");
        let t = Instant::now();
        let run = match workload.run_gpf_cfg(true, cfg(budget)) {
            Ok(run) => run,
            Err(e) => {
                console_err(&format!(
                    "[mem-budget] budget {budget} (1/{denom} materialized): \
                     pipeline failed: {e}"
                ));
                failed = true;
                continue;
            }
        };
        let run_s = t.elapsed().as_secs_f64();
        let peak = run.ledger_peak_bytes.unwrap_or(u64::MAX);
        let spilled = counter_total("mem.budget.spilled") - spilled0;
        let spilled_bytes = counter_total("mem.budget.spilled_bytes") - spilled_bytes0;
        let restored = counter_total("mem.budget.restored") - restored0;
        let bytes = serialize_batch(SerializerKind::Gpf, &run.calls);
        let identical = bytes == base_bytes;
        if !identical {
            console_err(&format!(
                "[mem-budget] budget {budget} (1/{denom}): output diverged from the \
                 unbudgeted run ({} vs {} bytes)",
                bytes.len(),
                base_bytes.len(),
            ));
            failed = true;
        }
        if peak > budget + SLACK_BYTES {
            console_err(&format!(
                "[mem-budget] budget {budget} (1/{denom}): ledger peak {peak} exceeds \
                 budget + {SLACK_BYTES} slack"
            ));
            failed = true;
        }
        let line = format!(
            "{{\"group\":\"mem_budget\",\"bench\":\"sim-wgs\",\"denom\":{denom},\
             \"budget_bytes\":{budget},\"materialized_bytes\":{materialized},\
             \"ledger_peak_bytes\":{peak},\"spilled\":{spilled},\
             \"spilled_bytes\":{spilled_bytes},\"restored\":{restored},\
             \"identical\":{identical},\"base_s\":{base_s:.4},\"run_s\":{run_s:.4}}}"
        );
        console_out(&line);
        lines.push(line);
    }
    use std::io::Write;
    match std::fs::OpenOptions::new().create(true).append(true).open("BENCH_memory.json") {
        Ok(mut f) => {
            for line in &lines {
                let _ = writeln!(f, "{line}");
            }
        }
        Err(e) => console_err(&format!("cannot append BENCH_memory.json: {e}")),
    }
    if failed {
        std::process::exit(3);
    }
}

/// `--codec-bench` / `--shuffle-bench` / `--skew-bench` / `--kernel-bench`:
/// measure the hot-path codec, shuffle, and alignment/likelihood kernels
/// against their retained reference implementations and the adaptive
/// repartition against the static layout, append the summary lines to
/// `BENCH_codec.json` / `BENCH_shuffle.json` / `BENCH_skew.json` /
/// `BENCH_kernels.json`, and exit 3 when any ratio falls below its floor
/// (codec 2x, shuffle 1.5x, skew straggler-tail 1.3x, kernels 2x — a skew
/// ratio of 0.00 means the split run's output diverged from the unsplit
/// run).
fn run_perf_gates(codec: bool, shuffle: bool, skew: bool, kernels: bool, smoke: bool) {
    let mut failed = false;
    let mut check = |report: gpf_bench::perf::GateReport, what: &str| {
        console_out(&report.json_line);
        if !report.passed() {
            console_err(&format!(
                "{what} speedup {:.2}x < {:.1}x floor",
                report.worst_ratio, report.floor
            ));
            failed = true;
        }
    };
    if codec {
        check(gpf_bench::perf::codec_bench(smoke), "codec");
    }
    if shuffle {
        check(gpf_bench::perf::shuffle_bench(smoke), "shuffle");
    }
    if skew {
        check(gpf_bench::perf::skew_bench(smoke), "skew straggler-tail");
    }
    if kernels {
        check(gpf_bench::perf::kernel_bench(smoke), "kernel");
    }
    if failed {
        std::process::exit(3);
    }
}

/// `--chaos [SEED]`: run the WGS pipeline fault-free, then under seeded
/// fault plans derived from SEED, and require every recovered run's calls
/// to be byte-identical to the baseline. Appends a summary line to
/// `BENCH_chaos.json`; exits 3 on divergence or an unexpected failure.
/// Each plan's own seed is printed so a divergence replays exactly.
fn run_chaos(scale: f64, seed: u64) {
    use gpf_compress::serializer::{serialize_batch, SerializerKind};
    use gpf_engine::{EngineConfig, FaultConfig, FaultPlan};
    use gpf_support::rng::SplitMix64;
    use std::time::Instant;

    const PLANS: u64 = 3;
    const RATE_PERMILLE: u32 = 25;

    let counter_total = |name: &str| -> u64 {
        gpf_trace::counters_snapshot()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };

    let workload = gpf_bench::workload::WgsWorkload::build(scale, 2018);
    let t0 = Instant::now();
    let baseline = workload.run_gpf(true);
    let base_s = t0.elapsed().as_secs_f64();
    let base_bytes = serialize_batch(SerializerKind::Gpf, &baseline.calls);
    console_err(&format!(
        "[chaos] baseline: {} calls ({} bytes) in {base_s:.2}s; seed {seed}, \
         {PLANS} plans at {RATE_PERMILLE} permille",
        baseline.calls.len(),
        base_bytes.len(),
    ));

    let faults0 = counter_total("fault.injected");
    let retries0 = counter_total("task.retries");
    let recomputed0 = counter_total("shuffle.recomputed");
    let mut chaos_s = 0.0;
    for k in 0..PLANS {
        let plan_seed = SplitMix64::mix(seed, k);
        let config = EngineConfig::gpf()
            .with_parallelism(workload.fastq_parts)
            .with_faults(FaultConfig::new(FaultPlan::seeded(plan_seed, RATE_PERMILLE)));
        let t = Instant::now();
        let run = match workload.run_gpf_cfg(true, config) {
            Ok(run) => run,
            Err(e) => {
                console_err(&format!(
                    "[chaos] plan {k} (seed {plan_seed}): unexpected failure: {e}\n\
                     replay: experiments --chaos {seed}"
                ));
                std::process::exit(3);
            }
        };
        chaos_s += t.elapsed().as_secs_f64();
        let bytes = serialize_batch(SerializerKind::Gpf, &run.calls);
        if bytes != base_bytes {
            console_err(&format!(
                "[chaos] plan {k} (seed {plan_seed}): output diverged from the fault-free \
                 run ({} vs {} bytes)\nreplay: experiments --chaos {seed}",
                bytes.len(),
                base_bytes.len(),
            ));
            std::process::exit(3);
        }
        console_err(&format!("[chaos] plan {k} (seed {plan_seed}): recovered byte-identical"));
    }
    let faults = counter_total("fault.injected") - faults0;
    let retries = counter_total("task.retries") - retries0;
    let recomputed = counter_total("shuffle.recomputed") - recomputed0;
    let recovery_overhead_pct = (chaos_s / (PLANS as f64 * base_s) - 1.0) * 100.0;
    let line = format!(
        "{{\"group\":\"chaos\",\"seed\":{seed},\"plans\":{PLANS},\"faults\":{faults},\
         \"retries\":{retries},\"recomputed\":{recomputed},\"base_s\":{base_s:.4},\
         \"chaos_s\":{chaos_s:.4},\"recovery_overhead_pct\":{recovery_overhead_pct:.2}}}"
    );
    use std::io::Write;
    match std::fs::OpenOptions::new().create(true).append(true).open("BENCH_chaos.json") {
        Ok(mut f) => {
            let _ = writeln!(f, "{line}");
        }
        Err(e) => console_err(&format!("cannot append BENCH_chaos.json: {e}")),
    }
    console_out(&line);
    if faults == 0 {
        console_err(&format!(
            "[chaos] warning: no faults fired under seed {seed}; the gate exercised \
             nothing — raise the rate or change the seed"
        ));
    }
}

/// Print per-stage diagnostics of the optimized GPF run (not a paper
/// artifact; a tool for understanding what bounds the simulated makespan).
fn diagnose(lab: &Lab) {
    let run = &lab.gpf_opt().run;
    println!(
        "{:<4} {:<10} {:<28} {:>6} {:>9} {:>9} {:>10} {:>10} {:>9}",
        "id", "phase", "label", "tasks", "cpu(s)", "max(s)", "read", "write", "bcast"
    );
    for s in &run.stages {
        let max = s.task_cpu_s.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "{:<4} {:<10} {:<28} {:>6} {:>9.3} {:>9.4} {:>10} {:>10} {:>9}",
            s.id,
            s.phase,
            s.label.chars().take(28).collect::<String>(),
            s.num_tasks(),
            s.total_cpu_s(),
            max,
            s.total_shuffle_read(),
            s.total_shuffle_write(),
            s.broadcast_bytes,
        );
    }
    // Routing sanity: how do aligned records distribute over partitions?
    {
        let w = lab.workload();
        let records = w.aligned_records();
        let unmapped = records.iter().filter(|r| !r.flags.is_mapped()).count();
        println!(
            "records {} unmapped {} ({:.1}%)",
            records.len(),
            unmapped,
            100.0 * unmapped as f64 / records.len() as f64
        );
        let base = gpf_core::PartitionInfo::new(&w.reference.dict().lengths(), w.partition_len);
        let mut counts = vec![0u64; base.num_base_partitions() as usize];
        for r in records {
            counts[gpf_core::process::route_record(r, &base) as usize] += 1;
        }
        let count_pairs: Vec<(u32, u64)> =
            counts.iter().enumerate().map(|(i, &c)| (i as u32, c)).collect();
        let total: u64 = counts.iter().sum();
        let threshold = (total / base.num_base_partitions().max(1) as u64 / 2).max(1);
        let info = base.with_splits(&count_pairs, threshold);
        let mut final_counts = vec![0u64; info.num_partitions() as usize];
        for r in records {
            final_counts[gpf_core::process::route_record(r, &info) as usize] += 1;
        }
        let mut sorted: Vec<(u64, usize)> =
            final_counts.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        sorted.sort_by_key(|&(c, _)| std::cmp::Reverse(c));
        println!(
            "final partitions {} mean {:.1}; top: {:?}",
            info.num_partitions(),
            total as f64 / info.num_partitions() as f64,
            &sorted[..8.min(sorted.len())]
        );
    }
    // Markdup-shuffle key skew check.
    {
        let w = lab.workload();
        let records = w.aligned_records();
        let mut sizes = vec![0u64; w.fastq_parts];
        for r in records {
            let own = (r.contig, r.pos);
            let mate = (r.mate_contig, r.mate_pos);
            let key = own.min(mate);
            let k = (key.0 as u64).wrapping_shl(40) | key.1;
            sizes[(gpf_engine::dataset::stable_hash(&k) % w.fastq_parts as u64) as usize] += 1;
        }
        let mut s: Vec<u64> = sizes.clone();
        s.sort();
        println!(
            "markdup-shuffle partition records: median {} p99 {} max {}",
            s[s.len() / 2],
            s[s.len() * 99 / 100],
            s.last().copied().unwrap_or(0)
        );
    }
    // Decompose the longest tasks of each stage under the paper cluster's
    // per-task bandwidth shares (disk 12 MB/s, net 150 MB/s, cpu x3.5).
    for s in &run.stages {
        let n = s.num_tasks();
        let mut durations: Vec<(f64, f64, f64, usize)> = (0..n)
            .map(|i| {
                let cpu = s.task_cpu_s.get(i).copied().unwrap_or(0.0) * 3.5;
                let read = s.shuffle_read_bytes.get(i).copied().unwrap_or(0) as f64;
                let write = s.shuffle_write_bytes.get(i).copied().unwrap_or(0) as f64;
                let disk = (read + write) / 12.0e6;
                let net = read / 150.0e6;
                (cpu + disk + net, cpu, disk + net, i)
            })
            .collect();
        durations.sort_by(|a, b| b.0.total_cmp(&a.0));
        let top: Vec<String> = durations
            .iter()
            .take(3)
            .map(|(t, cpu, io, i)| format!("#{i}: {t:.3}s (cpu {cpu:.3} io {io:.3})"))
            .collect();
        println!("stage {:>2} top tasks: {}", s.id, top.join("  "));
    }
    for cores in [128usize, 2048] {
        let sim = gpf_engine::sim::simulate(
            run,
            &gpf_engine::SimCluster::paper_cluster(cores),
            &gpf_engine::SimOptions::default(),
        );
        println!(
            "\nsim @{cores}: makespan {:.3}s busy {:.1} core-s gc {:.2} disk {:.2} net {:.2} serial {:.3}",
            sim.makespan_s, sim.core_busy_s, sim.gc_s, sim.disk_s, sim.net_s, sim.serial_s
        );
        for span in sim.stage_spans.iter() {
            if span.end_s - span.start_s > 0.01 * sim.makespan_s {
                println!(
                    "  stage {:>3} [{:<8}] {:>8.3} -> {:>8.3} (serial {:.4}) {}",
                    span.stage_id, span.phase, span.start_s, span.end_s, span.serial_s, span.label
                );
            }
        }
    }
}
