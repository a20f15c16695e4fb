#!/usr/bin/env bash
# CI entry point: the full hermetic verification pipeline.
#
# Everything runs with --offline — the workspace has zero crates-io
# dependencies (see crates/gpf-support), so a registry fetch here is a
# regression, not a hiccup.
#
# Usage:
#   scripts/ci.sh          # build + test + perfbench tests + clippy + bench smoke
#   scripts/ci.sh quick    # build + test only
set -euo pipefail
cd "$(dirname "$0")/.."

# One setting for every step below, so cargo artifacts share a fingerprint
# (per-step RUSTFLAGS would rebuild the workspace once per step).
export RUSTFLAGS="${RUSTFLAGS:-} -D warnings"

echo "== build (release, offline, -D warnings) =="
cargo build --release --offline

echo "== gpf-lint (repo invariants) =="
if ! cargo run --release --offline -q -p gpf-lint -- --root .; then
    echo "gpf-lint found violations. Replay locally with:" >&2
    echo "    cargo run --release --offline -p gpf-lint -- --root ." >&2
    echo "(annotate intentional sites with '// gpf-lint: allow(<rule>): <reason>')" >&2
    exit 1
fi

echo "== test (workspace, offline) =="
cargo test -q --offline --workspace

if [[ "${1:-}" == "quick" ]]; then
    exit 0
fi

echo "== perfbench tests (end-to-end calls digest on every workload) =="
# Separate manifest (perfbench/ is its own package): checks that every
# benchmark workload reproduces the plain-wgs calls digest, so an engine
# refactor that changes any call fails here.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== model check (gpf-check: schedule explorer + race detector) =="
# Separate target dir: --cfg gpf_check changes every crate's fingerprint,
# and sharing ./target would force a full rebuild of the normal artifacts
# on the next plain cargo invocation. Serial (--test-threads=1) so the
# schedule budget below is the only knob governing wall-clock.
# The battery tests assert the checker still FLAGS every seeded bug; the
# model tests assert the real pool/locks/ring/counters pass every explored
# schedule. GPF_CHECK_SCHEDULES pins the per-model budget (CI time box);
# a failure prints a GPF_CHECK_REPLAY token that reruns the exact schedule.
CARGO_TARGET_DIR=target/gpf-check \
RUSTFLAGS="${RUSTFLAGS:-} --cfg gpf_check" \
GPF_CHECK_SCHEDULES="${GPF_CHECK_SCHEDULES:-10000}" \
    cargo test -q --offline -p gpf-check -- --test-threads=1

echo "== clippy (-D warnings) =="
# Blocking: any clippy warning fails CI. A missing clippy component is
# skipped so minimal toolchains can still run the rest.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --offline --workspace -- -D warnings
else
    echo "clippy not installed; skipping" >&2
fi

echo "== bench smoke =="
cargo run --release --offline -p gpf-bench --bin experiments -- --smoke >/dev/null

echo "== trace smoke (chrome export + schema check) =="
trace_out="$(mktemp -t gpf_trace_XXXX.json)"
cargo run --release --offline -p gpf-bench --bin experiments -- --smoke --trace "$trace_out" >/dev/null
cargo run --release --offline -p gpf-bench --bin experiments -- --validate-trace "$trace_out"
rm -f "$trace_out"

echo "== trace overhead (< 5% budget) =="
rm -f BENCH_trace_overhead.json
cargo run --release --offline -p gpf-bench --bin experiments -- --smoke --trace-overhead

echo "== memory gate (heap tracking overhead < 5%, per-stage peaks) =="
rm -f BENCH_mem.json
cargo run --release --offline -p gpf-bench --bin experiments -- --smoke --mem-gate

echo "== codec/shuffle perf gates (codec >= 2x, shuffle >= 1.5x vs reference) =="
rm -f BENCH_codec.json BENCH_shuffle.json
cargo run --release --offline -p gpf-bench --bin experiments -- --smoke --codec-bench --shuffle-bench

echo "== skew gate (adaptive repartition: tail cut >= 1.3x, byte-identical) =="
rm -f BENCH_skew.json
cargo run --release --offline -p gpf-bench --bin experiments -- --smoke --skew-bench

echo "== kernel gate (SWAR SW & batched pair-HMM >= 2x cell throughput) =="
# Full-size (not --smoke): the ratio gate needs the larger workload's
# timing stability; still ~10s wall-clock.
rm -f BENCH_kernels.json
cargo run --release --offline -p gpf-bench --bin experiments -- --kernel-bench

echo "== chaos gate (seeded fault plans must recover byte-identically) =="
rm -f BENCH_chaos.json
cargo run --release --offline -p gpf-bench --bin experiments -- --smoke --chaos 2018

echo "== mem-budget gate (sim-WGS at 1/2, 1/4, 1/8 materialized: byte-identical, ledger peak <= budget) =="
rm -f BENCH_memory.json
cargo run --release --offline -p gpf-bench --bin experiments -- --smoke --mem-budget-bench

echo "CI OK"
