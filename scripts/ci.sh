#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, the benchmark smoke and the
# paper-reproduction report. Everything runs offline against the
# committed lockfile.
#
# HAWKEYE_BENCH_THREADS caps the scenario-engine worker count for the
# bench steps below (default: all cores). Output is byte-identical at
# any setting — only the wall-clock changes.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace"
cargo test --workspace -q

# The scenario engine's core guarantee, run explicitly (it is also part
# of the workspace tests): stdout + JSON identical on 1 vs 8 vs 32
# workers.
echo "==> scenario-engine determinism test"
cargo test -p hawkeye-bench --test determinism -q

# Fleet determinism gate: a 256-host fleet's JSON summary, trace
# journals, FLEET.md, telemetry document and ALERTS.md byte-identical at
# 1 vs 8 workers and across repeated runs (release: three full fleet
# runs).
echo "==> fleet determinism gate (256 hosts, 1 vs 8 workers)"
cargo test --release -p hawkeye-bench --test fleet_determinism -q

# Workload-family determinism gate (DESIGN.md §17): the oltp_btree,
# hpc_stencil, and adversarial summaries, traces, and the generated
# ENVELOPES.md atlas are byte-identical at 1 vs 8 workers and across
# repeated runs (reduced-scale sweep).
echo "==> workload-family determinism gate (1 vs 8 workers + ENVELOPES.md)"
cargo test --release -p hawkeye-bench --test workload_families_determinism -q

# Report-loader error paths: expected-but-missing summary metrics must
# be listed per target for the exit-4 gate, and corrupt ledger entries
# must fail the trend gate instead of being skipped.
echo "==> report-loader error-path tests"
cargo test -p hawkeye-report --lib -q

# Serial-vs-multicore differential gate: at cores=1 every observable
# (stats, PMU counters, trace journal, metric registry) is byte-identical
# to the serial engine across all nine policies; at cores∈{2,4,8} the
# aggregate work counters stay pinned exactly while only lock.*/
# contention scopes vary, and repeated multi-core runs are byte-equal.
# Includes the contention smoke: the adversarial scenario must drive the
# CAS-retry counter above zero at 4 cores. All counter-based — the gate
# cannot flake on a slow host.
echo "==> serial-vs-multicore differential gate (counter-based)"
cargo test --release -p hawkeye-kernel --test multicore_diff -q

# Exactness gates in release: the fast path (touch executor, streaks)
# against per-access modeling, the page table against a model that tracks
# every mapping and its accessed/dirty bits, the sentinel TLB sets
# against the Vec+length reference, the buddy allocator's random
# operations (owners sharing slots with free-list links, head-only
# splits and merges) against its invariants, the compactor against the
# frame-scanning reference, and process exit against a counting
# allocator (an exited process's page table and generator are freed).
# Tier-1 runs them in debug, where
# `insert_absent`'s stale-victim `debug_assert!` and the frame-state
# `debug_assert!`s are live; release checks the code that actually
# ships, with the debug assertions compiled out.
echo "==> exactness gates in release (fast path, page-table model, TLB oracle, buddy, compaction oracle, exit heap)"
cargo test --release -p hawkeye-kernel --test diff_fast_path -q
cargo test --release -p hawkeye-vm --test proptest_page_table -q
cargo test --release -p hawkeye-tlb --lib matches_vec_and_len_reference -q
cargo test --release -p hawkeye-mem --test proptest_buddy -q
cargo test --release -p hawkeye-mem --lib compact::tests::compaction_matches_frame_scanning_reference -q
cargo test --release -p hawkeye-kernel --test exit_releases_memory -q

# Docs-drift gate: the target and check counts stated in README.md and
# EXPERIMENTS.md must agree with the registry (hawkeye-report --counts).
echo "==> docs-drift gate (README/EXPERIMENTS counts vs registry)"
bash scripts/check_docs_drift.sh

# No behaviour switches in library code: the environment may choose the
# worker count (HAWKEYE_BENCH_THREADS, metrics/src/env.rs) and where
# artifacts land (HAWKEYE_BENCH_RESULTS, CARGO_TARGET_DIR), never what a
# run simulates or which artifacts it writes.
echo "==> no environment switches in library code"
if grep -rn 'env::var' crates/*/src src \
    | grep -v -e '^crates/metrics/src/env\.rs:' \
        -e '^crates/bench/src/scenario\.rs:' -e '^crates/report/src/lib\.rs:'; then
    echo "error: env::var read outside the allowed files (listed above)" >&2
    exit 1
fi

# No shared ownership in the simulated machine: every layer from the
# buddy allocator up to the virtualization host is plain owned data, and
# what a layer needs from another is lent for a call or a round (the
# virt host reaches a guest's touches through `Simulator::round_with`).
echo "==> no shared ownership in the simulated machine"
if grep -rnE 'Arc<|Rc<|Mutex|RwLock|RefCell' \
    crates/{mem,vm,tlb,kernel,virt,core,policies,workloads}/src; then
    echo "error: shared ownership in the simulated machine (listed above)" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc gate: every public item documented (trace/metrics/analyze set
# #![warn(missing_docs)]), every intra-doc link resolving. REPORT.md and
# DESIGN.md lean on the API docs, so broken links are CI failures.
echo "==> RUSTDOCFLAGS=-D warnings cargo doc --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Non-test library code in the simulation stack must not unwrap: a
# panic inside the kernel/VM layers would take down a whole bench
# scenario. `--lib` scopes the lint to non-test library code: unit
# tests (#[cfg(test)] modules), integration tests, and benches are
# exempt and may unwrap freely.
echo "==> cargo clippy --lib -- -D clippy::unwrap_used (core crates)"
cargo clippy -p hawkeye-metrics -p hawkeye-mem -p hawkeye-vm -p hawkeye-tlb \
    -p hawkeye-trace -p hawkeye-obs -p hawkeye-kernel -p hawkeye-virt \
    -p hawkeye-fleet -p hawkeye-bench -p hawkeye-analyze -p hawkeye-report \
    -p hawkeye-core -p hawkeye-policies -p hawkeye-workloads \
    --lib -- -D clippy::unwrap_used

# Cycle-attribution gate: run one real scenario and pipe its trace
# journal through hawkeye-analyze --check, which fails on parse errors,
# missing cycle_sample events (attribution silently off), or nonzero
# residue (unhalted cycles the subsystem ledger failed to attribute).
echo "==> cycle-attribution gate (table1 trace -> hawkeye-analyze --check)"
results_dir="${HAWKEYE_BENCH_RESULTS:-${CARGO_TARGET_DIR:-target}/bench-results}"
cargo bench -p hawkeye-bench --bench suite -- table1_fault_latency
cargo run --release -q -p hawkeye-analyze -- --check \
    "$results_dir/table1_fault_latency.trace.json"

# Benchmark smoke: the standalone perf/ crate (BENCHMARK.json) has its own
# workspace and path-depends on kernel/mem/vm/metrics, so the workspace
# build above never compiles it. --quick runs every workload once at
# reduced scale, so any API change that breaks it fails here.
echo "==> hawkeye-perf smoke (--quick)"
suite_t0=$SECONDS
cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- --quick

# The same smoke at the held-out seed: perf/expected_digests.txt records
# its quick-scale digests too, so a change that alters simulated results
# only away from seed 7 still fails a digest here.
echo "==> hawkeye-perf smoke (--quick --seed 11)"
cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- --quick --seed 11

# The perf/ crate's own tests (BENCHMARK.json schema, digests, metric
# names) compile against the re-exported paths the frozen crate imports
# (hawkeye_bench::{Json, trace_json}, hawkeye_analyze::json,
# hawkeye_analyze::parse_trace), so a move that drops one fails here.
echo "==> hawkeye-perf tests"
cargo test --offline -q --manifest-path perf/Cargo.toml

# Paper-reproduction gate: run the full suite through hawkeye-report and
# fail if any REPORT.md check lands outside its tolerance band (see
# DESIGN.md §12). This regenerates target/report/REPORT.md as a side
# effect, so a green CI run always leaves a fresh report behind.
# The run is seeded with the committed perf-trajectory baseline
# (bench-ledger/BENCH_*.json) so the appended entry lands next in
# sequence, then the --trend gate compares the fresh run against the
# baseline's deterministic work counters (wall-clock is advisory only;
# see DESIGN.md §16).
echo "==> hawkeye-report --check (full suite -> target/report/REPORT.md)"
ledger_dir="${CARGO_TARGET_DIR:-target}/report/ledger"
rm -rf "$ledger_dir"
mkdir -p "$ledger_dir"
cp bench-ledger/BENCH_*.json "$ledger_dir/"
cargo run --release -q -p hawkeye-report -- --check

echo "==> hawkeye-report --trend --check (perf-trajectory gate vs committed baseline)"
cargo run --release -q -p hawkeye-report -- --trend --check --no-run

echo "==> suite wall-clock: $((SECONDS - suite_t0))s (bench steps, ${HAWKEYE_BENCH_THREADS:-auto} workers)"
echo "==> OK"
