#!/usr/bin/env bash
# Tier-1 verification plus sanitizer passes:
#   1. default build + full ctest (the tier-1 gate);
#   2. ASan+UBSan build + the fast-labelled tests (large sweeps excluded —
#      run `ctest --preset asan-fast` with no label filter to widen);
#   3. standalone UBSan build of the kernel-heavy suites (permutation,
#      SIMD perm kernels, route engine, oracle), run directly;
#   4. TSan build of the concurrency-heavy suites (ThreadPool, event-core
#      lazy routing, chaos campaign, serving layer, oracle build), run
#      directly;
#   5. static analysis, when the tools are installed: a clang build with
#      -Werror=thread-safety (plus the negative-compilation tests proving
#      the annotations bite), the clang-tidy gate, and shellcheck over
#      scripts/.  Each step degrades to a skip where the tool is absent —
#      CI's static-analysis job is the enforcing run.
# Every section is recorded as passed, skipped or FAILED, and a summary
# table prints on exit, so a skipped gate never reads as a passed one.
set -euo pipefail
cd "$(dirname "$0")/.."

gate_names=()
gate_results=()
current_gate=""
current_result=""

# Records the running section (if any) with its result: `skipped` when the
# section called skip_gate, otherwise the argument.
close_gate() {
  if [ -n "$current_gate" ]; then
    gate_names+=("$current_gate")
    gate_results+=("${current_result:-$1}")
  fi
  current_gate=""
  current_result=""
}

# Starts a new section; the previous one reached this point, so it passed.
gate() {
  close_gate passed
  current_gate="$1"
  echo "== $1 =="
}

skip_gate() {
  echo "$1; skipping (the CI static-analysis job enforces it)"
  current_result="skipped"
}

print_summary() {
  local rc=$?
  if [ "$rc" -eq 0 ]; then close_gate passed; else close_gate FAILED; fi
  echo "== gate summary =="
  local i
  for i in "${!gate_names[@]}"; do
    printf '  %-8s %s\n' "${gate_results[$i]}" "${gate_names[$i]}"
  done
  if [ "$rc" -eq 0 ]; then
    echo "== all checks passed (skipped gates did not run) =="
  fi
}
trap print_summary EXIT

gate "tier-1: default build"
cmake --preset default
cmake --build --preset default -j"$(nproc)"
ctest --preset default -j"$(nproc)"

gate "oracle smoke: build + reload a tiny exact-distance table"
oracle_table="$(mktemp /tmp/scg-oracle.XXXXXX)"
./build/examples/scg_cli oracle build MS 2 2 "$oracle_table"
./build/examples/scg_cli oracle query MS 2 2 "$oracle_table" 53421 12345
rm -f "$oracle_table"

gate "oracle bench: exact table statistics gate"
# bench_oracle rebuilds the full tables and audits the game routers; the
# JSON gate pins states / diameter / sources / max_gap per row exactly.
# Build times and float averages are reported, not gated.
oracle_dir="$(mktemp -d /tmp/scg-oracle-bench.XXXXXX)"
mkdir -p "$oracle_dir/bench"
./build/bench/bench_oracle "$oracle_dir/bench/baseline_oracle.json"
python3 scripts/compare_bench.py bench/baseline_oracle.json \
  "$oracle_dir/bench/baseline_oracle.json" --tolerance 0.5
rm -rf "$oracle_dir"

gate "routing benches: correctness report + engine throughput gate"
./build/bench/bench_routing
# bench_engine writes bench/baseline_engine.json relative to its cwd; run
# it in a scratch dir so the committed baseline is never clobbered, then
# gate the fresh numbers against it.  Tolerance is loose (0.5) because the
# committed baseline comes from a different machine — the gate catches
# broken invariants and order-of-magnitude regressions, not jitter.
engine_dir="$(mktemp -d /tmp/scg-engine.XXXXXX)"
mkdir -p "$engine_dir/bench"
repo_root="$PWD"
(cd "$engine_dir" && "$repo_root/build/bench/bench_engine")
python3 scripts/compare_bench.py bench/baseline_engine.json \
  "$engine_dir/bench/baseline_engine.json" --tolerance 0.5
rm -rf "$engine_dir"

gate "kernel microbench: SIMD tier identity + speedup gate"
# bench_kernels exits non-zero if any SIMD tier output differs from the
# scalar reference; the JSON gate pins the byte-identity flags exactly and
# the speedup/rate fields loosely (the committed baseline's dispatch tier is
# stamped in its "meta" object).
kern_dir="$(mktemp -d /tmp/scg-kern.XXXXXX)"
mkdir -p "$kern_dir/bench"
(cd "$kern_dir" && "$repo_root/build/bench/bench_kernels")
python3 scripts/compare_bench.py bench/baseline_kernels.json \
  "$kern_dir/bench/baseline_kernels.json" --tolerance 0.5
rm -rf "$kern_dir"

gate "kernels smoke: dispatch tier report + scalar identity check"
./build/examples/scg_cli kernels

gate "simulation bench: event-core invariants + lazy-routing gate"
# Same scratch-dir pattern: bench_mcmp re-simulates every workload and the
# lazy-vs-prerouted acceptance run; completion cycles / hop counts /
# sim_identical must match the committed baseline exactly, lazy_speedup and
# sim_rps only loosely (machine speed).
sim_dir="$(mktemp -d /tmp/scg-sim.XXXXXX)"
mkdir -p "$sim_dir/bench"
(cd "$sim_dir" && "$repo_root/build/bench/bench_mcmp")
python3 scripts/compare_bench.py bench/baseline_sim.json \
  "$sim_dir/bench/baseline_sim.json" --tolerance 0.5
rm -rf "$sim_dir"

gate "chaos campaign: invariant-audited degradation gate"
# bench_chaos exits non-zero on any invariant violation or a transient
# full-repair cell that misses the fault-free delivered fraction; the JSON
# gate then pins the integer degradation surface (delivered / timeouts /
# retransmissions / completion cycles per cell) to the committed baseline.
chaos_dir="$(mktemp -d /tmp/scg-chaos.XXXXXX)"
mkdir -p "$chaos_dir/bench"
(cd "$chaos_dir" && "$repo_root/build/bench/bench_chaos" bench/baseline_chaos.json)
python3 scripts/compare_bench.py bench/baseline_chaos.json \
  "$chaos_dir/bench/baseline_chaos.json" --tolerance 0.5
rm -rf "$chaos_dir"

gate "fault bench: MCMP degradation under mid-run link kills"
# bench_fault drives the event core's fault mode (timeouts, re-routes,
# retransmissions) over a fixed traffic set and kill schedule; the JSON gate
# pins packets / timeouts / retransmissions / completion cycles per row to
# the committed baseline exactly.
fault_dir="$(mktemp -d /tmp/scg-fault.XXXXXX)"
mkdir -p "$fault_dir/bench"
(cd "$fault_dir" && "$repo_root/build/bench/bench_fault" bench/baseline_fault.json)
python3 scripts/compare_bench.py bench/baseline_fault.json \
  "$fault_dir/bench/baseline_fault.json" --tolerance 0.5
rm -rf "$fault_dir"

gate "serve smoke: concurrent RouteService, verified words"
# Small family, 2 workers; serve-bench exits non-zero on a conservation or
# word-identity violation.
./build/examples/scg_cli serve-bench MS 2 2 2 500

gate "serving bench: SLO telemetry + shedding gate"
# Same scratch-dir pattern as the other gates: conservation / words_ok /
# shed_nonzero must hold exactly, serve_rps only loosely (machine speed).
serve_dir="$(mktemp -d /tmp/scg-serve.XXXXXX)"
mkdir -p "$serve_dir/bench"
(cd "$serve_dir" && "$repo_root/build/bench/bench_serve")
python3 scripts/compare_bench.py bench/baseline_serve.json \
  "$serve_dir/bench/baseline_serve.json" --tolerance 0.5
rm -rf "$serve_dir"

gate "sanitizers: asan+ubsan build, fast tests"
cmake --preset asan
cmake --build --preset asan -j"$(nproc)"
ctest --preset asan-fast -j"$(nproc)"

gate "sanitizers: standalone ubsan build, kernel-heavy suites"
# The SIMD kernels and their consumers lean on pointer casts, target-gated
# intrinsics, and reciprocal arithmetic; run those suites under pure UBSan
# (no ASan redzones, so the vector loads/stores run at full width).
cmake --preset ubsan
cmake --build --preset ubsan -j"$(nproc)"
./build-ubsan/tests/permutation_test
./build-ubsan/tests/perm_kernels_test
./build-ubsan/tests/route_engine_test
./build-ubsan/tests/oracle_test

gate "sanitizers: tsan build, concurrency suites"
# ThreadPool, the event core's lazy routing, the chaos campaign, the
# serving layer and the oracle build (pull levels read table words other
# chunks are writing) are the threaded / observer-callback-heavy surfaces;
# run their suites under TSan.
cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
./build-tsan/tests/parallel_test
./build-tsan/tests/event_core_test
./build-tsan/tests/chaos_test
./build-tsan/tests/serve_test
./build-tsan/tests/oracle_test

gate "static analysis: clang thread-safety build"
if command -v clang++ >/dev/null 2>&1; then
  cmake --preset clang
  cmake --build --preset clang -j"$(nproc)"
  ctest --preset clang-fast -j"$(nproc)"
else
  skip_gate "clang++ not found"
fi

gate "static analysis: clang-tidy gate"
if ! command -v clang-tidy >/dev/null 2>&1; then
  skip_gate "clang-tidy not found"
elif ! command -v clang++ >/dev/null 2>&1; then
  skip_gate "clang++ not found (clang-tidy reads the clang build's compile commands)"
else
  scripts/run_tidy.sh
fi

gate "static analysis: shellcheck"
if command -v shellcheck >/dev/null 2>&1; then
  shellcheck scripts/*.sh
else
  skip_gate "shellcheck not found"
fi
