#!/usr/bin/env sh
# Runs every bench/ binary: the paper tables (figure5, figure6, ablation,
# encoding, verify_time) and the gated tier benches (exec, gc, scaling).
# Each writes BENCH_<suite>.json, which bench_json_check parses and checks
# for the suite's headline metrics; a bench that fails a gate, or emits
# invalid (or no) JSON, fails the run.
#
# Every gate compares two configurations inside one process, so no stored
# baseline is read. The end-to-end trajectory lives in perfbench/.
#
# Usage: bench/run_benches.sh [--smoke] [build-dir]
#   build-dir defaults to ./build (must already be configured and built;
#   `cmake --build <build-dir>` first). Results land at the repository
#   root (BENCH_*.json is gitignored).
#   --smoke: 1 ms timing windows, results under <build-dir>/bench-smoke,
#   gates reported but not enforced. This is what the bench_smoke ctest
#   entry runs, so every bench binary is exercised in tier-1 verification.
set -eu

SMOKE=0
if [ "${1:-}" = "--smoke" ]; then
  SMOKE=1
  shift
fi

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR=${1:-"$REPO_ROOT/build"}
BENCH_DIR="$BUILD_DIR/bench"
SUITES="figure5 figure6 ablation encoding verify_time exec gc scaling"

for S in json_check $SUITES; do
  BIN=bench_$S
  if [ ! -x "$BENCH_DIR/$BIN" ]; then
    echo "error: $BENCH_DIR/$BIN not found or not executable." >&2
    echo "Build it with: cmake --build \"$BUILD_DIR\" --target $BIN" >&2
    exit 1
  fi
done

if [ "$SMOKE" = 1 ]; then
  export SAFETSA_BENCH_SMOKE=1
  export SAFETSA_BENCH_DIR="$BUILD_DIR/bench-smoke"
  mkdir -p "$SAFETSA_BENCH_DIR"
else
  export SAFETSA_BENCH_DIR="$REPO_ROOT"
fi

# Metrics each suite's JSON must carry, so a section that silently stops
# emitting fails the run instead of leaving a hole.
required() {
  case $1 in
    figure5) echo total_tsa_insts,total_tsa_opt_insts,total_tsa_bytes ;;
    figure6) echo phi_delta,null_check_delta,index_check_delta ;;
    ablation) echo dce_phis_before,dce_phis_after ;;
    encoding) echo prefix_vs_naive,linking_vs_full ;;
    verify_time) echo dataflow_over_counter,two_pass_over_fused ;;
    exec) echo geomean_speedup,tier1_geomean_callheavy,tier1_min_speedup,inline_geomean,inline_geomean_callheavy,inline_callheavy_programs,inline_min_speedup,inline_sites_total,inline_guard_misses ;;
    gc) echo gc_overhead_geomean,gc_churn_heap_cells ;;
    scaling) echo warm_hit_scaling_8t,exec_sweep_scaling_8t ;;
  esac
}

for S in $SUITES; do
  echo "== bench_$S =="
  "$BENCH_DIR/bench_$S"
  JSON="$SAFETSA_BENCH_DIR/BENCH_$S.json"
  if [ ! -f "$JSON" ]; then
    echo "error: bench_$S did not emit $JSON" >&2
    exit 1
  fi
  "$BENCH_DIR/bench_json_check" --require "$(required "$S")" "$JSON"
  echo
done

echo "Results: $SAFETSA_BENCH_DIR/BENCH_{$(echo "$SUITES" | tr ' ' ',')}.json"
