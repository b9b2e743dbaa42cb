#!/usr/bin/env bash
# Runs a baseline-tracked bench and checks it with `bench/check.py` against
# its checked-in bench/BENCH_<bench>.json, or (--update) overwrites that
# baseline, so every change leaves a perf trajectory behind.
#
# Usage:
#   bench/run_benchmarks.sh [cwt|fusion] [--update]
#     cwt     CWT/pipeline microbenchmarks (bench_throughput); the default
#     fusion  multimodal power+EM workload (bench_fusion): a SIDIS_FAST run
#             is checked, --update records a full-scale run
#
# Environment:
#   BUILD_DIR   build tree holding the bench binaries (default: ./build)
#   FILTER      cwt --benchmark_filter regex (default: the CWT/feature cases)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
FILTER="${FILTER:-Cwt|FeatureExtraction|PipelineTransform}"

BENCH=cwt
UPDATE=
for arg in "$@"; do
  case "$arg" in
    cwt|fusion) BENCH="$arg" ;;
    --update) UPDATE=1 ;;
    *) echo "usage: $0 [cwt|fusion] [--update]" >&2; exit 2 ;;
  esac
done
BASELINE="$ROOT/bench/BENCH_$BENCH.json"
BIN="$BUILD/bench/$([[ $BENCH == cwt ]] && echo bench_throughput || echo bench_fusion)"

if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not found -- build it first:" >&2
  echo "  cmake -B $BUILD && cmake --build $BUILD -j --target $(basename "$BIN")" >&2
  exit 1
fi

# Refuse to record a baseline from an unoptimized build: a debug-build
# baseline makes every later optimized run look like a huge win and hides
# real regressions.  An empty cached build type is the top-level
# CMakeLists.txt default, RelWithDebInfo.
if [[ -n "$UPDATE" ]]; then
  BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' "$BUILD/CMakeCache.txt")"
  BUILD_TYPE="${BUILD_TYPE:-RelWithDebInfo}"
  case "$BUILD_TYPE" in
    Release|RelWithDebInfo|MinSizeRel) ;;
    *)
      echo "error: refusing --update from a '$BUILD_TYPE' build." >&2
      echo "  rebuild with -DCMAKE_BUILD_TYPE=Release and re-run." >&2
      exit 1
      ;;
  esac
fi

OUT="$(mktemp "${TMPDIR:-/tmp}/bench_$BENCH.XXXXXX.json")"
trap 'rm -f "$OUT"' EXIT
if [[ $BENCH == cwt ]]; then
  "$BIN" --benchmark_filter="$FILTER" --benchmark_format=json \
         --benchmark_out="$OUT" --benchmark_out_format=json >/dev/null
elif [[ -n "$UPDATE" ]]; then
  SIDIS_BENCH_OUT="$OUT" "$BIN"
else
  SIDIS_FAST=1 SIDIS_BENCH_OUT="$OUT" "$BIN"
fi

if [[ -n "$UPDATE" ]]; then
  cp "$OUT" "$BASELINE"
  echo "baseline updated: $BASELINE (build type: $BUILD_TYPE)"
else
  python3 "$ROOT/bench/check.py" "$BENCH" "$OUT" "$BASELINE"
fi
