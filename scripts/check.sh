#!/usr/bin/env bash
# DASSA correctness harness driver (docs/ANALYSIS.md).
#
# Runs the full static/dynamic-analysis matrix from a clean tree:
#
#   1. lint        -- tools/das_lint.py over src/, include/ and tools/
#                     (zero findings against the committed baseline),
#                     plus the linter's own fixture self-test.
#   2. strict      -- -Wall -Wextra -Wconversion ... as errors, plus
#                     DASSA_DEBUG_BOUNDS checked accessors; full ctest,
#                     then the codec/SIMD subset re-run with the
#                     dispatcher pinned to scalar kernels.
#   3. asan        -- AddressSanitizer + UndefinedBehaviorSanitizer
#                     build; full ctest with leak detection, then a long
#                     deterministic fuzz run (>= 10000 inputs).
#   4. tsan        -- ThreadSanitizer build; concurrency-relevant tests
#                     (ThreadPool, FFT engine, MiniMPI, HAEE stress,
#                     storage engine, tracer, telemetry sampler).
#   5. telemetry   -- das_analyze --telemetry on a 4-rank synthetic run,
#                     validated and rendered by das_health.
#   6. bench       -- bench_compare.py + bench_codec perf-regression
#                     gates (optional, skipped with --no-bench).
#
# With --clang, two additional legs run (and the script FAILS with exit
# 3 if clang/clang++/clang-tidy are not on PATH -- a requested leg that
# cannot run is an error, never a silent skip):
#
#   7. clang-strict-- Clang build with -Wthread-safety(-beta) as errors
#                     over the annotated dassa::Mutex/CondVar wrappers;
#                     full ctest including the try_compile compile-fail
#                     suite (bad fixtures must be rejected).
#   8. clang-tidy  -- curated .clang-tidy profile, per-check warning
#                     counts ratcheted against tools/clang_tidy_baseline
#                     by scripts/clang_tidy_check.py.
#
# Each matrix leg uses its CMakePresets.json preset, so every leg can
# also be run by hand:  cmake --preset asan && cmake --build --preset
# asan && ctest --preset asan.
#
# A per-leg wall-clock summary table prints on exit (success or
# failure), so slow legs are visible and a failed run shows exactly how
# far it got.
#
# Usage: scripts/check.sh [--no-bench] [--clang] [--fuzz-iters N] [--jobs N]
set -euo pipefail

cd "$(dirname "$0")/.."

RUN_BENCH=1
RUN_CLANG=0
FUZZ_ITERS=10000
JOBS="$(nproc)"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --no-bench) RUN_BENCH=0 ;;
    --clang) RUN_CLANG=1 ;;
    --fuzz-iters) FUZZ_ITERS="$2"; shift ;;
    --jobs) JOBS="$2"; shift ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
  shift
done

EXIT_TOOLCHAIN_MISSING=3

step() { printf '\n==== %s ====\n' "$*"; }

# ------------------------------------------------- summary bookkeeping
SUMMARY_NAMES=()
SUMMARY_SECS=()
SUMMARY_STATUS=()
CURRENT_LEG=""
CURRENT_LEG_START=0
TELEDIR=""

print_summary() {
  local rc=$?
  [[ -n "${TELEDIR}" ]] && rm -rf "${TELEDIR}"
  # A leg that was running when the script died is recorded as FAIL.
  if [[ -n "${CURRENT_LEG}" ]]; then
    SUMMARY_NAMES+=("${CURRENT_LEG}")
    SUMMARY_SECS+=($(( SECONDS - CURRENT_LEG_START )))
    SUMMARY_STATUS+=("FAIL")
  fi
  if [[ ${#SUMMARY_NAMES[@]} -gt 0 ]]; then
    printf '\n==== leg summary ====\n'
    printf '%-14s %8s  %s\n' "leg" "wall(s)" "status"
    local i total=0
    for i in "${!SUMMARY_NAMES[@]}"; do
      printf '%-14s %8d  %s\n' \
        "${SUMMARY_NAMES[$i]}" "${SUMMARY_SECS[$i]}" "${SUMMARY_STATUS[$i]}"
      total=$(( total + SUMMARY_SECS[i] ))
    done
    printf '%-14s %8d\n' "total" "${total}"
  fi
  exit "${rc}"
}
trap print_summary EXIT

run_leg() {
  local name="$1"
  CURRENT_LEG="${name}"
  CURRENT_LEG_START=${SECONDS}
  "leg_${name}"
  SUMMARY_NAMES+=("${name}")
  SUMMARY_SECS+=($(( SECONDS - CURRENT_LEG_START )))
  SUMMARY_STATUS+=("ok")
  CURRENT_LEG=""
}

# ------------------------------------------------------ toolchain probe
# Requested legs whose toolchain is absent fail the whole run up front
# (exit 3), before any build time is spent.
if [[ "${RUN_CLANG}" -eq 1 ]]; then
  missing=()
  for tool in clang clang++ clang-tidy; do
    command -v "${tool}" > /dev/null 2>&1 || missing+=("${tool}")
  done
  if [[ ${#missing[@]} -gt 0 ]]; then
    echo "check.sh: --clang requested but missing toolchain: ${missing[*]}" >&2
    echo "check.sh: install LLVM/Clang or drop --clang" >&2
    exit "${EXIT_TOOLCHAIN_MISSING}"
  fi
fi

# ---------------------------------------------------------------- legs
leg_lint() {
  # First: it needs no build and fails fastest.
  step "das_lint (src/ + include/ + tools/ invariants)"
  python3 tools/das_lint.py --repo .
  step "das_lint --self-test (rule fixtures)"
  python3 tools/das_lint.py --self-test
}

leg_strict() {
  step "strict: warnings-as-errors + DASSA_DEBUG_BOUNDS"
  cmake --preset strict
  cmake --build --preset strict -j "${JOBS}"
  ctest --preset strict -j "${JOBS}"

  # The codec suite runs again with the SIMD dispatcher pinned to the
  # scalar kernels: every machine exercises the portable fallback path,
  # not just hosts without SSE2/AVX2/NEON.
  step "strict: codec + SIMD suite with DASSA_SIMD=scalar"
  DASSA_SIMD=scalar ctest --preset strict -j "${JOBS}" \
    -R 'Codec|Simd|Dash5V3|Repack'
}

leg_asan() {
  step "asan: AddressSanitizer + UBSan, full suite"
  cmake --preset asan
  cmake --build --preset asan -j "${JOBS}"
  ctest --preset asan -j "${JOBS}"

  step "asan: deterministic parser fuzz (${FUZZ_ITERS} inputs)"
  ASAN_OPTIONS=detect_leaks=1 \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1:suppressions=$PWD/scripts/ubsan.supp" \
    ./build-asan/tests/tools/fuzz_dash5 --iters "${FUZZ_ITERS}" --seed 20260806
}

leg_tsan() {
  # Concurrency-relevant subset: the pool, the FFT engine's shared plan
  # cache, MiniMPI point-to-point and collectives (payloads move between
  # rank threads), the parallel readers and the HAEE halo stage (rank
  # blocks filled in place from received buffers), the HAEE row-apply
  # stress tests, the
  # storage engine (parallel chunk codecs, sharded chunk cache,
  # prefetch, the multi-rank repack concatenator), the SIMD dispatch
  # layer, the span tracer (concurrent emission vs collection), the
  # telemetry sampler (background thread vs counter/histogram/gauge
  # writers), the ingest admission queue (blocking producers vs the
  # draining consumer), the query server (concurrent clients vs the
  # coalescing dispatcher, worker pool, mid-request shutdown drain), and
  # the Algorithm 2 and 3 pipelines, Fig. 9's DASSA side included
  # (per-thread scratch on ApplyMT's pool threads). Nothing is
  # suppressed: every Apply runs on ThreadPool.
  step "tsan: ThreadSanitizer, concurrency suite"
  cmake --preset tsan
  cmake --build --preset tsan -j "${JOBS}"
  ctest --preset tsan -j "${JOBS}" \
    -R 'ThreadPool|Fft|P2pTest|CollectiveTest|InstrumentationTest|MpiStressTest|SplitTest|RuntimeTest|ParRead|BuildLocalBlock|GhostRows|HaeeTest|HaeeStress|HaeeMode|Apply|Codec|ChunkCache|Dash5V3|Trace|Telemetry|Repack|Simd|Ingest|Serve|Stats|MetricsDiff|LocalSimilarity|SimilarityOracle|InterferometryTest|BaselineTest'

  # The similarity oracle grid races rank threads, pool threads and the
  # row kernel's scratch; ten clean passes in a row, not one lucky one.
  step "tsan: similarity oracle grid, 10 runs until failure"
  ctest --preset tsan -R SimilarityOracle --repeat until-fail:10
}

leg_telemetry() {
  # End-to-end observability smoke: generate a tiny acquisition, run
  # the analysis pipeline on 4 ranks with telemetry sampling, then make
  # das_health validate and render the resulting JSONL.
  step "telemetry: das_analyze --telemetry -> das_health round trip"
  cmake --preset default
  cmake --build --preset default -j "${JOBS}" \
    --target das_generate das_analyze das_health
  TELEDIR="$(mktemp -d)"
  ./build/tools/das_generate --dir "${TELEDIR}" --channels 16 --rate 20 \
    --files 2 --seconds-per-file 2 --start 170728224510
  ./build/tools/das_analyze --dir "${TELEDIR}" --pipeline similarity \
    --window-half 4 --lag-half 2 --nodes 4 \
    --telemetry "${TELEDIR}/run.telemetry.jsonl" --telemetry-period-ms 5 \
    --out "${TELEDIR}/out.dh5" > /dev/null
  ./build/tools/das_health "${TELEDIR}/run.telemetry.jsonl" --validate-only
  ./build/tools/das_health "${TELEDIR}/run.telemetry.jsonl" > /dev/null

  # Live introspection smoke: a das_serve daemon, das_top polling its
  # kStats over the socket (human view and Prometheus exposition), and
  # a SIGUSR1 mid-run telemetry flush validated by das_health.
  step "telemetry: live kStats -> das_top + SIGUSR1 flush"
  cmake --build --preset default -j "${JOBS}" --target das_serve das_top
  local serve_sock="${TELEDIR}/serve.sock"
  ./build/tools/das_serve --socket "${serve_sock}" \
    --archive "${TELEDIR}/out.dh5" \
    --telemetry "${TELEDIR}/serve.telemetry.jsonl" > /dev/null &
  local serve_pid=$!
  local i
  for i in $(seq 1 100); do
    [[ -S "${serve_sock}" ]] && break
    sleep 0.1
  done
  [[ -S "${serve_sock}" ]]
  ./build/tools/das_top --socket "${serve_sock}" --once \
    | grep -q '^das_top'
  ./build/tools/das_top --socket "${serve_sock}" --once --prom \
    | grep -q '^dassa_stats_requests_total'
  kill -USR1 "${serve_pid}"
  local flushed=0
  for i in $(seq 1 100); do
    if ./build/tools/das_health "${TELEDIR}/serve.telemetry.jsonl" \
        --validate-only > /dev/null 2>&1; then
      flushed=1
      break
    fi
    sleep 0.1
  done
  [[ "${flushed}" -eq 1 ]]
  kill "${serve_pid}"
  wait "${serve_pid}"
  rm -rf "${TELEDIR}"
  TELEDIR=""
}

leg_clang_strict() {
  # Clang thread-safety analysis as errors over the annotated
  # dassa::Mutex / SharedMutex / CondVar wrappers, plus the
  # compile-fail suite proving the analysis still rejects each
  # violation class (and accepts the corrected twins).
  step "clang-strict: -Wthread-safety(-beta) as errors, full ctest"
  cmake --preset clang-strict
  cmake --build --preset clang-strict -j "${JOBS}"
  ctest --preset clang-strict -j "${JOBS}"
}

leg_clang_tidy() {
  step "clang-tidy: curated profile, per-check ratchet"
  cmake --preset clang-tidy
  python3 scripts/clang_tidy_check.py --jobs "${JOBS}"
}

leg_bench() {
  step "bench: FFT-stack perf-regression gate"
  cmake --preset default
  cmake --build --preset default -j "${JOBS}" --target bench_micro_dsp
  python3 bench/bench_compare.py --bench-bin build/bench/bench_micro_dsp

  step "bench: storage codec + chunk-cache gate (BENCH_codec.json)"
  cmake --build --preset default -j "${JOBS}" --target bench_codec
  ./build/bench/bench_codec --check

  step "bench: streaming ingest latency gate (BENCH_ingest.json)"
  cmake --build --preset default -j "${JOBS}" --target bench_ingest
  python3 bench/bench_compare.py --ingest-bin build/bench/bench_ingest

  step "bench: query-serving shared-decode gate (BENCH_serve.json)"
  cmake --build --preset default -j "${JOBS}" --target bench_serve
  python3 bench/bench_compare.py --serve-bin build/bench/bench_serve
}

# --------------------------------------------------------------- drive
run_leg lint
run_leg strict
run_leg asan
run_leg tsan
run_leg telemetry
if [[ "${RUN_CLANG}" -eq 1 ]]; then
  run_leg clang_strict
  run_leg clang_tidy
fi
if [[ "${RUN_BENCH}" -eq 1 ]]; then
  run_leg bench
fi

step "all checks passed"
