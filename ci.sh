#!/usr/bin/env bash
# Local CI: the gate every change must pass.
#
#   1. Release-ish build (RelWithDebInfo) + full ctest suite (includes the
#      serial-vs-parallel differential suites estimate_parallel_test,
#      candidate_filter_parallel_test, and train_parallel_test).
#   2. ThreadSanitizer build of the concurrency-sensitive pieces, running
#      every test labeled `concurrency` (ctest -L concurrency): ParallelFor
#      and the worker pool, the observability stress tests, the
#      differential suites, and the pooled EvalContext workspaces, with
#      NEURSC_THREADS=8 to force real contention.
#   3. Bit-identity suites: the Tape-vs-EvalContext suite
#      (eval_context_test: op by op, one whole WEst forward on fresh
#      weights, and the forwards of a trained estimator over every
#      substructure its queries extract; there is no end-to-end Tape
#      build, since inference runs only on EvalContext), the checkpoint
#      round-trip suite (serialize_test), the scalar-vs-AVX2 kernel
#      equivalence suite (simd_kernels_test) and the golden-output pin of
#      WEst forward and training results (golden_output_test) re-run
#      explicitly under both the Release and TSan builds — the bit-identity contract of
#      docs/execution.md. Stage 7 runs them again under ASan+UBSan, which
#      covers the AVX2 kernels' vector bodies and scalar tails.
#   4. Training-throughput smoke: bench_table4_training_time on a tiny
#      dataset sweeps NEURSC_THREADS {1,2,8} over full training runs and
#      exits non-zero unless every parallel run reproduces the serial
#      final weights and loss curves bit for bit.
#   5. Forward-engine smoke: bench_micro_forward gates Tape/EvalContext
#      bit agreement, zero steady-state arena growth (any eval/arena_grows
#      regression fails the run), and reduced per-pass allocations over
#      the Table-4 model sizes. Wall clock is reported, never gated.
#   6. Static thread-safety analysis: a Clang build of the full tree with
#      -DNEURSC_ANALYZE=ON (-Werror=thread-safety), proving every
#      NEURSC_GUARDED_BY / NEURSC_REQUIRES contract, plus the clang-tidy
#      gate (scripts/lint.sh, .clang-tidy check set). Skipped loudly when
#      clang is not installed — the annotations are no-op macros on GCC.
#   7. ASan+UBSan lane: the full ctest suite rebuilt with
#      -DNEURSC_SANITIZE=address,undefined; UBSan failures are fatal
#      (-fno-sanitize-recover), so any signed-overflow/bad-shift/bad-cast
#      or memory bug fails the run.
#
# Usage: ./ci.sh [jobs]   (jobs defaults to nproc)

set -euo pipefail
cd "$(dirname "$0")"

JOBS="${1:-$(nproc)}"

echo "=== [1/7] Release build + tests ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure

echo
echo "=== [2/7] TSan build + concurrency tests (ctest -L concurrency) ==="
cmake -B build-tsan -S . -DNEURSC_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target \
  parallel_test metrics_stress_test metrics_registry_test trace_test \
  estimate_parallel_test candidate_filter_parallel_test \
  train_parallel_test pipeline_stress_test eval_context_test \
  thread_annotations_test
NEURSC_THREADS=8 ctest --test-dir build-tsan -L concurrency \
  --output-on-failure

echo
echo "=== [3/7] Bit-identity suites (Release + TSan) ==="
cmake --build build-tsan -j "$JOBS" --target serialize_test \
  simd_kernels_test golden_output_test
BIT_IDENTITY='eval_context_test|serialize_test|simd_kernels_test|golden_output_test'
ctest --test-dir build -R "$BIT_IDENTITY" --output-on-failure
NEURSC_THREADS=8 ctest --test-dir build-tsan -R "$BIT_IDENTITY" \
  --output-on-failure

echo
echo "=== [4/7] Training-throughput smoke (NEURSC_THREADS sweep) ==="
cmake --build build -j "$JOBS" --target bench_table4_training_time
NEURSC_SCALE=0.25 NEURSC_EPOCHS=4 NEURSC_QUERIES=8 \
  ./build/bench/bench_table4_training_time

echo
echo "=== [5/7] Forward-engine smoke (agreement + allocation gates) ==="
cmake --build build -j "$JOBS" --target bench_micro_forward
NEURSC_PASSES=10 ./build/bench/bench_micro_forward

echo
echo "=== [6/7] Static analysis: Clang -Werror=thread-safety + clang-tidy ==="
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-analyze -S . -DNEURSC_ANALYZE=ON \
    -DCMAKE_CXX_COMPILER=clang++ >/dev/null
  cmake --build build-analyze -j "$JOBS"
  scripts/lint.sh
else
  echo "SKIPPED: clang++ not installed; thread-safety annotations are"
  echo "no-op macros under GCC, so there is nothing to check on this host."
  echo "Install clang + clang-tidy to run this lane."
fi

echo
echo "=== [7/7] ASan+UBSan build + full test suite ==="
cmake -B build-asan -S . -DNEURSC_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "$JOBS"
ASAN_OPTIONS=halt_on_error=1 UBSAN_OPTIONS=print_stacktrace=1 \
  ctest --test-dir build-asan --output-on-failure

echo
echo "ci.sh: all green"
