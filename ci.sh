#!/usr/bin/env bash
# Local CI: the gate every change must pass.
#
#   1. Release-ish build (RelWithDebInfo) + full ctest suite (includes the
#      serial-vs-parallel differential suites estimate_parallel_test,
#      candidate_filter_parallel_test, and train_parallel_test).
#   2. ThreadSanitizer build of the concurrency-sensitive pieces, running
#      every test labeled `concurrency` (ctest -L concurrency): ParallelFor
#      and the worker pool, the observability stress tests, the
#      differential suites, and the per-thread Tape workspaces that serve
#      every pass (inference, training examples, validation, critic
#      updates, LSS and NSIC), with NEURSC_THREADS=8 to force real
#      contention.
#   3. Bit-identity suites: the tape-reuse suite (eval_context_test: a
#      reused tape's forward and backward match a fresh tape's bit for bit,
#      with zero arena growth after warm-up, and a second run of the same
#      training and NSIC passes grows no thread tape), the checkpoint round-trip
#      suite (serialize_test), the scalar-vs-AVX2 kernel equivalence suite
#      (simd_kernels_test, including the backward and Adam kernels), the
#      golden-output pin of WEst forward and training results
#      (golden_output_test), the Adam suite (optimizer_test) and the tape
#      suite (tape_test, whose per-op forward pin checks every op's output
#      and whose per-op backward pin checks each op's input gradients
#      against scalar reference loops, bit for bit), the message-passing
#      suite (message_passing_test: the Aggregate op against the
#      gather/scale/scatter chain it replaced, values and every input
#      gradient bit for bit; the bipartite attention layer, which scores
#      edges from per-vertex projections, against the chain that projected
#      every vertex by Theta_a first, output and the gradients of h, Theta,
#      Theta_a and a within a relative 1e-5, plus a finite-difference check
#      of the Theta_a and a gradients) and the prepare
#      path's oracle suites (candidate_filter_test: incremental refinement
#      against a full re-test; filter_property_test: more
#      refinement never adds a candidate; bipartite_matching_test: the
#      bitset semi-perfect matching test against brute force and
#      Hopcroft-Karp, with its scratch reused; substructure_test: the
#      direct-CSR split against a three-pass split; feature_init_test:
#      linear-time features against a per-vertex BFS; all on the
#      per-thread extraction scratch) and the readers' oracle suite
#      (loader_oracle_test: the in-memory checkpoint, text-graph and
#      binary-graph readers against the stream readers they replaced, same
#      status, message, weights bit for bit and graph, over every
#      single-token truncation and replacement of valid inputs) and the
#      critic suite (discriminator_test: L_w built through the selected
#      substructure rows only against the full-row path, loss, every
#      critic gradient and the substructure-row gradient bit for bit) re-run
#      explicitly under the TSan build — the bit-identity contract of
#      docs/execution.md. Stage 1 already runs them in the Release build,
#      and stage 6 runs them again under ASan+UBSan, which covers the AVX2
#      kernels' vector bodies and scalar tails.
#   4. Bench smoke: bench_table4_training_time on a tiny dataset times one
#      training epoch of LSS and the NeurSC variants (Table 4), then sweeps
#      NEURSC_THREADS {1,2,8} over full training runs; it exits non-zero
#      if a Table 4 row's training fails or unless every parallel run
#      reproduces the serial final weights and loss curves bit for bit;
#      then bench_ablations (~0.4 s) prints the refinement-round sweep
#      and Sec. 5.5's greedy-vs-exact transport cost ratio, and exits
#      non-zero if its fixtures fail to generate or filter or a ratio is
#      not finite; then the neursc_cli self-demo
#      (generate -> train -> evaluate, ~0.1 s) prints the per-query extraction/inference times
#      from EstimateInfo; then the CLI through files (~0.1 s): `generate`
#      writes the Yeast stand-in, `train` (1 epoch) saves a checkpoint, and
#      `estimate` runs on a matchable and an unmatchable query file that
#      the script writes, twice with the checkpoint and once with a copy
#      of it re-spaced by sed (tabs between values, CRLF line ends); the
#      stage fails unless cmp finds the three outputs identical once their
#      ms figures are masked (the only end-to-end run of ReadGraphFromFile,
#      SaveModel and LoadModel through files, and the only end-to-end
#      check that the checkpoint loader splits on every whitespace byte as
#      a stream would); then bench_ext_active_learning runs the
#      active-learning loop on a tiny dataset (~0.06 s) and exits non-zero
#      if the workload, the query pool or the learner's run fails; last,
#      bench_fig11_ablation_se, the only program that runs "NeurSC w/o SE",
#      "NeurSC w/ PS" and NSIC end to end, on a tiny dataset (~0.2 s) at
#      NEURSC_THREADS=1 and =8; it exits non-zero if a NeurSC variant's
#      estimate fails, and the stage fails unless cmp finds the two
#      outputs identical (the only end-to-end check of these passes
#      across thread counts); then bench_fig7_accuracy, the only program
#      that estimates with every baseline (CSet, SumRDF, CS, WJ, JSUB,
#      NSIC-I, NSIC-C and LSS) next to the NeurSC variants, on a tiny
#      dataset (~1.7 s) at NEURSC_THREADS=1 and =8; the stage fails unless
#      cmp finds the two outputs identical. Last, every other paper bench
#      (bench_datasets, bench_fig8_count_ranges, bench_fig9_query_chars,
#      bench_fig10_robustness, bench_fig12_distance,
#      bench_fig13_query_time, bench_fig14_tradeoff and
#      bench_ext_intra_gnn) runs once on a tiny dataset (~2.6 s in all), and
#      the stage fails on a non-zero exit; fig12, fig14 and ext_intra_gnn
#      are the only end-to-end runs of the EU/KL/JS critic, the sample
#      rate r_s and the mean aggregator.
#   5. Static thread-safety analysis: a Clang build of the full tree with
#      -DNEURSC_ANALYZE=ON (-Werror=thread-safety), proving every
#      NEURSC_GUARDED_BY / NEURSC_REQUIRES contract, plus the clang-tidy
#      gate (scripts/lint.sh, .clang-tidy check set). Skipped loudly when
#      clang is not installed — the annotations are no-op macros on GCC.
#   6. ASan+UBSan lane: the full ctest suite rebuilt with
#      -DNEURSC_SANITIZE=address,undefined and -Werror, so a compiler
#      warning (say, an unused static helper left behind by a deletion)
#      fails the build; UBSan failures are fatal (-fno-sanitize-recover),
#      so any signed-overflow/bad-shift/bad-cast or memory bug fails the
#      run. The suite includes the deterministic mutation fuzz of the
#      untrusted-input readers (input_fuzz_test).
#   7. Benchmark code: `python3 -m unittest discover -s perfbench`. Its
#      setup builds perfbench.cc against src/ exactly as perfbench/run.py
#      does (into .bench_build/perfbench), so a library API change that
#      breaks the benchmark's program fails here; then it runs the report,
#      comparison, generator and output-check tests.
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
echo "=== [3/7] Bit-identity suites (TSan) ==="
# One list feeds both the build and the ctest filter.
BIT_IDENTITY_SUITES="eval_context_test serialize_test simd_kernels_test
  golden_output_test optimizer_test tape_test message_passing_test
  candidate_filter_test substructure_test feature_init_test
  bipartite_matching_test filter_property_test loader_oracle_test
  discriminator_test"
BIT_IDENTITY=$(printf '%s|' $BIT_IDENTITY_SUITES)
cmake --build build-tsan -j "$JOBS" --target $BIT_IDENTITY_SUITES
NEURSC_THREADS=8 ctest --test-dir build-tsan -R "^(${BIT_IDENTITY%|})\$" \
  --output-on-failure

echo
echo "=== [4/7] Bench smoke (NEURSC_THREADS sweep + ablations + CLI demo + CLI through files + active learning + Fig. 11 + Fig. 7 + other benches) ==="
TINY_BENCHES="bench_datasets bench_fig8_count_ranges bench_fig9_query_chars
  bench_fig10_robustness bench_fig12_distance bench_fig13_query_time
  bench_fig14_tradeoff bench_ext_intra_gnn"
cmake --build build -j "$JOBS" --target bench_table4_training_time \
  bench_ablations neursc_cli bench_ext_active_learning \
  bench_fig11_ablation_se bench_fig7_accuracy $TINY_BENCHES
NEURSC_SCALE=0.25 NEURSC_EPOCHS=4 NEURSC_QUERIES=8 \
  ./build/bench/bench_table4_training_time
./build/bench/bench_ablations
./build/examples/neursc_cli
CLI_OUT="$(mktemp -d)"
CLI=./build/examples/neursc_cli
"$CLI" generate Yeast "$CLI_OUT/data.graph"
"$CLI" train "$CLI_OUT/data.graph" "$CLI_OUT/model.ckpt" 1
printf 't 3 2\nv 0 0 1\nv 1 1 2\nv 2 2 1\ne 0 1\ne 1 2\n' \
  > "$CLI_OUT/matchable.graph"
printf 't 3 2\nv 0 0 1\nv 1 1 2\nv 2 200 1\ne 0 1\ne 1 2\n' \
  > "$CLI_OUT/unmatchable.graph"
sed -e 's/ /\t/g' -e 's/$/\r/' "$CLI_OUT/model.ckpt" \
  > "$CLI_OUT/respaced.ckpt"
for run in 1 2 3; do
  model=model
  [ "$run" = 3 ] && model=respaced
  for query in matchable unmatchable; do
    "$CLI" estimate "$CLI_OUT/data.graph" "$CLI_OUT/$model.ckpt" \
      "$CLI_OUT/$query.graph"
  done | sed -E 's/[0-9.]+ms/<t>ms/g' > "$CLI_OUT/estimate$run.txt"
done
cat "$CLI_OUT/estimate1.txt"
cmp "$CLI_OUT/estimate1.txt" "$CLI_OUT/estimate2.txt"
cmp "$CLI_OUT/estimate1.txt" "$CLI_OUT/estimate3.txt"
rm -rf "$CLI_OUT"
NEURSC_SCALE=0.25 NEURSC_EPOCHS=4 NEURSC_QUERIES=8 \
  ./build/bench/bench_ext_active_learning
FIG11_OUT="$(mktemp -d)"
for threads in 1 8; do
  NEURSC_THREADS=$threads NEURSC_SCALE=0.25 NEURSC_EPOCHS=2 \
    NEURSC_QUERIES=4 ./build/bench/bench_fig11_ablation_se \
    > "$FIG11_OUT/threads$threads.txt"
done
cat "$FIG11_OUT/threads1.txt"
cmp "$FIG11_OUT/threads1.txt" "$FIG11_OUT/threads8.txt"
rm -rf "$FIG11_OUT"
FIG7_OUT="$(mktemp -d)"
for threads in 1 8; do
  NEURSC_THREADS=$threads NEURSC_SCALE=0.25 NEURSC_EPOCHS=2 \
    NEURSC_QUERIES=4 ./build/bench/bench_fig7_accuracy \
    > "$FIG7_OUT/threads$threads.txt"
done
cat "$FIG7_OUT/threads1.txt"
cmp "$FIG7_OUT/threads1.txt" "$FIG7_OUT/threads8.txt"
rm -rf "$FIG7_OUT"
for bench in $TINY_BENCHES; do
  echo "--- $bench"
  NEURSC_SCALE=0.25 NEURSC_EPOCHS=2 NEURSC_QUERIES=4 "./build/bench/$bench"
done

echo
echo "=== [5/7] Static analysis: Clang -Werror=thread-safety + clang-tidy ==="
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
echo "=== [6/7] ASan+UBSan build + full test suite ==="
cmake -B build-asan -S . -DNEURSC_SANITIZE=address,undefined \
  -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build-asan -j "$JOBS"
ASAN_OPTIONS=halt_on_error=1 UBSAN_OPTIONS=print_stacktrace=1 \
  ctest --test-dir build-asan --output-on-failure

echo
echo "=== [7/7] Benchmark build + tests (perfbench) ==="
python3 -m unittest discover -s perfbench

echo
echo "ci.sh: all green"
