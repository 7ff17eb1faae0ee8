#!/usr/bin/env bash
# Full hygiene pass: configure with ASan+UBSan, build everything, and run
# the test suite under the sanitizers. Usage:
#   scripts/check.sh [build-dir]
# A separate build directory (default build-asan) keeps the instrumented
# artifacts away from the regular build.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSGP_SANITIZE=address,undefined
cmake --build "$BUILD_DIR" -j "$(nproc)"

# halt_on_error makes UBSan findings fail the test run instead of just
# printing; detect_leaks exercises the LeakSanitizer pass bundled with ASan.
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export ASAN_OPTIONS="detect_leaks=1"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
echo "check.sh: all tests passed under address,undefined sanitizers"

# The telemetry layer is the one subsystem with lock-free concurrent
# mutation; give its test an extra dedicated sanitizer pass so a racing
# counter/histogram bug cannot hide behind a sharded ctest run.
"$BUILD_DIR/tests/telemetry_test"
# The monitor layer samples that same lock-free registry from the
# simulator loop while workers mutate it; its suite gets the same
# dedicated pass.
"$BUILD_DIR/tests/monitor_test"
echo "check.sh: telemetry_test + monitor_test passed standalone under sanitizers"

# The ingest-equivalence suite is the contract of the chunked source
# layer (chunk boundaries and the disk reader never change results); run
# it standalone under the sanitizers so a buffer-lifetime bug in a chunk
# refill cannot hide behind a sharded ctest run either.
"$BUILD_DIR/tests/source_equivalence_test"
# The block-scanning edge-list reader does raw pointer arithmetic at block
# ends (the carried partial line, the end-of-input sentinel, the buffer
# growth for an overlong line); its differential suite against the old
# istringstream parser gets the same standalone sanitized pass.
"$BUILD_DIR/tests/edge_list_scanner_test"
# The master tracker probes an open-addressing overflow table that it
# rehashes as it grows; its differential suite against the old
# vector-of-vectors tally gets the same standalone sanitized pass.
"$BUILD_DIR/tests/master_tracker_test"
echo "check.sh: source_equivalence_test + edge_list_scanner_test + master_tracker_test passed standalone under sanitizers"

# The live-resharding suite moves ownership state while queries are in
# flight; run it and the drain-guard regressions standalone under the
# sanitizers so a dangling plan pointer or a use-after-move in the batch
# protocol cannot hide behind a sharded ctest run.
"$BUILD_DIR/tests/reshard_test"
"$BUILD_DIR/tests/fault_tolerance_test" --gtest_filter='RecoveryTest.*'
echo "check.sh: resharding + drain-guard tests passed standalone under sanitizers"

# The scoring core is the one place every partitioner's decision loop now
# runs through, and its batched path does word-level bit manipulation over
# externally grown membership rows; run its suite standalone under the
# sanitizers so an out-of-bounds word read in a partial tail block cannot
# hide behind a sharded ctest run. A second run forces the SIMD dispatch
# onto the portable omp-simd tier, so both tiers of the kSimd kernels get
# a sanitized pass regardless of host ISA.
"$BUILD_DIR/tests/score_core_test"
SGP_FORCE_SCALAR_DISPATCH=1 "$BUILD_DIR/tests/score_core_test"
echo "check.sh: score_core_test passed standalone under sanitizers (both SIMD tiers)"

# The two-phase family re-streams rewound sources and the registry hands
# out pointers into a growable table; run both new suites standalone
# under the sanitizers so a dangling PartitionerInfo pointer or a
# buffer-lifetime bug across a Rewind() cannot hide behind a sharded
# ctest run.
"$BUILD_DIR/tests/registry_test"
"$BUILD_DIR/tests/twophase_test"
echo "check.sh: registry_test + twophase_test passed standalone under sanitizers"

# Machine-readable bench output: run a representative subset at a small
# scale and verify every BENCH_*.json parses. The benches run sanitized
# too — they double as an integration pass over the instrumented paths.
JSON_DIR="$(mktemp -d)"
trap 'rm -rf "$JSON_DIR"' EXIT
for bench in bench_fig1_comm_volume bench_fig2_replication \
             bench_fig6_online_throughput \
             bench_partitioner_speed bench_ablation_parallel_ingest \
             bench_engine_speed bench_ablation_resharding \
             bench_ablation_monitoring; do
  SGP_SCALE=8 SGP_BENCH_JSON_DIR="$JSON_DIR" \
    "$BUILD_DIR/bench/$bench" > /dev/null
done
for json in "$JSON_DIR"/BENCH_*.json; do
  python3 -m json.tool "$json" > /dev/null
  echo "check.sh: $(basename "$json") is valid JSON"
done
echo "check.sh: bench JSON snapshots validated"

# Deterministic-regression gate: the committed golden pins the
# deterministic metric sections (stream chunks, state builds, item
# counts) of the parallel-ingest ablation at SGP_SCALE=8. A
# behavior-preserving change must reproduce them exactly; regenerate the
# golden (command in scripts/bench_diff.py) after intentional changes.
python3 scripts/bench_diff.py \
  tests/golden/BENCH_ablation_parallel_ingest.json \
  "$JSON_DIR/BENCH_ablation_parallel_ingest.json"

# Same gate for the engine kernel bench: its deterministic section is
# every engine.* counter the specialized and generic paths produce, so a
# divergence here means the kernels are no longer byte-equivalent.
python3 scripts/bench_diff.py \
  tests/golden/BENCH_engine_speed.json \
  "$JSON_DIR/BENCH_engine_speed.json"

# And for the elastic-resharding ablation: its deterministic section is
# the whole reshard.* namespace (batches, retries, re-plans, forwarded
# reads) plus the sim counters, so a divergence means live resharding no
# longer replays bit-identically under the pinned seeds.
python3 scripts/bench_diff.py \
  tests/golden/BENCH_ablation_resharding.json \
  "$JSON_DIR/BENCH_ablation_resharding.json"

# And for the monitoring ablation: its deterministic section pins the
# monitor.* namespace plus the per-fault-plan alert totals, so a
# divergence means burn-rate alerting either went quiet under an outage
# or started paging on healthy traffic.
python3 scripts/bench_diff.py \
  tests/golden/BENCH_ablation_monitoring.json \
  "$JSON_DIR/BENCH_ablation_monitoring.json"

# And for the partitioner scoring bench: its deterministic section pins a
# per-(algo, k, mode) fingerprint of the full assignment vectors plus the
# partition.score.* counters, so a divergence means the scalar reference
# scorer and the batched bit-packed ScoreCore path stopped agreeing
# byte-for-byte (the bench also exits nonzero on any in-run mismatch).
python3 scripts/bench_diff.py \
  tests/golden/BENCH_partitioner_speed.json \
  "$JSON_DIR/BENCH_partitioner_speed.json"

# And for the Figure 2 replication bench: its deterministic section pins
# every (dataset, algorithm, k) replication factor in thousandths
# (bench.fig2.rf_milli.*) plus the partition.cluster.* / partition.hep.*
# / partition.ne.* decision counters, so a divergence means some
# partitioner — old roster or the new two-phase family — no longer
# reproduces the committed figure bit-for-bit.
python3 scripts/bench_diff.py \
  tests/golden/BENCH_fig2_replication.json \
  "$JSON_DIR/BENCH_fig2_replication.json"
echo "check.sh: bench goldens match"

# ThreadSanitizer pass over the concurrent subsystems: the worker pool,
# the sharded ingest path, and the parallel grid runner (its determinism
# tests drive 4 worker threads through the memoized caches and the
# per-cell registry merge). TSan is incompatible with ASan, so it gets
# its own build tree; only the three concurrency suites need rebuilding.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSGP_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$(nproc)" \
  --target thread_pool_test parallel_streaming_test grid_test reshard_test \
  monitor_test score_core_test twophase_test

export TSAN_OPTIONS="halt_on_error=1"
"$TSAN_DIR/tests/thread_pool_test"
"$TSAN_DIR/tests/parallel_streaming_test"
"$TSAN_DIR/tests/grid_test" --gtest_filter='GridRunnerTest.*'
# The reshard controller's telemetry goes through the same thread-local
# registry cache the concurrent subsystems use; running the suite under
# TSan keeps the reshard.* counters honest if resharding ever moves onto
# the worker pool.
"$TSAN_DIR/tests/reshard_test"
# Concurrent time-series sampling against live lock-free counter and
# histogram updates is a real race surface; the monitor suite drives
# writer threads through the registry while a sampler reads it.
"$TSAN_DIR/tests/monitor_test"
# The sharded-scoring equivalence tests drive multi-worker ingest through
# the batched bit-index path (global rows read while delta rows mutate
# between barriers); TSan keeps that interval discipline honest. The
# forced-portable re-run covers the omp-simd twin of the kSimd kernels.
"$TSAN_DIR/tests/score_core_test"
SGP_FORCE_SCALAR_DISPATCH=1 "$TSAN_DIR/tests/score_core_test"
# The two-phase partitioners run inside the parallel grid runner (each
# cell a worker thread sharing the memoized dataset cache); their suite
# under TSan keeps the per-run state honestly run-local.
"$TSAN_DIR/tests/twophase_test"
echo "check.sh: concurrency tests passed under thread sanitizer"

# Portable-vs-native smoke: build partition_checksum twice — the default
# portable flags and -DSGP_NATIVE=ON (-march=native, FP contraction off) —
# and require byte-identical fingerprints for every (algorithm, dataset,
# k, seed, order, capacity profile) cell, in every score mode. This is
# the guard that the scalar/batched/simd equivalence is expression-shape
# stable, not an artifact of one compiler flag set.
PORTABLE_DIR="${BUILD_DIR}-portable"
NATIVE_DIR="${BUILD_DIR}-native"
cmake -B "$PORTABLE_DIR" -S . > /dev/null
cmake -B "$NATIVE_DIR" -S . -DSGP_NATIVE=ON > /dev/null
cmake --build "$PORTABLE_DIR" -j "$(nproc)" --target partition_checksum
cmake --build "$NATIVE_DIR" -j "$(nproc)" --target partition_checksum
for mode in scalar batched simd; do
  "$PORTABLE_DIR/examples/partition_checksum" --scale 9 --score-mode "$mode" \
    > "$JSON_DIR/ck_portable_$mode.txt"
  diff "$JSON_DIR/ck_portable_$mode.txt" \
       <("$NATIVE_DIR/examples/partition_checksum" --scale 9 --score-mode "$mode")
  # Cross-mode: every mode must reproduce the scalar reference grid.
  diff "$JSON_DIR/ck_portable_scalar.txt" "$JSON_DIR/ck_portable_$mode.txt"
done
echo "check.sh: portable and -march=native builds partition identically in every score mode"

# ISA-tier guard: forcing the SIMD dispatch onto the portable omp-simd
# tier via the env override must reproduce the hardware tier's grid
# byte-for-byte (on AVX2 hosts this diffs real vector kernels against
# the portable twin; elsewhere it is a no-op consistency check).
diff <(SGP_FORCE_SCALAR_DISPATCH=1 \
         "$PORTABLE_DIR/examples/partition_checksum" --scale 9 --score-mode simd) \
     "$JSON_DIR/ck_portable_simd.txt"
echo "check.sh: forced-portable and hardware SIMD tiers partition identically"
