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
echo "check.sh: telemetry_test passed standalone under sanitizers"

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

# The scoring core is the one place every partitioner's decision loop now
# runs through, and its batched path does word-level bit manipulation over
# externally grown membership rows; run its suite standalone under the
# sanitizers so an out-of-bounds word read in a partial tail block cannot
# hide behind a sharded ctest run. Its kernel differential suite calls the
# portable batched kernels directly, so they get a sanitized pass on AVX2
# hosts too, where partitioners run the AVX2 kernels.
"$BUILD_DIR/tests/score_core_test"
echo "check.sh: score_core_test passed standalone under sanitizers"

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
             bench_fig6_online_throughput bench_table5_latency \
             bench_partitioner_speed bench_ablation_parallel_ingest \
             bench_engine_speed; do
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
# every engine.* counter of the superstep kernel's PageRank and SSSP runs,
# so a divergence here means the kernel no longer reproduces the committed
# message counts, bytes and simulated costs.
python3 scripts/bench_diff.py \
  tests/golden/BENCH_engine_speed.json \
  "$JSON_DIR/BENCH_engine_speed.json"

# And for the Table 5 latency bench: its deterministic section pins the
# healthy closed-loop simulator — the graphdb.sim.* counters and the
# per-query-kind latency histograms on the simulated clock — so a
# divergence means SimulateClosedLoop no longer replays every event and
# random draw of the committed run.
python3 scripts/bench_diff.py \
  tests/golden/BENCH_table5_latency.json \
  "$JSON_DIR/BENCH_table5_latency.json"

# And for the partitioner scoring bench: its deterministic section pins a
# per-(algo, k) fingerprint of the full assignment vectors plus the
# partition.score.* counters, so a divergence means a ScoreCore kernel no
# longer places every element as it did when the golden was recorded.
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

# ThreadSanitizer pass over the concurrent subsystems: the sharded ingest
# path and the edge-list pipeline (the file source's reader thread and the
# master tracker's tally thread). TSan is incompatible with ASan, so it
# gets its own build tree; only the concurrency suites need rebuilding.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSGP_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$(nproc)" \
  --target parallel_streaming_test score_core_test twophase_test \
  source_equivalence_test edge_list_scanner_test master_tracker_test \
  vertexcut_test

export TSAN_OPTIONS="halt_on_error=1"
"$TSAN_DIR/tests/parallel_streaming_test"
# The sharded-scoring equivalence tests drive multi-worker ingest through
# the batched bit-index path (global rows read while delta rows mutate
# between barriers); TSan keeps that interval discipline honest.
"$TSAN_DIR/tests/score_core_test"
# The two-phase partitioners (2PS, HEP) fold their master tallies on the
# tracker's tally thread; their suite under TSan keeps the per-run state
# honestly run-local.
"$TSAN_DIR/tests/twophase_test"
# The file source parses on a reader thread into a ring of chunk slots,
# and every vertex-cut RunOnSource folds its master tallies on a tally
# thread: the chunk handoffs, rewinds, early destruction and the join
# before Derive run under TSan through the source and tracker suites and
# the partitioners that drive both.
"$TSAN_DIR/tests/source_equivalence_test"
"$TSAN_DIR/tests/edge_list_scanner_test"
"$TSAN_DIR/tests/master_tracker_test"
"$TSAN_DIR/tests/vertexcut_test"
echo "check.sh: concurrency tests passed under thread sanitizer"

# Portable-vs-native smoke: build partition_checksum twice — the default
# portable flags and -DSGP_NATIVE=ON (-march=native, FP contraction off) —
# and require both to reproduce the committed scale-9 grid byte for byte:
# every (algorithm, dataset, k, seed, order, capacity profile) cell plus
# the parallel drivers. This is the guard that the scoring kernels'
# equivalence is expression-shape stable, not an artifact of one compiler
# flag set. Both builds also run the graph golden
# (tests/golden/graph_fingerprints.txt): the generators' inlined RNG and
# branch-free R-MAT compares must give the same graphs under native codegen.
PORTABLE_DIR="${BUILD_DIR}-portable"
NATIVE_DIR="${BUILD_DIR}-native"
cmake -B "$PORTABLE_DIR" -S . > /dev/null
cmake -B "$NATIVE_DIR" -S . -DSGP_NATIVE=ON > /dev/null
for dir in "$PORTABLE_DIR" "$NATIVE_DIR"; do
  cmake --build "$dir" -j "$(nproc)" \
    --target partition_checksum graph_fingerprint_test
  diff tests/golden/partition_checksum_scale9.txt \
       <("$dir/examples/partition_checksum" --scale 9)
  "$dir/tests/graph_fingerprint_test"
done
echo "check.sh: portable and -march=native builds reproduce the checksum and graph goldens"
