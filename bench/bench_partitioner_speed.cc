// Scoring-path speed: ns/edge of every ScoreCore-backed streaming
// partitioner across partition counts, on the production kernels — the
// AVX2 kernels when the CPU has them, the portable batched ones
// otherwise (the banner names which). Both place every element
// identically: each cell's fingerprint gauge pins the assignment bytes in
// the golden, and tests/score_core_test.cc checks every kernel against
// the scalar oracles of tests/score_oracle.h.
//
// Also keeps the Section 4.1 memory claim visible: streaming partitioners
// hold only an O(n + k) synopsis (state_KB column), a fraction of what the
// offline multilevel baseline needs for its coarsening hierarchy.
//
// Timing runs execute inside a scoped throwaway registry so repetition
// can never leak wall time into the deterministic JSON section; one
// canonical run per (algo, k) cell then executes in the global registry,
// contributing the decision counters and the partition.score.* namespace
// plus a fingerprint gauge per cell. The deterministic section is
// golden-gated by scripts/check.sh.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "graph/datasets.h"
#include "partition/partitioner.h"
#include "partition/score_core.h"

namespace {

using namespace sgp;

// Fixed repetition count: best-of-N wall time, no adaptive iteration.
constexpr int kReps = 3;

uint64_t Fnv1a(uint64_t h, const std::vector<PartitionId>& v) {
  for (PartitionId p : v) {
    h ^= p;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Folded to 32 bits so the fingerprint is exactly representable in the
// gauge's double payload (and therefore byte-stable in the golden JSON).
uint64_t Fingerprint32(const Partitioning& p) {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = Fnv1a(h, p.vertex_to_partition);
  h = Fnv1a(h, p.edge_to_partition);
  return (h ^ (h >> 32)) & 0xFFFFFFFFULL;
}

struct Cell {
  double ns_per_edge = 0;
  uint64_t fingerprint = 0;
  uint64_t state_bytes = 0;
};

Cell RunCell(const Graph& g, const std::string& algo, PartitionId k) {
  auto partitioner = CreatePartitioner(algo);
  PartitionConfig cfg;
  cfg.k = k;

  Cell cell;
  double best_nanos = 0;
  {
    // Throwaway registry: timing repetitions must not touch the global
    // (golden-gated) counters.
    MetricsRegistry scratch;
    ScopedMetricsRegistry scoped(&scratch);
    for (int rep = 0; rep < kReps; ++rep) {
      Timer timer;
      Partitioning p = partitioner->Run(g, cfg);
      const double nanos = static_cast<double>(timer.ElapsedNanos());
      if (rep == 0 || nanos < best_nanos) best_nanos = nanos;
    }
  }
  // Canonical run: decision counters land in the global registry.
  Partitioning p = partitioner->Run(g, cfg);
  cell.ns_per_edge = best_nanos / static_cast<double>(g.num_edges());
  cell.fingerprint = Fingerprint32(p);
  cell.state_bytes = p.state_bytes;
  return cell;
}

}  // namespace

int main() {
  const uint32_t scale = bench::ScaleFromEnv();
  bench::PrintBanner("Partitioner scoring speed",
                     "ns/edge of the production ScoreCore kernels", scale);
  std::cout << "score kernels: "
            << (score::avx2::Available() ? "avx2" : "portable") << "\n";
  const Graph g(MakeDataset("twitter", scale));

  const std::vector<std::string> algos = {"LDG",  "FNL",  "HDRF", "PGG",
                                          "HG",   "ESG",  "RLDG", "RFNL"};
  TablePrinter table({"Algo", "k", "ns/edge", "state_KB"});
  for (const std::string& algo : algos) {
    for (PartitionId k : {8u, 32u, 128u}) {
      const Cell cell = RunCell(g, algo, k);
      const std::string prefix =
          "partitioner_speed." + algo + ".k" + std::to_string(k);
      MetricsRegistry::Global()
          .GetGauge(prefix + ".fingerprint")
          ->Set(static_cast<double>(cell.fingerprint));
      MetricsRegistry::Global()
          .GetGauge(prefix + ".ns_per_edge.wall", MetricOptions::WallClock())
          ->Set(cell.ns_per_edge);
      table.AddRow({algo, std::to_string(k), FormatDouble(cell.ns_per_edge, 2),
                    FormatDouble(
                        static_cast<double>(cell.state_bytes) / 1024.0, 1)});
    }
  }
  table.Print(std::cout);
  std::cout
      << "\nExpected shape: ns/edge grows with k for every code, steepest\n"
         "for HDRF, whose sweep also reads two membership rows per edge.\n"
         "state_KB grows with k only for the codes that keep per-vertex\n"
         "partition sets (HDRF, PGG, ESG); the vertex-greedy codes hold\n"
         "O(n + k) and stay flat.\n";
  bench::WriteBenchJson("partitioner_speed", scale);
  return 0;
}
