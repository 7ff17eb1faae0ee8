// Scoring-path speed: ns/edge of every ScoreCore-backed streaming
// partitioner across partition counts, on the production kernels — the
// AVX2 kernels when the CPU has them, the portable batched ones
// otherwise (the banner names which). Both place every element
// identically: each cell's fingerprint gauge pins the assignment bytes in
// the golden, and tests/score_core_test.cc checks every kernel against
// the scalar oracles of tests/score_oracle.h. HDRF also runs on usaroad,
// where |A(u) ∪ A(v)| holds at most two partitions on most edges, so
// ScoreCore::PickHdrf scores those instead of sweeping all k.
//
// Each cell times Partitioner::Run whole, as partition_tool runs it, so
// a vertex-cut cell includes its master tally: the MasterTracker that
// HDRF's stream body fills chunk by chunk, and DeriveMasterPlacement,
// over the same tracker, for PGG. For HDRF the tally runs on the
// tracker's own thread while the scorer places edges.
//
// Also keeps the Section 4.1 memory claim visible: streaming partitioners
// hold only an O(n + k) synopsis (state_KB column), a fraction of what the
// offline multilevel baseline needs for its coarsening hierarchy.
//
// Timing: kReps rounds, each running every (dataset, algo, k) cell once
// in a fixed order, and each cell reports the median of its rounds, so
// drift of a shared host spreads over all cells instead of landing on
// the few that ran during it. Timing runs execute inside a scoped
// throwaway registry so repetition can never leak wall time into the
// deterministic JSON section; one canonical run per cell then executes in
// the global registry, contributing the decision counters and the
// partition.score.* namespace plus a fingerprint gauge per cell. The
// deterministic section is golden-gated by scripts/check.sh.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
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

// Timed rounds per cell; the median is reported.
constexpr int kReps = 5;

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
  std::string dataset;
  std::string algo;
  PartitionId k = 0;
  std::vector<double> nanos;  // one per timed round
};

double TimeRun(const Graph& g, const Cell& cell) {
  auto partitioner = CreatePartitioner(cell.algo);
  PartitionConfig cfg;
  cfg.k = cell.k;
  Timer timer;
  Partitioning p = partitioner->Run(g, cfg);
  return static_cast<double>(timer.ElapsedNanos());
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

}  // namespace

int main() {
  const uint32_t scale = bench::ScaleFromEnv();
  bench::PrintBanner("Partitioner scoring speed",
                     "ns/edge of the production ScoreCore kernels", scale);
  std::cout << "score kernels: "
            << (score::avx2::Available() ? "avx2" : "portable") << "\n";
  const std::map<std::string, Graph> graphs = {
      {"twitter", Graph(MakeDataset("twitter", scale))},
      {"usaroad", Graph(MakeDataset("usaroad", scale))}};

  std::vector<Cell> cells;
  for (const char* algo :
       {"LDG", "FNL", "HDRF", "PGG", "HG", "ESG", "RLDG", "RFNL"}) {
    for (PartitionId k : {8u, 32u, 128u}) {
      cells.push_back({"twitter", algo, k, {}});
    }
  }
  for (PartitionId k : {8u, 32u, 128u}) {
    cells.push_back({"usaroad", "HDRF", k, {}});
  }

  {
    // Throwaway registry: timing repetitions must not touch the global
    // (golden-gated) counters.
    MetricsRegistry scratch;
    ScopedMetricsRegistry scoped(&scratch);
    for (int rep = 0; rep < kReps; ++rep) {
      for (Cell& cell : cells) {
        cell.nanos.push_back(TimeRun(graphs.at(cell.dataset), cell));
      }
    }
  }

  TablePrinter table({"Graph", "Algo", "k", "ns/edge", "state_KB"});
  double hdrf_k8 = 0, hdrf_k128 = 0;
  for (const Cell& cell : cells) {
    const Graph& g = graphs.at(cell.dataset);
    // Canonical run: decision counters land in the global registry.
    PartitionConfig cfg;
    cfg.k = cell.k;
    const Partitioning p = CreatePartitioner(cell.algo)->Run(g, cfg);
    const double ns_per_edge =
        Median(cell.nanos) / static_cast<double>(g.num_edges());
    const bool twitter = cell.dataset == "twitter";
    if (twitter && cell.algo == "HDRF" && cell.k == 8) hdrf_k8 = ns_per_edge;
    if (twitter && cell.algo == "HDRF" && cell.k == 128) {
      hdrf_k128 = ns_per_edge;
    }
    // Twitter cells keep their historical names.
    const std::string prefix = "partitioner_speed." +
                               (twitter ? "" : cell.dataset + ".") +
                               cell.algo + ".k" + std::to_string(cell.k);
    MetricsRegistry::Global()
        .GetGauge(prefix + ".fingerprint")
        ->Set(static_cast<double>(Fingerprint32(p)));
    MetricsRegistry::Global()
        .GetGauge(prefix + ".ns_per_edge.wall", MetricOptions::WallClock())
        ->Set(ns_per_edge);
    table.AddRow({cell.dataset, cell.algo, std::to_string(cell.k),
                  FormatDouble(ns_per_edge, 2),
                  FormatDouble(static_cast<double>(p.state_bytes) / 1024.0,
                               1)});
  }
  table.Print(std::cout);
  // How far HDRF's cost still grows with k on twitter. Wall-clock only,
  // so the deterministic export is unchanged.
  const double hdrf_ratio = hdrf_k8 > 0 ? hdrf_k128 / hdrf_k8 : 0;
  MetricsRegistry::Global()
      .GetGauge("partitioner_speed.HDRF.k128_over_k8.wall",
                MetricOptions::WallClock())
      ->Set(hdrf_ratio);
  std::cout << "\nHDRF ns/edge on twitter, k=128 over k=8: "
            << FormatDouble(hdrf_ratio, 2) << "x\n";
  std::cout
      << "\nns/edge is the median of " << kReps
      << " rounds over all cells.\n"
         "\nExpected shape: ns/edge grows with k for every code, steepest\n"
         "for HDRF on twitter, whose sweep also reads two membership rows\n"
         "per edge. On usaroad the replica union of most edges holds one or\n"
         "two partitions and HDRF scores only those (k >= 16), so the pick\n"
         "grows little with k. state_KB grows with k only for the codes that\n"
         "keep per-vertex partition sets (HDRF, PGG, ESG); the vertex-greedy\n"
         "codes hold O(n + k) and stay flat.\n";
  bench::WriteBenchJson("partitioner_speed", scale);
  return 0;
}
