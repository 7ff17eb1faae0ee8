// Engine speed: wall-clock cost of the analytics engine's superstep kernel
// for PageRank (all-active) and SSSP (frontier-driven), and of building the
// DistributedGraph it runs on, on the R-MAT "twitter" graph across cluster
// sizes.
//
// ns/edge/superstep normalizes wall time by iterations × |E| — for the
// frontier-driven SSSP most supersteps touch few edges, so treat its
// number as a normalized rate, not a per-edge cost.
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "engine/distributed_graph.h"
#include "engine/engine.h"
#include "engine/programs.h"
#include "partition/partitioner.h"

namespace {

// Fixed repetition count keeps every engine.* counter in the deterministic
// JSON section a pure function of the inputs (adaptive rep counts would
// leak wall time into it).
constexpr int kReps = 3;

struct KernelTiming {
  double ns_per_edge_step = 0;
  uint32_t iterations = 0;
};

template <typename RunFn>
KernelTiming TimeKernel(const sgp::Graph& g, RunFn&& run) {
  double best_nanos = 0;
  sgp::EngineStats stats;
  for (int rep = 0; rep < kReps; ++rep) {
    sgp::Timer timer;
    stats = run();
    const double nanos = static_cast<double>(timer.ElapsedNanos());
    if (rep == 0 || nanos < best_nanos) best_nanos = nanos;
  }
  KernelTiming t;
  t.iterations = stats.iterations;
  const double edge_steps = static_cast<double>(stats.iterations) *
                            static_cast<double>(g.num_edges());
  t.ns_per_edge_step = edge_steps == 0 ? 0 : best_nanos / edge_steps;
  return t;
}

// Best-of-kReps wall time of one DistributedGraph build, in ms.
double TimeBuildMs(const sgp::Graph& g, const sgp::Partitioning& p) {
  double best_nanos = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    sgp::Timer timer;
    const sgp::DistributedGraph dgraph(g, p);
    const double nanos = static_cast<double>(timer.ElapsedNanos());
    if (rep == 0 || nanos < best_nanos) best_nanos = nanos;
  }
  return best_nanos / 1e6;
}

void RecordWallGauge(const std::string& name, double value) {
  sgp::MetricsRegistry::Global()
      .GetGauge(name, sgp::MetricOptions::WallClock())
      ->Set(value);
}

}  // namespace

int main() {
  using namespace sgp;
  const uint32_t scale = bench::ScaleFromEnv();
  bench::PrintBanner(
      "Engine kernel speed",
      "Wall-clock ns/edge/superstep of the GAS superstep kernel, and the "
      "DistributedGraph build time",
      scale);
  Graph g = MakeDataset("twitter", scale);
  VertexId source = 0;
  while (g.Degree(source) == 0) ++source;

  TablePrinter table({"Program", "k", "ns/edge", "supersteps"});
  TablePrinter build_table({"k", "build ms", "replicas"});
  for (PartitionId k : {8u, 32u, 128u}) {
    PartitionConfig cfg;
    cfg.k = k;
    Partitioning p = CreatePartitioner("HDRF")->Run(g, cfg);
    // The build is timed on its own and reported as a wall-clock gauge
    // only, so the deterministic section stays the kernel's counters.
    const double build_ms = TimeBuildMs(g, p);
    AnalyticsEngine engine(g, p);
    RecordWallGauge("engine_speed.build.k" + std::to_string(k) + ".ms.wall",
                    build_ms);
    build_table.AddRow(
        {std::to_string(k), FormatDouble(build_ms, 2),
         std::to_string(engine.distributed_graph().num_replicas())});

    for (int which : {0, 1}) {
      const char* prog_name = which == 0 ? "PageRank" : "SSSP";
      const KernelTiming t = TimeKernel(g, [&] {
        return which == 0 ? engine.Run(PageRankProgram(20))
                          : engine.Run(SsspProgram(source));
      });
      RecordWallGauge(std::string("engine_speed.") + prog_name + ".k" +
                          std::to_string(k) + ".specialized.ns_per_edge.wall",
                      t.ns_per_edge_step);
      table.AddRow({prog_name, std::to_string(k),
                    FormatDouble(t.ns_per_edge_step, 2),
                    std::to_string(t.iterations)});
    }
  }
  table.Print(std::cout);
  std::cout << "\nDistributedGraph build (HDRF placement):\n";
  build_table.Print(std::cout);
  std::cout
      << "\nExpected shape: all-active PageRank costs a few ns per edge per\n"
         "superstep (inlined gather, replica cost tables, superstep-invariant\n"
         "accounting); SSSP's rate is higher because most of its supersteps\n"
         "touch a small frontier. The build grows slowly with k: one pass\n"
         "over each vertex's incident edges, plus its replicas.\n";
  sgp::bench::WriteBenchJson("engine_speed", scale);
  return 0;
}
