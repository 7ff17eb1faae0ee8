// Randomized robustness sweep: every algorithm must produce a valid,
// sane partitioning on arbitrary graphs — random sizes, random densities,
// random structure (ER / BA / small-world / road), random k — not just on
// the curated datasets; and on degenerate graphs at k up to past n.
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "common/random.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "partition/metrics.h"
#include "partition/partitioner.h"

namespace sgp {
namespace {

Graph RandomGraph(Rng& rng) {
  switch (rng.UniformInt(4)) {
    case 0: {
      VertexId n = 4 + static_cast<VertexId>(rng.UniformInt(400));
      uint64_t max_edges =
          static_cast<uint64_t>(n) * (n - 1) / 2;
      EdgeId m = 1 + rng.UniformInt(std::min<uint64_t>(max_edges, 4 * n));
      return ErdosRenyi(n, m, rng.Next());
    }
    case 1: {
      uint32_t deg = 1 + static_cast<uint32_t>(rng.UniformInt(4));
      VertexId n = deg + 2 + static_cast<VertexId>(rng.UniformInt(300));
      return BarabasiAlbert(n, deg, rng.Next());
    }
    case 2: {
      uint32_t side = 3 + static_cast<uint32_t>(rng.UniformInt(15));
      return RoadNetwork(side, side, 2.5, rng.Next());
    }
    default: {
      uint32_t nbr = 1 + static_cast<uint32_t>(rng.UniformInt(3));
      VertexId n = 2 * nbr + 2 + static_cast<VertexId>(rng.UniformInt(300));
      return WattsStrogatz(n, nbr, 0.2, rng.Next());
    }
  }
}

constexpr PartitionId kWideKs[] = {63, 64, 65, 127, 128, 129, 257};

// Degenerate inputs: one edge; a 199-leaf star; an edge list of nothing
// but duplicates (both directions, repeated), which the builder collapses
// to a triangle; a 10-vertex path followed by 490 isolated vertices.
std::vector<std::pair<std::string, Graph>> DegenerateGraphs() {
  std::vector<std::pair<std::string, Graph>> out;
  {
    GraphBuilder b(2, /*directed=*/false);
    b.AddEdge(0, 1);
    out.emplace_back("single-edge", std::move(b).Finalize());
  }
  {
    GraphBuilder b(200, /*directed=*/false);
    for (VertexId leaf = 1; leaf < 200; ++leaf) b.AddEdge(0, leaf);
    out.emplace_back("star-199", std::move(b).Finalize());
  }
  {
    GraphBuilder b(3, /*directed=*/false);
    for (int rep = 0; rep < 20; ++rep) {
      b.AddEdge(0, 1);
      b.AddEdge(1, 0);
      b.AddEdge(1, 2);
      b.AddEdge(2, 1);
      b.AddEdge(2, 0);
      b.AddEdge(0, 2);
    }
    out.emplace_back("duplicates-only", std::move(b).Finalize());
  }
  {
    GraphBuilder b(500, /*directed=*/false);
    for (VertexId v = 0; v + 1 < 10; ++v) b.AddEdge(v, v + 1);
    out.emplace_back("path-10-isolated-490", std::move(b).Finalize());
  }
  return out;
}

std::vector<std::string> RegisteredCodes() {
  std::vector<std::string> codes;
  for (const PartitionerInfo& info : PartitionerTable()) {
    codes.push_back(info.name);
  }
  return codes;
}

class PartitionerFuzzTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PartitionerFuzzTest, SurvivesRandomGraphsAndConfigs) {
  auto partitioner = CreatePartitioner(GetParam());
  Rng rng(0xF0 + std::hash<std::string>{}(GetParam()));
  for (int trial = 0; trial < 12; ++trial) {
    Graph g = RandomGraph(rng);
    PartitionConfig cfg;
    // Every other trial takes a k around the one-, two- and multi-word
    // replica-row widths (the 64-byte row stride starts past 256).
    cfg.k = trial % 2 == 1
                ? kWideKs[rng.UniformInt(std::size(kWideKs))]
                : 1 + static_cast<PartitionId>(rng.UniformInt(40));
    cfg.seed = rng.Next();
    cfg.order = static_cast<StreamOrder>(rng.UniformInt(4));
    Partitioning p = partitioner->Run(g, cfg);
    ValidatePartitioning(g, p);
    PartitionMetrics m = ComputeMetrics(g, p);
    ASSERT_GE(m.replication_factor, 1.0)
        << GetParam() << " trial " << trial;
    ASSERT_LE(m.replication_factor, static_cast<double>(cfg.k))
        << GetParam() << " trial " << trial;
    ASSERT_LE(m.edge_cut_ratio, 1.0) << GetParam() << " trial " << trial;
  }
}

TEST_P(PartitionerFuzzTest, DegenerateGraphs) {
  auto partitioner = CreatePartitioner(GetParam());
  for (const auto& [name, g] : DegenerateGraphs()) {
    for (PartitionId k : {1u, 2u, 3u, 64u, 65u, 257u}) {
      PartitionConfig cfg;
      cfg.k = k;
      Partitioning p = partitioner->Run(g, cfg);
      SCOPED_TRACE(GetParam() + " " + name + " k=" + std::to_string(k));
      ValidatePartitioning(g, p);
      ASSERT_EQ(p.k, k);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, PartitionerFuzzTest,
                         ::testing::ValuesIn(RegisteredCodes()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace sgp
