#include "engine/engine.h"

#include <cmath>
#include <string>
#include <tuple>

#include <gtest/gtest.h>
#include "engine/programs.h"
#include "graph/datasets.h"
#include "partition/partitioner.h"
#include "tests/engine_reference.h"
#include "tests/test_util.h"

namespace sgp {
namespace {

// --- Correctness: results must not depend on the partitioning ---

using CorrectnessParam = std::tuple<std::string, std::string>;

class EngineCorrectnessTest
    : public ::testing::TestWithParam<CorrectnessParam> {};

TEST_P(EngineCorrectnessTest, MatchesSingleMachineReference) {
  const auto& [algo, dataset] = GetParam();
  Graph g = MakeDataset(dataset, 9);
  auto partitioner = CreatePartitioner(algo);
  PartitionConfig cfg;
  cfg.k = 8;
  Partitioning p = partitioner->Run(g, cfg);
  AnalyticsEngine engine(g, p);

  // PageRank.
  EngineStats pr = engine.Run(PageRankProgram(10));
  auto pr_ref = ReferencePageRank(g, 10);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_NEAR(pr.values[v], pr_ref[v], 1e-9) << "PageRank v=" << v;
  }

  // WCC.
  EngineStats wcc = engine.Run(WccProgram());
  auto wcc_ref = ReferenceWcc(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(wcc.values[v], wcc_ref[v]) << "WCC v=" << v;
  }

  // SSSP from a fixed source with at least one edge.
  VertexId source = 0;
  while (g.Degree(source) == 0) ++source;
  EngineStats sssp = engine.Run(SsspProgram(source));
  auto sssp_ref = ReferenceSssp(g, source);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(sssp.values[v], sssp_ref[v]) << "SSSP v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AcrossPartitioners, EngineCorrectnessTest,
    ::testing::Combine(::testing::Values("ECR", "LDG", "VCR", "HDRF", "HCR",
                                         "HG", "MTS"),
                       ::testing::Values("twitter", "usaroad")),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

// --- Communication accounting (Appendix B) ---

TEST(EngineCommunicationTest, EdgeCutPageRankNeedsNoScatterSync) {
  Graph g = testing::MakeFigure10Graph();
  Partitioning p =
      testing::MakeEdgeCutPartitioning(g, 3, {0, 1, 2, 0, 1, 2});
  AnalyticsEngine engine(g, p);
  EngineStats stats = engine.Run(PageRankProgram(5));
  EXPECT_EQ(stats.sync_messages, 0u);
  EXPECT_GT(stats.gather_messages, 0u);
}

TEST(EngineCommunicationTest, EdgeCutPageRankGatherMatchesFormula) {
  // With out-edges grouped by source, each vertex receives one gather
  // message per mirror per iteration: total = iterations · n · (RF − 1).
  Graph g = MakeDataset("twitter", 8);
  auto partitioner = CreatePartitioner("LDG");
  PartitionConfig cfg;
  cfg.k = 4;
  Partitioning p = partitioner->Run(g, cfg);
  AnalyticsEngine engine(g, p);
  const uint32_t iters = 7;
  EngineStats stats = engine.Run(PageRankProgram(iters));
  const double rf = engine.distributed_graph().replication_factor();
  const double expected =
      static_cast<double>(iters) *
      (rf - 1.0) * static_cast<double>(g.num_vertices());
  EXPECT_NEAR(static_cast<double>(stats.gather_messages), expected, 1e-6);
}

TEST(EngineCommunicationTest, VertexCutPageRankSyncsBothWays) {
  // A random vertex-cut mixes in- and out-edges on mirrors: both message
  // kinds appear, and the total exceeds an equivalent edge-cut's.
  Graph g = MakeDataset("twitter", 8);
  PartitionConfig cfg;
  cfg.k = 4;
  Partitioning p = CreatePartitioner("VCR")->Run(g, cfg);
  AnalyticsEngine engine(g, p);
  EngineStats stats = engine.Run(PageRankProgram(5));
  EXPECT_GT(stats.sync_messages, 0u);
  EXPECT_GT(stats.gather_messages, 0u);
}

TEST(EngineCommunicationTest, MessagesScaleWithReplicationFactor) {
  // Figure 1: network I/O is a linear function of the replication factor.
  Graph g = MakeDataset("twitter", 9);
  PartitionConfig cfg;
  cfg.k = 8;
  Partitioning good = CreatePartitioner("HDRF")->Run(g, cfg);
  Partitioning bad = CreatePartitioner("VCR")->Run(g, cfg);
  AnalyticsEngine engine_good(g, good);
  AnalyticsEngine engine_bad(g, bad);
  double rf_good = engine_good.distributed_graph().replication_factor();
  double rf_bad = engine_bad.distributed_graph().replication_factor();
  ASSERT_LT(rf_good, rf_bad);
  EngineStats s_good = engine_good.Run(PageRankProgram(5));
  EngineStats s_bad = engine_bad.Run(PageRankProgram(5));
  EXPECT_LT(s_good.total_network_bytes, s_bad.total_network_bytes);
}

TEST(EngineCommunicationTest, SinglePartitionHasNoNetworkTraffic) {
  Graph g = MakeDataset("ldbc", 8);
  PartitionConfig cfg;
  cfg.k = 1;
  Partitioning p = CreatePartitioner("ECR")->Run(g, cfg);
  AnalyticsEngine engine(g, p);
  EngineStats stats = engine.Run(PageRankProgram(5));
  EXPECT_EQ(stats.total_network_bytes, 0u);
  EXPECT_EQ(stats.gather_messages, 0u);
  EXPECT_EQ(stats.sync_messages, 0u);
}

// --- Workload dynamics ---

TEST(EngineWorkloadTest, PageRankRunsExactlyMaxIterations) {
  Graph g = MakeDataset("usaroad", 8);
  PartitionConfig cfg;
  cfg.k = 4;
  Partitioning p = CreatePartitioner("ECR")->Run(g, cfg);
  AnalyticsEngine engine(g, p);
  EXPECT_EQ(engine.Run(PageRankProgram(12)).iterations, 12u);
}

TEST(EngineWorkloadTest, WccIterationsTrackDiameterNotCap) {
  Graph g = testing::MakePath(40);
  PartitionConfig cfg;
  cfg.k = 4;
  Partitioning p = CreatePartitioner("ECR")->Run(g, cfg);
  AnalyticsEngine engine(g, p);
  EngineStats stats = engine.Run(WccProgram());
  EXPECT_GE(stats.iterations, 39u);  // labels flow along the path
  EXPECT_LE(stats.iterations, 41u);
}

TEST(EngineWorkloadTest, SsspFrontierGrowsAndShrinks) {
  Graph g = MakeDataset("usaroad", 10);
  PartitionConfig cfg;
  cfg.k = 4;
  Partitioning p = CreatePartitioner("LDG")->Run(g, cfg);
  AnalyticsEngine engine(g, p);
  EngineStats stats = engine.Run(SsspProgram(0));
  // Long-diameter graph: many iterations, far fewer messages per
  // iteration than PageRank.
  EXPECT_GT(stats.iterations, 20u);
}

TEST(EngineWorkloadTest, PageRankCommunicatesMostPerIteration) {
  // PageRank is all-active: per-iteration traffic exceeds WCC's average
  // (Section 6.2.1).
  Graph g = MakeDataset("twitter", 9);
  PartitionConfig cfg;
  cfg.k = 8;
  Partitioning p = CreatePartitioner("HDRF")->Run(g, cfg);
  AnalyticsEngine engine(g, p);
  EngineStats pr = engine.Run(PageRankProgram(10));
  EngineStats wcc = engine.Run(WccProgram());
  double pr_per_iter = static_cast<double>(pr.total_network_bytes) /
                       pr.iterations;
  double wcc_per_iter = static_cast<double>(wcc.total_network_bytes) /
                        wcc.iterations;
  EXPECT_GT(pr_per_iter, wcc_per_iter);
}

TEST(EngineCostModelTest, SimulatedTimeIncreasesWithWork) {
  Graph g = MakeDataset("ldbc", 9);
  PartitionConfig cfg;
  cfg.k = 8;
  Partitioning p = CreatePartitioner("FNL")->Run(g, cfg);
  AnalyticsEngine engine(g, p);
  double t5 = engine.Run(PageRankProgram(5)).simulated_seconds;
  double t10 = engine.Run(PageRankProgram(10)).simulated_seconds;
  EXPECT_GT(t10, t5);
  EXPECT_NEAR(t10, 2 * t5, 0.2 * t10);
}

TEST(EngineCostModelTest, ComputeLoadDistributionCoversAllWorkers) {
  Graph g = MakeDataset("twitter", 9);
  PartitionConfig cfg;
  cfg.k = 8;
  Partitioning p = CreatePartitioner("HDRF")->Run(g, cfg);
  AnalyticsEngine engine(g, p);
  EngineStats stats = engine.Run(PageRankProgram(5));
  ASSERT_EQ(stats.compute_seconds_per_worker.size(), 8u);
  for (double s : stats.compute_seconds_per_worker) EXPECT_GT(s, 0.0);
}

}  // namespace
}  // namespace sgp
