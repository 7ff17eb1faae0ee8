// Dynamic re-partitioning (Hermes/Leopard family) and the edge-stream
// edge-cut greedy (CST/IOGP family).
#include <gtest/gtest.h>
#include "graph/datasets.h"
#include "partition/dynamic/dynamic_partitioner.h"
#include "partition/metrics.h"
#include "partition/partitioner.h"
#include "tests/test_util.h"

namespace sgp {
namespace {

TEST(DynamicPartitionerTest, PlacesEveryFedVertex) {
  DynamicOptions opts;
  opts.k = 4;
  DynamicPartitioner dp(opts);
  Graph g = MakeDataset("ldbc", 9);
  for (const Edge& e : g.edges()) dp.AddEdge(e.src, e.dst);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.Degree(v) > 0) {
      ASSERT_LT(dp.PartitionOf(v), opts.k);
    }
  }
  uint64_t total = 0;
  for (uint64_t s : dp.partition_sizes()) total += s;
  EXPECT_GT(total, 0u);
}

TEST(DynamicPartitionerTest, SnapshotIsValidPartitioning) {
  DynamicOptions opts;
  opts.k = 8;
  DynamicPartitioner dp(opts);
  Graph g = MakeDataset("ldbc", 9);
  for (const Edge& e : g.edges()) dp.AddEdge(e.src, e.dst);
  Partitioning p = dp.Snapshot(g);
  ValidatePartitioning(g, p);
}

TEST(DynamicPartitionerTest, BeatsHashOnCommunityGraph) {
  Graph g = MakeDataset("ldbc", 11);
  DynamicOptions opts;
  opts.k = 8;
  DynamicPartitioner dp(opts);
  for (const Edge& e : g.edges()) dp.AddEdge(e.src, e.dst);
  PartitionMetrics dynamic = ComputeMetrics(g, dp.Snapshot(g));
  PartitionConfig cfg;
  cfg.k = 8;
  PartitionMetrics hash =
      ComputeMetrics(g, CreatePartitioner("ECR")->Run(g, cfg));
  EXPECT_LT(dynamic.edge_cut_ratio, hash.edge_cut_ratio * 0.9);
}

TEST(DynamicPartitionerTest, MaintainsBalanceWhileGrowing) {
  Graph g = MakeDataset("twitter", 10);
  DynamicOptions opts;
  opts.k = 8;
  opts.balance_slack = 1.2;
  DynamicPartitioner dp(opts);
  for (const Edge& e : g.edges()) dp.AddEdge(e.src, e.dst);
  PartitionMetrics m = ComputeMetrics(g, dp.Snapshot(g));
  EXPECT_LE(m.vertex_imbalance, 1.35);
}

TEST(DynamicPartitionerTest, BootstrapPreservesAssignment) {
  Graph g = MakeDataset("usaroad", 9);
  PartitionConfig cfg;
  cfg.k = 4;
  Partitioning initial = CreatePartitioner("LDG")->Run(g, cfg);
  DynamicOptions opts;
  opts.k = 4;
  DynamicPartitioner dp(opts);
  dp.Bootstrap(g, initial);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(dp.PartitionOf(v), initial.vertex_to_partition[v]);
  }
}

TEST(DynamicPartitionerTest, MigrationsRepairBadBootstrap) {
  // Bootstrap two cliques on the wrong sides, then feed the bridge-free
  // remaining edges: migrations must reduce the cut.
  GraphBuilder b(16, /*directed=*/false);
  std::vector<Edge> first_half;
  std::vector<Edge> second_half;
  for (VertexId u = 0; u < 8; ++u) {
    for (VertexId v = u + 1; v < 8; ++v) {
      ((u + v) % 2 == 0 ? first_half : second_half).push_back({u, v});
    }
  }
  for (VertexId u = 8; u < 16; ++u) {
    for (VertexId v = u + 1; v < 16; ++v) {
      ((u + v) % 2 == 0 ? first_half : second_half).push_back({u, v});
    }
  }
  for (const Edge& e : first_half) b.AddEdge(e.src, e.dst);
  Graph half = std::move(b).Finalize();
  // Alternating (bad) bootstrap assignment.
  std::vector<PartitionId> bad(16);
  for (VertexId v = 0; v < 16; ++v) bad[v] = v % 2;
  Partitioning initial = testing::MakeEdgeCutPartitioning(half, 2, bad);

  DynamicOptions opts;
  opts.k = 2;
  opts.migration_gain = 1.0;  // eager migration
  opts.balance_slack = 1.5;   // room to move
  DynamicPartitioner dp(opts);
  dp.Bootstrap(half, initial);
  for (const Edge& e : second_half) dp.AddEdge(e.src, e.dst);
  EXPECT_GT(dp.total_migrations(), 0u);
}

TEST(DynamicPartitionerTest, GrowsVertexSpaceOnDemand) {
  DynamicOptions opts;
  opts.k = 2;
  DynamicPartitioner dp(opts);
  dp.AddEdge(0, 1);
  dp.AddEdge(1000, 1001);
  EXPECT_EQ(dp.num_vertices(), 1002u);
  EXPECT_LT(dp.PartitionOf(1000), 2u);
  EXPECT_EQ(dp.PartitionOf(500), kInvalidPartition);
}

TEST(EdgeStreamGreedyTest, ValidAndBalanced) {
  Graph g = MakeDataset("ldbc", 10);
  PartitionConfig cfg;
  cfg.k = 8;
  Partitioning p = CreatePartitioner("ESG")->Run(g, cfg);
  ValidatePartitioning(g, p);
  PartitionMetrics m = ComputeMetrics(g, p);
  EXPECT_LE(m.vertex_imbalance, 1.25);
}

TEST(EdgeStreamGreedyTest, BetterThanHashWorseThanVertexStream) {
  // The Section 4.1.2 claim: edge-stream edge-cut beats hashing but
  // cannot reach vertex-stream (LDG) quality because adjacency is never
  // complete at decision time.
  Graph g = MakeDataset("ldbc", 11);
  PartitionConfig cfg;
  cfg.k = 8;
  double esg = ComputeMetrics(g, CreatePartitioner("ESG")->Run(g, cfg))
                   .edge_cut_ratio;
  double ecr = ComputeMetrics(g, CreatePartitioner("ECR")->Run(g, cfg))
                   .edge_cut_ratio;
  double ldg = ComputeMetrics(g, CreatePartitioner("LDG")->Run(g, cfg))
                   .edge_cut_ratio;
  EXPECT_LT(esg, ecr);
  EXPECT_GT(esg, ldg);
}

}  // namespace
}  // namespace sgp
