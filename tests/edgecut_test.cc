#include <gtest/gtest.h>
#include "graph/datasets.h"
#include "graph/generators.h"
#include "partition/edgecut/parallel_streaming.h"
#include "partition/metrics.h"
#include "partition/partitioner.h"
#include "tests/test_util.h"

namespace sgp {
namespace {

PartitionMetrics RunAlgo(const Graph& g, const std::string& name,
                         PartitionId k, uint64_t seed = 42) {
  auto partitioner = CreatePartitioner(name);
  PartitionConfig cfg;
  cfg.k = k;
  cfg.seed = seed;
  Partitioning p = partitioner->Run(g, cfg);
  ValidatePartitioning(g, p);
  return ComputeMetrics(g, p);
}

TEST(HashEdgeCutTest, PerfectlyDeterministicPerSeed) {
  Graph g = ErdosRenyi(500, 2000, 1);
  auto partitioner = CreatePartitioner("ECR");
  PartitionConfig a;
  a.k = 4;
  a.seed = 1;
  PartitionConfig b = a;
  b.seed = 2;
  EXPECT_EQ(partitioner->Run(g, a).vertex_to_partition,
            partitioner->Run(g, a).vertex_to_partition);
  EXPECT_NE(partitioner->Run(g, a).vertex_to_partition,
            partitioner->Run(g, b).vertex_to_partition);
}

TEST(LdgTest, GroupsCommunitiesTogether) {
  // Two cliques joined by a single bridge: LDG with k=2 should cut only
  // the bridge (or very near that).
  GraphBuilder b(12, /*directed=*/false);
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) b.AddEdge(u, v);
  }
  for (VertexId u = 6; u < 12; ++u) {
    for (VertexId v = u + 1; v < 12; ++v) b.AddEdge(u, v);
  }
  b.AddEdge(0, 6);
  Graph g = std::move(b).Finalize();
  PartitionMetrics m = RunAlgo(g, "LDG", 2);
  EXPECT_LE(m.edge_cut_ratio, 3.0 / 31.0);
  EXPECT_DOUBLE_EQ(m.vertex_imbalance, 1.0);
}

TEST(LdgTest, StrictBalanceOnCommunityGraph) {
  Graph g = MakeDataset("ldbc", 10);
  PartitionMetrics m = RunAlgo(g, "LDG", 8);
  // LDG's multiplicative penalty enforces the hard capacity β·n/k.
  EXPECT_LE(m.vertex_imbalance, 1.06);
}

TEST(LdgTest, BeatsHashOnCommunityGraph) {
  Graph g = MakeDataset("ldbc", 11);
  PartitionMetrics hash = RunAlgo(g, "ECR", 8);
  PartitionMetrics ldg = RunAlgo(g, "LDG", 8);
  EXPECT_LT(ldg.edge_cut_ratio, hash.edge_cut_ratio * 0.8);
}

TEST(FennelTest, BeatsHashOnCommunityGraph) {
  Graph g = MakeDataset("ldbc", 11);
  PartitionMetrics hash = RunAlgo(g, "ECR", 8);
  PartitionMetrics fnl = RunAlgo(g, "FNL", 8);
  EXPECT_LT(fnl.edge_cut_ratio, hash.edge_cut_ratio * 0.8);
}

TEST(FennelTest, RespectsHardCapacity) {
  Graph g = MakeDataset("twitter", 10);
  auto partitioner = CreatePartitioner("FNL");
  PartitionConfig cfg;
  cfg.k = 8;
  cfg.balance_slack = 1.1;
  Partitioning p = partitioner->Run(g, cfg);
  PartitionMetrics m = ComputeMetrics(g, p);
  EXPECT_LE(m.vertex_imbalance, 1.11);
}

TEST(FennelTest, AlphaOverrideChangesResult) {
  Graph g = MakeDataset("ldbc", 10);
  auto partitioner = CreatePartitioner("FNL");
  PartitionConfig a;
  a.k = 4;
  PartitionConfig b = a;
  b.fennel_alpha = 1e-9;  // essentially no load penalty
  Partitioning pa = partitioner->Run(g, a);
  Partitioning pb = partitioner->Run(g, b);
  EXPECT_NE(pa.vertex_to_partition, pb.vertex_to_partition);
}

TEST(RestreamingTest, ImprovesCutOverSinglePass) {
  Graph g = MakeDataset("ldbc", 11);
  PartitionMetrics single = RunAlgo(g, "LDG", 8);
  PartitionMetrics restreamed = RunAlgo(g, "RLDG", 8);
  EXPECT_LE(restreamed.edge_cut_ratio, single.edge_cut_ratio + 1e-9);
}

TEST(RestreamingTest, FennelVariantImprovesToo) {
  Graph g = MakeDataset("ldbc", 11);
  PartitionMetrics single = RunAlgo(g, "FNL", 8);
  PartitionMetrics restreamed = RunAlgo(g, "RFNL", 8);
  EXPECT_LE(restreamed.edge_cut_ratio, single.edge_cut_ratio + 0.01);
}

TEST(RestreamingTest, OnePassEqualsBaseAlgorithm) {
  Graph g = MakeDataset("usaroad", 10);
  auto base = CreatePartitioner("LDG");
  auto restream = CreatePartitioner("RLDG");
  PartitionConfig cfg;
  cfg.k = 4;
  cfg.restream_passes = 1;
  EXPECT_EQ(base->Run(g, cfg).vertex_to_partition,
            restream->Run(g, cfg).vertex_to_partition);
}

TEST(EdgeCutModelTest, DerivedEdgePlacementFollowsVertices) {
  Graph g = MakeDataset("usaroad", 8);
  auto partitioner = CreatePartitioner("LDG");
  PartitionConfig cfg;
  cfg.k = 4;
  Partitioning p = partitioner->Run(g, cfg);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(p.edge_to_partition[e],
              p.vertex_to_partition[g.edges()[e].src]);
  }
}

TEST(SynopsisTest, StreamingUsesFractionOfOfflineMemory) {
  // Section 4.1.1: LDG/FENNEL "only use a fraction of memory" compared to
  // METIS, and are roughly an order of magnitude faster.
  Graph g = MakeDataset("twitter", 12);
  PartitionConfig cfg;
  cfg.k = 32;
  Partitioning ldg = CreatePartitioner("LDG")->Run(g, cfg);
  Partitioning fnl = CreatePartitioner("FNL")->Run(g, cfg);
  Partitioning mts = CreatePartitioner("MTS")->Run(g, cfg);
  EXPECT_GT(ldg.state_bytes, 0u);
  EXPECT_LT(ldg.state_bytes * 5, mts.state_bytes);
  EXPECT_LT(fnl.state_bytes * 5, mts.state_bytes);
  EXPECT_LT(ldg.partitioning_seconds, mts.partitioning_seconds);
}

// The vertex-greedy codes keep k-sized state beyond the loads, weights
// and capacities: the LDG/FENNEL term row (2k doubles), the neighbour
// tally (k + 1 counts and k + 2 first-touch slots) and the scorer's
// k-double score scratch. Their state_bytes must grow by at least all of
// those bytes per added partition, plus one delta-load row per worker for
// the parallel drivers.
TEST(SynopsisTest, GreedyStateBytesCountKSizedScoringState) {
  Graph g = MakeDataset("twitter", 9);
  const PartitionId k_small = 8, k_large = 264;
  const uint64_t synopsis = 2 * sizeof(uint64_t) + sizeof(double);  // loads,
                                                 // weights, capacities
  const uint64_t scoring = 2 * sizeof(double) +    // term row
                           2 * sizeof(uint32_t) +  // tally
                           sizeof(double);         // score scratch
  const uint64_t added = k_large - k_small;
  for (const char* algo : {"LDG", "FNL", "RLDG", "RFNL"}) {
    uint64_t bytes[2];
    for (int i = 0; i < 2; ++i) {
      PartitionConfig cfg;
      cfg.k = i == 0 ? k_small : k_large;
      bytes[i] = CreatePartitioner(algo)->Run(g, cfg).state_bytes;
    }
    EXPECT_GE(bytes[1] - bytes[0], added * (synopsis + scoring)) << algo;
  }
  const uint32_t workers = 2;
  for (ParallelAlgo algo : {ParallelAlgo::kLdg, ParallelAlgo::kFennel}) {
    uint64_t bytes[2];
    for (int i = 0; i < 2; ++i) {
      PartitionConfig cfg;
      cfg.k = i == 0 ? k_small : k_large;
      ParallelStreamOptions options;
      options.num_streams = workers;
      bytes[i] =
          RunParallelStreaming(g, cfg, options, algo).partitioning.state_bytes;
    }
    EXPECT_GE(bytes[1] - bytes[0],
              added * (synopsis + workers * sizeof(uint64_t) + scoring))
        << ParallelAlgoName(algo);
  }
}

TEST(EdgeCutStreamOrderTest, QualityIsOrderSensitiveButValid) {
  Graph g = MakeDataset("ldbc", 10);
  auto partitioner = CreatePartitioner("LDG");
  for (StreamOrder order : {StreamOrder::kNatural, StreamOrder::kRandom,
                            StreamOrder::kBfs, StreamOrder::kDfs}) {
    PartitionConfig cfg;
    cfg.k = 8;
    cfg.order = order;
    Partitioning p = partitioner->Run(g, cfg);
    ValidatePartitioning(g, p);
    PartitionMetrics m = ComputeMetrics(g, p);
    EXPECT_LE(m.vertex_imbalance, 1.06)
        << "order=" << StreamOrderName(order);
  }
}

}  // namespace
}  // namespace sgp
