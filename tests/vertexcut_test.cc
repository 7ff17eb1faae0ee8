#include <cmath>

#include <gtest/gtest.h>
#include "graph/datasets.h"
#include "graph/generators.h"
#include "partition/metrics.h"
#include "partition/partitioner.h"
#include "stream/source.h"
#include "stream/stream.h"
#include "tests/test_util.h"

namespace sgp {
namespace {

Partitioning RunAlgo(const Graph& g, const std::string& name, PartitionId k,
                     StreamOrder order = StreamOrder::kRandom) {
  auto partitioner = CreatePartitioner(name);
  PartitionConfig cfg;
  cfg.k = k;
  cfg.order = order;
  Partitioning p = partitioner->Run(g, cfg);
  ValidatePartitioning(g, p);
  return p;
}

TEST(VcrTest, NearPerfectEdgeBalance) {
  Graph g = MakeDataset("twitter", 10);
  PartitionMetrics m = ComputeMetrics(g, RunAlgo(g, "VCR", 8));
  EXPECT_LE(m.edge_imbalance, 1.05);
}

TEST(DbhTest, LowerReplicationThanHashOnSkewedGraph) {
  Graph g = MakeDataset("twitter", 11);
  PartitionMetrics hash = ComputeMetrics(g, RunAlgo(g, "VCR", 16));
  PartitionMetrics dbh = ComputeMetrics(g, RunAlgo(g, "DBH", 16));
  EXPECT_LT(dbh.replication_factor, hash.replication_factor);
}

TEST(DbhTest, LowDegreeEndpointDeterminesPlacement) {
  // Star: center has degree 5, leaves degree 1 → each edge hashed by its
  // leaf, so each leaf has exactly one replica.
  Graph g = testing::MakeStar(6);
  Partitioning p = RunAlgo(g, "DBH", 4);
  ReplicaSets r = ComputeReplicaSets(g, p);
  for (VertexId leaf = 1; leaf < 6; ++leaf) {
    EXPECT_EQ(r.Of(leaf).size(), 1u);
  }
}

TEST(GridTest, ReplicationBoundedByConstrainedSets) {
  // For k = r·c, each vertex's replicas live in one row plus one column:
  // |A(u)| ≤ r + c − 1 (2√k − 1 for square grids).
  Graph g = MakeDataset("twitter", 10);
  for (PartitionId k : {4u, 16u, 64u}) {
    Partitioning p = RunAlgo(g, "GRID", k);
    ReplicaSets r = ComputeReplicaSets(g, p);
    const auto bound =
        static_cast<size_t>(2 * std::sqrt(static_cast<double>(k)) - 1 + 1e-9);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_LE(r.Of(v).size(), bound) << "k=" << k << " v=" << v;
    }
  }
}

TEST(GridTest, HandlesNonSquareK) {
  Graph g = MakeDataset("ldbc", 9);
  for (PartitionId k : {2u, 6u, 12u}) {
    Partitioning p = RunAlgo(g, "GRID", k);
    PartitionMetrics m = ComputeMetrics(g, p);
    EXPECT_GE(m.replication_factor, 1.0);
  }
}

TEST(HdrfTest, LowestReplicationOnPowerLawGraph) {
  // Section 6.2.1: HDRF's greedy heuristic is the most effective
  // vertex-cut method on power-law graphs.
  Graph g = MakeDataset("uk2007", 10);
  double hdrf =
      ComputeMetrics(g, RunAlgo(g, "HDRF", 16)).replication_factor;
  double vcr = ComputeMetrics(g, RunAlgo(g, "VCR", 16)).replication_factor;
  double grid =
      ComputeMetrics(g, RunAlgo(g, "GRID", 16)).replication_factor;
  EXPECT_LT(hdrf, vcr);
  EXPECT_LT(hdrf, grid);
}

TEST(HdrfTest, BalancedUnderBfsOrder) {
  // The λ term keeps HDRF balanced even in BFS order (Section 4.2.2).
  Graph g = MakeDataset("ldbc", 10);
  PartitionMetrics m =
      ComputeMetrics(g, RunAlgo(g, "HDRF", 8, StreamOrder::kBfs));
  EXPECT_LE(m.edge_imbalance, 1.25);
}

TEST(PggTest, CollapsesUnderBfsOrderUnlikeHdrf) {
  // Plain PowerGraph greedy is sensitive to BFS stream order
  // (Section 4.2.2): its balance degrades well beyond HDRF's.
  Graph g = MakeDataset("ldbc", 10);
  PartitionMetrics pgg =
      ComputeMetrics(g, RunAlgo(g, "PGG", 8, StreamOrder::kBfs));
  PartitionMetrics hdrf =
      ComputeMetrics(g, RunAlgo(g, "HDRF", 8, StreamOrder::kBfs));
  EXPECT_GT(pgg.edge_imbalance, hdrf.edge_imbalance * 1.5);
}

TEST(PggTest, ReasonableOnRandomOrder) {
  Graph g = MakeDataset("twitter", 10);
  PartitionMetrics pgg = ComputeMetrics(g, RunAlgo(g, "PGG", 8));
  PartitionMetrics vcr = ComputeMetrics(g, RunAlgo(g, "VCR", 8));
  EXPECT_LT(pgg.replication_factor, vcr.replication_factor);
}

TEST(VertexCutTest, EveryEdgeAssignedExactlyOnce) {
  Graph g = MakeDataset("usaroad", 9);
  for (const char* algo : {"VCR", "DBH", "GRID", "HDRF", "PGG"}) {
    Partitioning p = RunAlgo(g, algo, 4);
    ASSERT_EQ(p.edge_to_partition.size(), g.num_edges()) << algo;
  }
}

TEST(VertexCutTest, ReplicaSetsMatchEdgeIncidence) {
  Graph g = MakeDataset("ldbc", 9);
  Partitioning p = RunAlgo(g, "HDRF", 8);
  ReplicaSets r = ComputeReplicaSets(g, p);
  // Every edge's partition must appear in both endpoints' replica sets.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edges()[e];
    PartitionId part = p.edge_to_partition[e];
    auto contains = [&](VertexId v) {
      for (PartitionId q : r.Of(v)) {
        if (q == part) return true;
      }
      return false;
    };
    ASSERT_TRUE(contains(edge.src));
    ASSERT_TRUE(contains(edge.dst));
  }
}

// VCR hashes each edge and DBH each edge's pivot, and the master rule
// counts replicas, so neither code's output depends on arrival order: Run
// streams the graph in natural order whatever config.order says. The
// stream body itself is checked too, by feeding it every order directly.
TEST(VertexCutTest, HashCodesIgnoreStreamOrder) {
  const StreamOrder orders[] = {StreamOrder::kNatural, StreamOrder::kRandom,
                                StreamOrder::kBfs, StreamOrder::kDfs};
  for (const char* dataset : {"ldbc", "twitter"}) {
    Graph g = MakeDataset(dataset, 10);
    for (const char* algo : {"VCR", "DBH"}) {
      auto partitioner = CreatePartitioner(algo);
      PartitionConfig cfg;
      cfg.k = 8;
      cfg.order = StreamOrder::kNatural;
      const Partitioning natural = partitioner->Run(g, cfg);
      InMemoryEdgeSource natural_source(g, StreamOrder::kNatural, cfg.seed);
      const StreamRunResult natural_stream =
          partitioner->RunOnSource(natural_source, cfg);
      ASSERT_TRUE(natural_stream.ok);
      for (StreamOrder order : orders) {
        SCOPED_TRACE(std::string(dataset) + " " + algo + " " +
                     std::string(StreamOrderName(order)));
        cfg.order = order;
        const Partitioning p = partitioner->Run(g, cfg);
        EXPECT_EQ(p.edge_to_partition, natural.edge_to_partition);
        EXPECT_EQ(p.vertex_to_partition, natural.vertex_to_partition);
        InMemoryEdgeSource source(g, order, cfg.seed);
        const StreamRunResult stream = partitioner->RunOnSource(source, cfg);
        ASSERT_TRUE(stream.ok);
        EXPECT_EQ(stream.partitioning.edge_to_partition,
                  natural_stream.partitioning.edge_to_partition);
        EXPECT_EQ(stream.partitioning.vertex_to_partition,
                  natural_stream.partitioning.vertex_to_partition);
      }
    }
  }
}

}  // namespace
}  // namespace sgp
