#include "partition/partitioning.h"

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "graph/datasets.h"
#include "tests/master_oracle.h"
#include "tests/test_util.h"

namespace sgp {
namespace {

using testing::MakeGraph;

TEST(DeriveEdgePlacementTest, EdgesFollowSource) {
  Graph g = MakeGraph(3, /*directed=*/true, {{0, 1}, {1, 2}, {2, 0}});
  Partitioning p = testing::MakeEdgeCutPartitioning(g, 3, {0, 1, 2});
  EXPECT_EQ(p.edge_to_partition, (std::vector<PartitionId>{0, 1, 2}));
}

TEST(DeriveMasterPlacementTest, MasterIsMostLoadedReplica) {
  // Vertex 0 has two edges on partition 1 and one on partition 0.
  Graph g = MakeGraph(4, /*directed=*/true, {{0, 1}, {0, 2}, {0, 3}});
  Partitioning p = testing::MakeVertexCutPartitioning(g, 2, {1, 1, 0});
  EXPECT_EQ(p.vertex_to_partition[0], 1u);
}

TEST(DeriveMasterPlacementTest, TieBreaksTowardLowerPartition) {
  Graph g = MakeGraph(3, /*directed=*/true, {{0, 1}, {0, 2}});
  Partitioning p = testing::MakeVertexCutPartitioning(g, 3, {2, 1});
  EXPECT_EQ(p.vertex_to_partition[0], 1u);
}

TEST(DeriveMasterPlacementTest, IsolatedVertexGetsHashedMaster) {
  Graph g = MakeGraph(3, /*directed=*/false, {{0, 1}});
  Partitioning p = testing::MakeVertexCutPartitioning(g, 4, {0});
  EXPECT_LT(p.vertex_to_partition[2], 4u);
}

// DeriveMasterPlacement against the vector-of-vectors oracle on random
// placements: directed twitter has reciprocal edge pairs (two edges
// between the same endpoints), the road copy has isolated vertices above
// every edge's ids. Half the placements draw from at most four
// partitions, so counts tie well above 1.
TEST(DeriveMasterPlacementTest, MatchesVectorOfVectorsOracle) {
  const Graph road = MakeDataset("usaroad", 10);
  GraphBuilder builder(road.num_vertices() + 37, /*directed=*/false);
  for (const Edge& e : road.edges()) builder.AddEdge(e.src, e.dst);
  const Graph graphs[] = {MakeDataset("twitter", 10),
                          std::move(builder).Finalize()};
  ASSERT_TRUE(graphs[0].directed());
  std::mt19937_64 rng(20);
  for (const Graph& g : graphs) {
    for (PartitionId k : {1u, 3u, 64u, 257u}) {
      for (PartitionId draw_from : {k, std::min<PartitionId>(k, 4)}) {
        std::vector<PartitionId> edge_map(g.num_edges());
        for (PartitionId& p : edge_map) p = rng() % draw_from;
        oracle::ReferenceMasterTracker reference;
        for (EdgeId e = 0; e < g.num_edges(); ++e) {
          reference.Note(g.edges()[e].src, edge_map[e]);
          reference.Note(g.edges()[e].dst, edge_map[e]);
        }
        const Partitioning p =
            testing::MakeVertexCutPartitioning(g, k, edge_map);
        EXPECT_EQ(p.vertex_to_partition, reference.Derive(g.num_vertices(), k))
            << "n=" << g.num_vertices() << " k=" << k
            << " draw_from=" << draw_from;
      }
    }
  }
}

TEST(ReplicaSetsTest, SpansPartitionsOfIncidentEdges) {
  // Triangle with each edge on its own partition: every vertex spans the
  // two partitions of its incident edges (plus its master among them).
  Graph g = MakeGraph(3, /*directed=*/false, {{0, 1}, {1, 2}, {2, 0}});
  Partitioning p = testing::MakeVertexCutPartitioning(g, 3, {0, 1, 2});
  ReplicaSets r = ComputeReplicaSets(g, p);
  EXPECT_EQ(r.Of(0).size(), 2u);  // edges on partitions 0 and 2
  EXPECT_EQ(r.Of(1).size(), 2u);  // 0 and 1
  EXPECT_EQ(r.Of(2).size(), 2u);  // 1 and 2
}

TEST(ReplicaSetsTest, EdgeCutReplicasMatchAppendixB) {
  // Path 0-1-2 as a directed chain, vertices on separate partitions.
  // Grouping out-edges by source means vertex 1 appears on partition 0
  // (as the target of 0→1) and on its master partition 1.
  Graph g = MakeGraph(3, /*directed=*/true, {{0, 1}, {1, 2}});
  Partitioning p = testing::MakeEdgeCutPartitioning(g, 3, {0, 1, 2});
  ReplicaSets r = ComputeReplicaSets(g, p);
  EXPECT_EQ(r.Of(0).size(), 1u);
  EXPECT_EQ(r.Of(1).size(), 2u);
  EXPECT_EQ(r.Of(2).size(), 2u);
}

TEST(ReplicaSetsTest, SetsAreSortedAndUnique) {
  Graph g = MakeGraph(4, /*directed=*/false,
                      {{0, 1}, {0, 2}, {0, 3}, {1, 2}});
  Partitioning p = testing::MakeVertexCutPartitioning(g, 2, {0, 1, 0, 1});
  ReplicaSets r = ComputeReplicaSets(g, p);
  for (VertexId v = 0; v < 4; ++v) {
    auto s = r.Of(v);
    for (size_t i = 1; i < s.size(); ++i) EXPECT_LT(s[i - 1], s[i]);
  }
}

TEST(CutModelNameTest, AllNamed) {
  EXPECT_EQ(CutModelName(CutModel::kEdgeCut), "edge-cut");
  EXPECT_EQ(CutModelName(CutModel::kVertexCut), "vertex-cut");
  EXPECT_EQ(CutModelName(CutModel::kHybrid), "hybrid-cut");
}

}  // namespace
}  // namespace sgp
