#include "stream/stream.h"

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>
#include "graph/generators.h"
#include "tests/test_util.h"

namespace sgp {
namespace {

bool IsPermutation(const std::vector<VertexId>& order, VertexId n) {
  if (order.size() != n) return false;
  std::vector<VertexId> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (VertexId i = 0; i < n; ++i) {
    if (sorted[i] != i) return false;
  }
  return true;
}

class VertexStreamOrderTest
    : public ::testing::TestWithParam<StreamOrder> {};

TEST_P(VertexStreamOrderTest, IsPermutationOfAllVertices) {
  Graph g = ErdosRenyi(200, 600, 3);
  auto order = MakeVertexStream(g, GetParam(), 42);
  EXPECT_TRUE(IsPermutation(order, g.num_vertices()));
}

TEST_P(VertexStreamOrderTest, DeterministicPerSeed) {
  Graph g = ErdosRenyi(100, 250, 4);
  EXPECT_EQ(MakeVertexStream(g, GetParam(), 5),
            MakeVertexStream(g, GetParam(), 5));
}

TEST_P(VertexStreamOrderTest, CoversDisconnectedComponents) {
  // Two disjoint triangles.
  Graph g = testing::MakeGraph(
      6, false, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  auto order = MakeVertexStream(g, GetParam(), 9);
  EXPECT_TRUE(IsPermutation(order, 6));
}

INSTANTIATE_TEST_SUITE_P(AllOrders, VertexStreamOrderTest,
                         ::testing::Values(StreamOrder::kNatural,
                                           StreamOrder::kRandom,
                                           StreamOrder::kBfs,
                                           StreamOrder::kDfs),
                         [](const auto& info) {
                           return std::string(StreamOrderName(info.param));
                         });

TEST(VertexStreamTest, NaturalOrderIsIdentity) {
  Graph g = ErdosRenyi(50, 100, 1);
  auto order = MakeVertexStream(g, StreamOrder::kNatural, 0);
  for (VertexId i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(VertexStreamTest, BfsVisitsPathInDistanceOrder) {
  // On a path graph, BFS positions must be monotone in distance from the
  // root wherever the root lands.
  Graph g = testing::MakePath(64);
  auto order = MakeVertexStream(g, StreamOrder::kBfs, 123);
  std::vector<uint32_t> pos(64);
  for (uint32_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  VertexId root = order[0];
  for (VertexId v = 0; v < 64; ++v) {
    uint32_t dist_v = v > root ? v - root : root - v;
    for (VertexId w = 0; w < 64; ++w) {
      uint32_t dist_w = w > root ? w - root : root - w;
      if (dist_v < dist_w) {
        EXPECT_LT(pos[v], pos[w]);
      }
    }
  }
}

TEST(EdgeStreamTest, RandomOrderIsEdgePermutation) {
  Graph g = ErdosRenyi(100, 400, 8);
  auto order = MakeEdgeStream(g, StreamOrder::kRandom, 7);
  std::vector<EdgeId> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (EdgeId i = 0; i < g.num_edges(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(EdgeStreamTest, NaturalOrderIsIdentity) {
  Graph g = ErdosRenyi(30, 60, 9);
  auto order = MakeEdgeStream(g, StreamOrder::kNatural, 0);
  for (EdgeId i = 0; i < g.num_edges(); ++i) EXPECT_EQ(order[i], i);
}

TEST(EdgeStreamTest, BfsOrderGroupsByTraversal) {
  // On a path, the BFS edge stream must start with an edge incident to
  // the BFS root.
  Graph g = testing::MakePath(32);
  auto vertex_order = MakeVertexStream(g, StreamOrder::kBfs, 31);
  auto edge_order = MakeEdgeStream(g, StreamOrder::kBfs, 31);
  VertexId root = vertex_order[0];
  const Edge& first = g.edges()[edge_order[0]];
  EXPECT_TRUE(first.src == root || first.dst == root);
}

TEST(StreamOrderTest, ParseAndNameRoundTrip) {
  for (StreamOrder o : {StreamOrder::kNatural, StreamOrder::kRandom,
                        StreamOrder::kBfs, StreamOrder::kDfs}) {
    EXPECT_EQ(ParseStreamOrder(StreamOrderName(o)), o);
  }
  EXPECT_EQ(ParseStreamOrder("bogus"), std::nullopt);
  EXPECT_EQ(ParseStreamOrder("BFS"), std::nullopt);
}

}  // namespace
}  // namespace sgp
