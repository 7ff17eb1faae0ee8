#include "tests/engine_reference.h"

#include <limits>

#include <gtest/gtest.h>
#include "tests/test_util.h"

namespace sgp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ReferencePageRankTest, UniformOnRegularCycle) {
  // On a directed cycle every vertex has in/out degree 1, so PageRank is
  // uniform (1.0 with our non-normalized formulation).
  Graph g = testing::MakeGraph(4, /*directed=*/true,
                               {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  auto pr = ReferencePageRank(g, 20);
  for (double v : pr) EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(ReferencePageRankTest, SinkReceivesMoreThanSource) {
  // 0→1: vertex 1 accumulates rank, vertex 0 only keeps the base.
  Graph g = testing::MakeGraph(2, /*directed=*/true, {{0, 1}});
  auto pr = ReferencePageRank(g, 20);
  EXPECT_NEAR(pr[0], 0.15, 1e-9);
  EXPECT_GT(pr[1], pr[0]);
}

TEST(ReferenceWccTest, SingleComponent) {
  Graph g = testing::MakePath(5);
  auto wcc = ReferenceWcc(g);
  for (double label : wcc) EXPECT_EQ(label, 0.0);
}

TEST(ReferenceWccTest, TwoComponentsGetMinIds) {
  Graph g = testing::MakeGraph(5, /*directed=*/false, {{0, 1}, {3, 4}});
  auto wcc = ReferenceWcc(g);
  EXPECT_EQ(wcc[0], 0.0);
  EXPECT_EQ(wcc[1], 0.0);
  EXPECT_EQ(wcc[2], 2.0);  // isolated vertex is its own component
  EXPECT_EQ(wcc[3], 3.0);
  EXPECT_EQ(wcc[4], 3.0);
}

TEST(ReferenceWccTest, DirectionIgnored) {
  Graph g = testing::MakeGraph(3, /*directed=*/true, {{1, 0}, {1, 2}});
  auto wcc = ReferenceWcc(g);
  for (double label : wcc) EXPECT_EQ(label, 0.0);
}

TEST(ReferenceSsspTest, PathDistances) {
  Graph g = testing::MakePath(5);
  auto dist = ReferenceSssp(g, 0);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(dist[v], static_cast<double>(v));
  }
}

TEST(ReferenceSsspTest, RespectsDirection) {
  Graph g = testing::MakeGraph(3, /*directed=*/true, {{0, 1}, {2, 1}});
  auto dist = ReferenceSssp(g, 0);
  EXPECT_EQ(dist[0], 0.0);
  EXPECT_EQ(dist[1], 1.0);
  EXPECT_EQ(dist[2], kInf);
}

TEST(ReferenceSsspTest, UnreachableIsInfinite) {
  Graph g = testing::MakeGraph(4, /*directed=*/false, {{0, 1}, {2, 3}});
  auto dist = ReferenceSssp(g, 0);
  EXPECT_EQ(dist[2], kInf);
  EXPECT_EQ(dist[3], kInf);
}

}  // namespace
}  // namespace sgp
