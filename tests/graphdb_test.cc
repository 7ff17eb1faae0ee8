#include "graphdb/graphdb.h"

#include <algorithm>
#include <limits>
#include <string>

#include <gtest/gtest.h>
#include "graph/datasets.h"
#include "partition/partitioner.h"
#include "tests/engine_reference.h"
#include "tests/test_util.h"

namespace sgp {
namespace {

GraphDatabase MakeDb(const Graph& g, const std::string& algo,
                     PartitionId k) {
  PartitionConfig cfg;
  cfg.k = k;
  return GraphDatabase(g, CreatePartitioner(algo)->Run(g, cfg));
}

TEST(GraphDatabaseTest, StoreServesExactAdjacency) {
  Graph g = MakeDataset("ldbc", 9);
  GraphDatabase db = MakeDb(g, "FNL", 8);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    auto from_store = db.ReadAdjacency(u);
    auto from_graph = g.Neighbors(u);
    ASSERT_EQ(from_store.size(), from_graph.size());
    ASSERT_TRUE(std::equal(from_store.begin(), from_store.end(),
                           from_graph.begin()));
  }
}

TEST(GraphDatabaseTest, OwnerMatchesPartitioning) {
  Graph g = MakeDataset("usaroad", 8);
  PartitionConfig cfg;
  cfg.k = 4;
  Partitioning p = CreatePartitioner("LDG")->Run(g, cfg);
  GraphDatabase db(g, p);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    ASSERT_EQ(db.Owner(u), p.vertex_to_partition[u]);
  }
}

TEST(QueryPlanTest, OneHopShape) {
  Graph g = testing::MakeStar(5);
  GraphDatabase db = MakeDb(g, "ECR", 4);
  Query q{QueryKind::kOneHop, 0, 0};
  QueryPlan plan = db.Plan(q);
  EXPECT_EQ(plan.coordinator, db.Owner(0));
  EXPECT_EQ(plan.result_size, 4u);  // 4 leaves
  EXPECT_EQ(plan.total_reads, 5u);  // adjacency + 4 records
  ASSERT_GE(plan.rounds.size(), 1u);
  EXPECT_EQ(plan.rounds[0][0].worker, plan.coordinator);
}

TEST(QueryPlanTest, RemoteMessagesCountRemoteWorkersOnly) {
  Graph g = testing::MakeStar(9);
  // All vertices on the coordinator's partition → zero remote messages.
  Partitioning local = testing::MakeEdgeCutPartitioning(
      g, 2, std::vector<PartitionId>(9, 0));
  GraphDatabase db(g, local);
  QueryPlan plan = db.Plan({QueryKind::kOneHop, 0, 0});
  EXPECT_EQ(plan.remote_messages, 0u);
  EXPECT_EQ(plan.network_bytes, 0u);
}

TEST(QueryPlanTest, FullyRemoteNeighborsPayMessages) {
  Graph g = testing::MakeStar(5);
  // Center on partition 0, all leaves on partition 1.
  Partitioning split = testing::MakeEdgeCutPartitioning(
      g, 2, {0, 1, 1, 1, 1});
  GraphDatabase db(g, split);
  QueryPlan plan = db.Plan({QueryKind::kOneHop, 0, 0});
  EXPECT_EQ(plan.remote_messages, 2u);  // one request + one response
  EXPECT_GT(plan.network_bytes, 0u);
}

class QueryResultInvarianceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(QueryResultInvarianceTest, ResultsIndependentOfPartitioning) {
  Graph g = MakeDataset("ldbc", 9);
  GraphDatabase baseline = MakeDb(g, "ECR", 1);
  GraphDatabase db = MakeDb(g, GetParam(), 8);
  for (VertexId start : {0u, 5u, 100u, 200u}) {
    for (QueryKind kind : {QueryKind::kOneHop, QueryKind::kTwoHop}) {
      Query q{kind, start, 0};
      ASSERT_EQ(db.Plan(q).result_size, baseline.Plan(q).result_size)
          << QueryKindName(kind) << " start=" << start;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EdgeCutAlgorithms, QueryResultInvarianceTest,
                         ::testing::Values("ECR", "LDG", "FNL", "MTS"),
                         [](const auto& info) { return info.param; });

TEST(QueryPlanTest, TwoHopDeduplicatesFrontier) {
  // Triangle: the 2-hop set of 0 is {1, 2} (its own neighbors reached
  // again at depth 2 are still distinct vertices, but 0 itself is
  // excluded).
  Graph g = testing::MakeCycle(3);
  GraphDatabase db = MakeDb(g, "ECR", 2);
  QueryPlan plan = db.Plan({QueryKind::kTwoHop, 0, 0});
  EXPECT_EQ(plan.result_size, 2u);
}

TEST(QueryPlanTest, ShortestPathMatchesReference) {
  Graph g = MakeDataset("usaroad", 8);
  GraphDatabase db = MakeDb(g, "LDG", 4);
  auto dist = ReferenceSssp(g, 0);
  for (VertexId target : {1u, 17u, 63u, 200u}) {
    QueryPlan plan = db.Plan({QueryKind::kShortestPath, 0, target});
    if (dist[target] == std::numeric_limits<double>::infinity()) {
      EXPECT_EQ(plan.result_size, 0u);
    } else {
      EXPECT_EQ(static_cast<double>(plan.result_size), dist[target])
          << "target=" << target;
    }
  }
}

TEST(QueryPlanTest, ShortestPathToSelfIsZero) {
  Graph g = testing::MakePath(4);
  GraphDatabase db = MakeDb(g, "ECR", 2);
  QueryPlan plan = db.Plan({QueryKind::kShortestPath, 2, 2});
  EXPECT_EQ(plan.result_size, 0u);
  EXPECT_TRUE(plan.rounds.empty());
}

TEST(AccessCountsTest, OneHopCountsStartAndNeighbors) {
  Graph g = testing::MakeStar(4);
  GraphDatabase db = MakeDb(g, "ECR", 2);
  std::vector<uint64_t> counts(4, 0);
  db.AccumulateAccessCounts({QueryKind::kOneHop, 0, 0}, counts);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
}

TEST(AccessCountsTest, AccumulatesAcrossQueries) {
  Graph g = testing::MakeStar(4);
  GraphDatabase db = MakeDb(g, "ECR", 2);
  std::vector<uint64_t> counts(4, 0);
  db.AccumulateAccessCounts({QueryKind::kOneHop, 0, 0}, counts);
  db.AccumulateAccessCounts({QueryKind::kOneHop, 1, 0}, counts);
  EXPECT_EQ(counts[0], 2u);  // start once, neighbor of 1 once
  EXPECT_EQ(counts[1], 2u);  // neighbor once, start once
}

}  // namespace
}  // namespace sgp
