// Edge cases and failure injection across the whole stack: empty graphs,
// single vertices, k larger than n, isolated vertices, unreachable
// targets, degenerate configurations.
#include <limits>

#include <gtest/gtest.h>
#include "engine/engine.h"
#include "engine/programs.h"
#include "graph/datasets.h"
#include "graphdb/event_sim.h"
#include "partition/edgecut/parallel_streaming.h"
#include "partition/metrics.h"
#include "partition/partitioner.h"
#include "partition/state.h"
#include "tests/test_util.h"

namespace sgp {
namespace {

Graph EmptyGraph(VertexId n = 0) {
  GraphBuilder b(n, /*directed=*/false);
  return std::move(b).Finalize();
}

TEST(EdgeCaseTest, PartitionEmptyGraph) {
  Graph g = EmptyGraph();
  for (const std::string& algo : PartitionerNames()) {
    PartitionConfig cfg;
    cfg.k = 4;
    Partitioning p = CreatePartitioner(algo)->Run(g, cfg);
    ValidatePartitioning(g, p);
    EXPECT_TRUE(p.vertex_to_partition.empty()) << algo;
  }
}

TEST(EdgeCaseTest, PartitionEdgelessVertices) {
  Graph g = EmptyGraph(10);
  for (const std::string& algo : PartitionerNames()) {
    PartitionConfig cfg;
    cfg.k = 4;
    Partitioning p = CreatePartitioner(algo)->Run(g, cfg);
    ValidatePartitioning(g, p);
    PartitionMetrics m = ComputeMetrics(g, p);
    EXPECT_DOUBLE_EQ(m.replication_factor, 1.0) << algo;
    EXPECT_DOUBLE_EQ(m.edge_cut_ratio, 0.0) << algo;
  }
}

TEST(EdgeCaseTest, KLargerThanN) {
  Graph g = testing::MakePath(4);
  for (const std::string& algo : PartitionerNames()) {
    PartitionConfig cfg;
    cfg.k = 16;
    Partitioning p = CreatePartitioner(algo)->Run(g, cfg);
    ValidatePartitioning(g, p);
  }
}

TEST(EdgeCaseTest, KEqualsOneIsAlwaysPerfect) {
  Graph g = MakeDataset("ldbc", 8);
  for (const std::string& algo : PartitionerNames()) {
    PartitionConfig cfg;
    cfg.k = 1;
    PartitionMetrics m =
        ComputeMetrics(g, CreatePartitioner(algo)->Run(g, cfg));
    EXPECT_DOUBLE_EQ(m.edge_cut_ratio, 0.0) << algo;
    EXPECT_DOUBLE_EQ(m.replication_factor, 1.0) << algo;
  }
}

TEST(EdgeCaseTest, EngineOnEmptyGraph) {
  Graph g = EmptyGraph();
  PartitionConfig cfg;
  cfg.k = 2;
  Partitioning p = CreatePartitioner("ECR")->Run(g, cfg);
  AnalyticsEngine engine(g, p);
  EngineStats stats = engine.Run(WccProgram());
  EXPECT_EQ(stats.iterations, 0u);
  EXPECT_TRUE(stats.values.empty());
}

TEST(EdgeCaseTest, EngineSingleVertex) {
  Graph g = EmptyGraph(1);
  PartitionConfig cfg;
  cfg.k = 2;
  Partitioning p = CreatePartitioner("ECR")->Run(g, cfg);
  AnalyticsEngine engine(g, p);
  EngineStats pr = engine.Run(PageRankProgram(5));
  EXPECT_DOUBLE_EQ(pr.values[0], 0.15);
  EngineStats sssp = engine.Run(SsspProgram(0));
  EXPECT_DOUBLE_EQ(sssp.values[0], 0.0);
}

TEST(EdgeCaseTest, EngineDisconnectedGraph) {
  Graph g = testing::MakeGraph(6, /*directed=*/false,
                               {{0, 1}, {1, 2}, {3, 4}});
  PartitionConfig cfg;
  cfg.k = 3;
  Partitioning p = CreatePartitioner("LDG")->Run(g, cfg);
  AnalyticsEngine engine(g, p);
  EngineStats sssp = engine.Run(SsspProgram(0));
  EXPECT_EQ(sssp.values[2], 2.0);
  EXPECT_EQ(sssp.values[3], std::numeric_limits<double>::infinity());
  EXPECT_EQ(sssp.values[5], std::numeric_limits<double>::infinity());
  EngineStats wcc = engine.Run(WccProgram());
  EXPECT_EQ(wcc.values[4], 3.0);
  EXPECT_EQ(wcc.values[5], 5.0);
}

TEST(EdgeCaseTest, DatabaseQueryOnIsolatedVertex) {
  Graph g = testing::MakeGraph(4, /*directed=*/false, {{0, 1}});
  PartitionConfig cfg;
  cfg.k = 2;
  GraphDatabase db(g, CreatePartitioner("ECR")->Run(g, cfg));
  QueryPlan plan = db.Plan({QueryKind::kOneHop, 3, 0});
  EXPECT_EQ(plan.result_size, 0u);
  EXPECT_EQ(plan.total_reads, 1u);  // still reads the (empty) adjacency
}

TEST(EdgeCaseTest, ShortestPathUnreachableTerminates) {
  Graph g = testing::MakeGraph(5, /*directed=*/false, {{0, 1}, {2, 3}});
  PartitionConfig cfg;
  cfg.k = 2;
  GraphDatabase db(g, CreatePartitioner("ECR")->Run(g, cfg));
  QueryPlan plan = db.Plan({QueryKind::kShortestPath, 0, 3});
  EXPECT_EQ(plan.result_size, 0u);  // unreachable
}

TEST(EdgeCaseTest, SimWithOneClientOneWorker) {
  Graph g = MakeDataset("ldbc", 8);
  PartitionConfig cfg;
  cfg.k = 1;
  GraphDatabase db(g, CreatePartitioner("ECR")->Run(g, cfg));
  Workload w(g, {});
  SimConfig sim;
  sim.clients = 1;
  sim.num_queries = 100;
  SimResult r = SimulateClosedLoop(db, w, sim);
  EXPECT_EQ(r.completed, 90u);
  EXPECT_GT(r.throughput_qps, 0.0);
}

TEST(EdgeCaseDeathTest, PartitionerRejectsUnknownName) {
  EXPECT_DEATH(CreatePartitioner("NOPE"), "SGP_CHECK");
}

TEST(EdgeCaseDeathTest, BuilderRejectsOutOfRangeVertex) {
  GraphBuilder b(2, /*directed=*/false);
  EXPECT_DEATH(b.AddEdge(0, 5), "SGP_CHECK");
}

TEST(EdgeCaseDeathTest, SsspRejectsOutOfRangeSource) {
  // An unchecked source would index the frontier and the CSR offsets past
  // their ends.
  const Graph g = testing::MakePath(3);
  PartitionConfig cfg;
  cfg.k = 2;
  const AnalyticsEngine engine(g, CreatePartitioner("ECR")->Run(g, cfg));
  EXPECT_DEATH(engine.Run(SsspProgram(3)), "SGP_CHECK");
  EXPECT_DEATH(engine.Run(SsspProgram(7)), "SGP_CHECK");

  const Graph empty = EmptyGraph();
  const AnalyticsEngine empty_engine(empty,
                                     CreatePartitioner("ECR")->Run(empty, cfg));
  EXPECT_DEATH(empty_engine.Run(SsspProgram(0)), "SGP_CHECK");
}

TEST(EdgeCaseDeathTest, DatasetRejectsUnknownName) {
  EXPECT_DEATH(MakeDataset("nope", 10), "SGP_CHECK");
}

TEST(EdgeCaseDeathTest, HdrfLambdaMustBeFiniteAndNonNegative) {
  // A NaN λ would make every HDRF score NaN and send every edge to
  // partition 0; λ = +∞ gives ∞·0 = NaN for the max partition. The
  // balance row rejects both, and a negative λ, for every code that
  // scores with it.
  const Graph g = testing::MakeCycle(6);
  for (double lambda : {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(), -1.0}) {
    PartitionConfig cfg;
    cfg.k = 4;
    cfg.hdrf_lambda = lambda;
    for (const char* algo : {"HDRF", "2PS", "HEP"}) {
      EXPECT_DEATH(CreatePartitioner(algo)->Run(g, cfg), "SGP_CHECK")
          << algo << " lambda=" << lambda;
    }
    EXPECT_DEATH(RunParallelStreaming(g, cfg, ParallelStreamOptions{},
                                      ParallelAlgo::kHdrf),
                 "SGP_CHECK")
        << "PAR-HDRF lambda=" << lambda;
  }
}

TEST(EdgeCaseDeathTest, FennelParametersMustBeValid) {
  // A NaN γ or an infinite α used to turn FENNEL quietly into
  // least-loaded placement. The term row rejects a γ that is not finite
  // and ≥ 1 and an α that is not finite and ≥ 0 (α = 0 derives it) for
  // every code that scores with it; restreaming FENNEL also rejects an
  // α growth factor that is not finite and > 0.
  const Graph g = testing::MakeCycle(6);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Bad {
    double gamma = 1.5;
    double alpha = 0.0;
  };
  for (const Bad& bad : {Bad{nan, 0.0}, Bad{inf, 0.0}, Bad{0.5, 0.0},
                         Bad{1.5, nan}, Bad{1.5, inf}, Bad{1.5, -5.0}}) {
    PartitionConfig cfg;
    cfg.k = 4;
    cfg.fennel_gamma = bad.gamma;
    cfg.fennel_alpha = bad.alpha;
    for (const char* algo : {"FNL", "RFNL"}) {
      EXPECT_DEATH(CreatePartitioner(algo)->Run(g, cfg), "SGP_CHECK")
          << algo << " gamma=" << bad.gamma << " alpha=" << bad.alpha;
    }
    EXPECT_DEATH(RunParallelStreaming(g, cfg, ParallelStreamOptions{},
                                      ParallelAlgo::kFennel),
                 "SGP_CHECK")
        << "PAR-FNL gamma=" << bad.gamma << " alpha=" << bad.alpha;
  }
  for (double growth : {nan, inf, 0.0, -1.0}) {
    PartitionConfig cfg;
    cfg.k = 4;
    cfg.restream_alpha_growth = growth;
    EXPECT_DEATH(CreatePartitioner("RFNL")->Run(g, cfg), "SGP_CHECK")
        << "RFNL growth=" << growth;
  }
}

TEST(EdgeCaseTest, FennelAcceptsBoundaryParameters) {
  // γ = 1 (a flat load penalty) and an explicit α = 0 (derive it) are
  // valid, and LDG ignores FENNEL's parameters altogether.
  const Graph g = testing::MakeCycle(6);
  PartitionConfig cfg;
  cfg.k = 2;
  cfg.fennel_gamma = 1.0;
  EXPECT_EQ(CreatePartitioner("FNL")->Run(g, cfg).vertex_to_partition.size(),
            6u);
  cfg.fennel_gamma = std::numeric_limits<double>::quiet_NaN();
  cfg.restream_alpha_growth = -1.0;
  EXPECT_EQ(CreatePartitioner("RLDG")->Run(g, cfg).vertex_to_partition.size(),
            6u);
}

TEST(EdgeCaseTest, MetricsOnSelfContainedPartition) {
  // All vertices and edges on one partition of many.
  Graph g = testing::MakeCycle(6);
  Partitioning p = testing::MakeEdgeCutPartitioning(
      g, 4, std::vector<PartitionId>(6, 2));
  PartitionMetrics m = ComputeMetrics(g, p);
  EXPECT_DOUBLE_EQ(m.edge_cut_ratio, 0.0);
  EXPECT_DOUBLE_EQ(m.replication_factor, 1.0);
  EXPECT_DOUBLE_EQ(m.vertex_imbalance, 4.0);  // max/avg with 3 empty parts
}

}  // namespace
}  // namespace sgp
