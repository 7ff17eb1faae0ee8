// End-to-end scenarios stitching together generators, partitioners, the
// analytics engine and the graph database, mirroring the paper's two
// experimental pipelines (Section 5).
#include <gtest/gtest.h>
#include "common/statistics.h"
#include "engine/engine.h"
#include "engine/programs.h"
#include "graph/datasets.h"
#include "graphdb/event_sim.h"
#include "graphdb/workload_aware.h"
#include "partition/metrics.h"
#include "partition/partitioner.h"
#include "tests/engine_reference.h"

namespace sgp {
namespace {

TEST(IntegrationTest, OfflineAnalyticsPipeline) {
  // Generate → partition with every algorithm → run every workload →
  // validate results and accounting.
  Graph g = MakeDataset("twitter", 9);
  auto pr_ref = ReferencePageRank(g, 5);
  for (const std::string& algo : PartitionerNames()) {
    PartitionConfig cfg;
    cfg.k = 8;
    Partitioning p = CreatePartitioner(algo)->Run(g, cfg);
    ValidatePartitioning(g, p);
    AnalyticsEngine engine(g, p);
    EngineStats stats = engine.Run(PageRankProgram(5));
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_NEAR(stats.values[v], pr_ref[v], 1e-9) << algo;
    }
    EXPECT_GT(stats.total_network_bytes, 0u) << algo;
    EXPECT_GT(stats.simulated_seconds, 0.0) << algo;
  }
}

TEST(IntegrationTest, OnlineQueryPipeline) {
  Graph g = MakeDataset("ldbc", 10);
  WorkloadConfig wcfg;
  Workload w(g, wcfg);
  SimConfig sim;
  sim.clients = 48;
  sim.num_queries = 4000;
  double baseline_throughput = 0;
  for (const std::string algo : {"ECR", "LDG", "FNL", "MTS"}) {
    PartitionConfig cfg;
    cfg.k = 8;
    GraphDatabase db(g, CreatePartitioner(algo)->Run(g, cfg));
    SimResult r = SimulateClosedLoop(db, w, sim);
    EXPECT_GT(r.throughput_qps, 0.0) << algo;
    EXPECT_GT(r.latency.p99, r.latency.median) << algo;
    if (algo == std::string("ECR")) {
      baseline_throughput = r.throughput_qps;
    } else {
      // All algorithms land within an order of magnitude: partitioning
      // has a much smaller impact online than offline (Section 6.3.2).
      EXPECT_GT(r.throughput_qps, baseline_throughput / 10) << algo;
      EXPECT_LT(r.throughput_qps, baseline_throughput * 10) << algo;
    }
  }
}

TEST(IntegrationTest, WorkloadAwareRepartitioningLoop) {
  // The Figure 8 loop: deploy, observe, re-partition with access weights,
  // redeploy — results must stay correct and load must not get worse.
  Graph g = MakeDataset("ldbc", 10);
  PartitionConfig cfg;
  cfg.k = 8;
  Partitioning initial = CreatePartitioner("MTS")->Run(g, cfg);
  GraphDatabase db(g, initial);
  WorkloadConfig wcfg;
  wcfg.skew = 1.2;
  Workload w(g, wcfg);
  Partitioning aware = WorkloadAwarePartition(g, db, w, 8, 50000, 3);
  ValidatePartitioning(g, aware);
  GraphDatabase aware_db(g, aware);
  // Query results are unchanged by re-partitioning.
  for (const Query& q : w.bindings()) {
    ASSERT_EQ(db.Plan(q).result_size, aware_db.Plan(q).result_size);
  }
}

TEST(IntegrationTest, CutSizePredictsNetworkBytesAcrossAlgorithms) {
  // Section 6.1: cut size is a reliable indicator of network
  // communication. Rank correlation between replication factor and bytes
  // must be strongly positive across algorithms.
  Graph g = MakeDataset("twitter", 9);
  std::vector<std::pair<double, double>> points;  // (rf, bytes)
  for (const std::string& algo : PartitionerNames()) {
    PartitionConfig cfg;
    cfg.k = 8;
    Partitioning p = CreatePartitioner(algo)->Run(g, cfg);
    AnalyticsEngine engine(g, p);
    EngineStats stats = engine.Run(PageRankProgram(5));
    points.emplace_back(engine.distributed_graph().replication_factor(),
                        static_cast<double>(stats.total_network_bytes));
  }
  // Count concordant pairs (Kendall-style).
  int concordant = 0;
  int discordant = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = i + 1; j < points.size(); ++j) {
      double drf = points[i].first - points[j].first;
      double dbytes = points[i].second - points[j].second;
      if (drf * dbytes > 0) ++concordant;
      if (drf * dbytes < 0) ++discordant;
    }
  }
  EXPECT_GT(concordant, discordant * 2);
}

}  // namespace
}  // namespace sgp
