#include "graphdb/event_sim.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/telemetry.h"
#include "graph/datasets.h"
#include "partition/partitioner.h"
#include "tests/test_util.h"

namespace sgp {
namespace {

GraphDatabase MakeDb(const Graph& g, const std::string& algo, PartitionId k,
                     DbCostModel cost = {}) {
  PartitionConfig cfg;
  cfg.k = k;
  return GraphDatabase(g, CreatePartitioner(algo)->Run(g, cfg), cost);
}

SimConfig SmallSim(uint32_t clients = 32, uint64_t queries = 3000) {
  SimConfig cfg;
  cfg.clients = clients;
  cfg.num_queries = queries;
  return cfg;
}

TEST(EventSimTest, CompletesRequestedQueries) {
  Graph g = MakeDataset("ldbc", 9);
  GraphDatabase db = MakeDb(g, "ECR", 4);
  Workload w(g, {});
  SimResult r = SimulateClosedLoop(db, w, SmallSim());
  EXPECT_EQ(r.completed, 3000u - 300u);  // minus warmup
  EXPECT_GT(r.throughput_qps, 0.0);
  EXPECT_GT(r.window_seconds, 0.0);
}

TEST(EventSimTest, DeterministicPerSeed) {
  Graph g = MakeDataset("ldbc", 9);
  GraphDatabase db = MakeDb(g, "FNL", 4);
  Workload w(g, {});
  SimResult a = SimulateClosedLoop(db, w, SmallSim());
  SimResult b = SimulateClosedLoop(db, w, SmallSim());
  EXPECT_DOUBLE_EQ(a.throughput_qps, b.throughput_qps);
  EXPECT_DOUBLE_EQ(a.latency.p99, b.latency.p99);
}

TEST(EventSimTest, LatencyAtLeastNetworkFloor) {
  // Any query pays client→coordinator and coordinator→client hops plus at
  // least one read.
  Graph g = MakeDataset("ldbc", 9);
  DbCostModel cost;
  GraphDatabase db = MakeDb(g, "ECR", 4, cost);
  Workload w(g, {});
  SimResult r = SimulateClosedLoop(db, w, SmallSim());
  EXPECT_GE(r.latency.min, 2 * cost.network_latency_seconds);
}

TEST(EventSimTest, MoreClientsRaiseThroughputUntilSaturation) {
  Graph g = MakeDataset("ldbc", 10);
  GraphDatabase db = MakeDb(g, "ECR", 8);
  Workload w(g, {});
  SimResult low = SimulateClosedLoop(db, w, SmallSim(4, 4000));
  SimResult mid = SimulateClosedLoop(db, w, SmallSim(32, 4000));
  EXPECT_GT(mid.throughput_qps, low.throughput_qps);
}

TEST(EventSimTest, OverloadInflatesLatency) {
  Graph g = MakeDataset("ldbc", 10);
  GraphDatabase db = MakeDb(g, "ECR", 8);
  Workload w(g, {});
  SimResult medium = SimulateClosedLoop(db, w, SmallSim(8 * 12, 6000));
  SimResult high = SimulateClosedLoop(db, w, SmallSim(8 * 24, 6000));
  EXPECT_GT(high.latency.mean, medium.latency.mean);
}

TEST(EventSimTest, ReadsLandOnOwners) {
  Graph g = MakeDataset("ldbc", 9);
  GraphDatabase db = MakeDb(g, "LDG", 4);
  Workload w(g, {});
  SimResult r = SimulateClosedLoop(db, w, SmallSim());
  ASSERT_EQ(r.reads_per_worker.size(), 4u);
  double total = 0;
  for (double reads : r.reads_per_worker) total += reads;
  EXPECT_GT(total, 0.0);
}

TEST(EventSimTest, SkewedWorkloadConcentratesReads) {
  Graph g = MakeDataset("ldbc", 10);
  GraphDatabase db = MakeDb(g, "FNL", 8);
  WorkloadConfig uniform_cfg;
  uniform_cfg.skew = 0.0;
  WorkloadConfig skewed_cfg;
  skewed_cfg.skew = 1.4;
  Workload uniform(g, uniform_cfg);
  Workload skewed(g, skewed_cfg);
  SimResult ru = SimulateClosedLoop(db, uniform, SmallSim(64, 6000));
  SimResult rs = SimulateClosedLoop(db, skewed, SmallSim(64, 6000));
  auto rsd = [](const std::vector<double>& v) {
    return Summarize(v).RelativeStdDev();
  };
  EXPECT_GT(rsd(rs.reads_per_worker), rsd(ru.reads_per_worker));
}

TEST(EventSimTest, NetworkBytesMatchPlannedTraffic) {
  // A single-partition database never talks over the network.
  Graph g = MakeDataset("ldbc", 9);
  GraphDatabase db = MakeDb(g, "ECR", 1);
  Workload w(g, {});
  SimResult r = SimulateClosedLoop(db, w, SmallSim());
  EXPECT_EQ(r.total_network_bytes, 0u);
  EXPECT_EQ(r.total_remote_messages, 0u);
}

TEST(EventSimTest, ZeroClientsYieldEmptyResult) {
  Graph g = MakeDataset("ldbc", 9);
  GraphDatabase db = MakeDb(g, "ECR", 4);
  Workload w(g, {});
  SimResult r = SimulateClosedLoop(db, w, SmallSim(0, 3000));
  EXPECT_EQ(r.completed, 0u);
  EXPECT_EQ(r.throughput_qps, 0.0);
  EXPECT_EQ(r.window_seconds, 0.0);
  EXPECT_EQ(r.latency.count, 0u);
  ASSERT_EQ(r.reads_per_worker.size(), 4u);
  for (double reads : r.reads_per_worker) EXPECT_EQ(reads, 0.0);
}

TEST(EventSimTest, ZeroQueriesYieldEmptyResult) {
  Graph g = MakeDataset("ldbc", 9);
  GraphDatabase db = MakeDb(g, "ECR", 4);
  Workload w(g, {});
  SimResult r = SimulateClosedLoop(db, w, SmallSim(8, 0));
  EXPECT_EQ(r.completed, 0u);
  EXPECT_EQ(r.throughput_qps, 0.0);
  EXPECT_EQ(r.total_network_bytes, 0u);
}

TEST(EventSimTest, FullWarmupYieldsEmptyResult) {
  Graph g = MakeDataset("ldbc", 9);
  GraphDatabase db = MakeDb(g, "ECR", 4);
  Workload w(g, {});
  SimConfig cfg = SmallSim(8, 500);
  cfg.warmup_fraction = 1.0;
  SimResult r = SimulateClosedLoop(db, w, cfg);
  EXPECT_EQ(r.completed, 0u);
  EXPECT_EQ(r.window_seconds, 0.0);
  cfg.warmup_fraction = 1.5;  // > 1 must behave identically
  SimResult r2 = SimulateClosedLoop(db, w, cfg);
  EXPECT_EQ(r2.completed, 0u);
  cfg.warmup_fraction = -0.1;  // negative fractions are also degenerate
  SimResult r3 = SimulateClosedLoop(db, w, cfg);
  EXPECT_EQ(r3.completed, 0u);
}

TEST(EventSimTest, LatencyHistogramMatchesExactQuantiles) {
  // The simulator publishes every measured latency into the global
  // per-query-kind histogram; its quantile estimates must agree with the
  // exact sample quantiles in SimResult up to the bucket resolution
  // (32 buckets/decade => <= 10^(1/32)-1 ~= 7.5% relative error).
  MetricsRegistry::Global().Reset();
  Graph g = MakeDataset("ldbc", 9);
  GraphDatabase db = MakeDb(g, "ECR", 4);
  Workload w(g, {});
  SimResult r = SimulateClosedLoop(db, w, SmallSim());
  Histogram* h = MetricsRegistry::Global().GetHistogram(
      "graphdb.query_latency.one_hop.sim_seconds");
  ASSERT_EQ(h->count(), r.latency.count);
  EXPECT_DOUBLE_EQ(h->min(), r.latency.min);
  EXPECT_DOUBLE_EQ(h->max(), r.latency.max);
  const double tolerance = std::pow(10.0, 1.0 / 32.0) - 1.0;
  EXPECT_NEAR(h->Quantile(0.5) / r.latency.median, 1.0, tolerance);
  EXPECT_NEAR(h->Quantile(0.99) / r.latency.p99, 1.0, tolerance);
}

TEST(EventSimTest, TwoHopIsSlowerThanOneHop) {
  Graph g = MakeDataset("ldbc", 10);
  GraphDatabase db = MakeDb(g, "ECR", 8);
  WorkloadConfig one;
  one.kind = QueryKind::kOneHop;
  WorkloadConfig two;
  two.kind = QueryKind::kTwoHop;
  SimResult r1 = SimulateClosedLoop(db, Workload(g, one), SmallSim(16, 2000));
  SimResult r2 = SimulateClosedLoop(db, Workload(g, two), SmallSim(16, 2000));
  EXPECT_GT(r2.latency.mean, r1.latency.mean);
  EXPECT_LT(r2.throughput_qps, r1.throughput_qps);
}

}  // namespace
}  // namespace sgp
