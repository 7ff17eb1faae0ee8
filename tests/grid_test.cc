#include "experiments/grid.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/telemetry.h"
#include "experiments/cache.h"

namespace sgp {
namespace {

OfflineGridSpec TinyOffline() {
  OfflineGridSpec spec;
  spec.datasets = {"usaroad"};
  spec.algorithms = {"ECR", "HDRF"};
  spec.cluster_sizes = {4};
  spec.workloads = {"pagerank", "sssp"};
  spec.scale = 8;
  spec.pagerank_iterations = 3;
  return spec;
}

TEST(OfflineGridTest, ProducesOneRecordPerCell) {
  auto records = RunOfflineGrid(TinyOffline());
  ASSERT_EQ(records.size(), 4u);  // 1 dataset × 2 algos × 1 k × 2 workloads
  for (const auto& r : records) {
    EXPECT_EQ(r.dataset, "usaroad");
    EXPECT_EQ(r.k, 4u);
    EXPECT_GE(r.replication_factor, 1.0);
    EXPECT_GT(r.simulated_seconds, 0.0);
    EXPECT_GT(r.iterations, 0u);
  }
}

TEST(OfflineGridTest, StructuralMetricsConstantAcrossWorkloads) {
  auto records = RunOfflineGrid(TinyOffline());
  // The pagerank and sssp rows of the same (algo, k) share a partitioning.
  EXPECT_DOUBLE_EQ(records[0].replication_factor,
                   records[1].replication_factor);
  EXPECT_DOUBLE_EQ(records[0].edge_cut_ratio, records[1].edge_cut_ratio);
}

TEST(OfflineGridTest, CsvHasHeaderAndRows) {
  auto records = RunOfflineGrid(TinyOffline());
  std::ostringstream out;
  WriteOfflineCsv(records, out);
  std::string csv = out.str();
  EXPECT_NE(csv.find("dataset,algorithm,workload,k"), std::string::npos);
  // Header + 4 data rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);
  EXPECT_NE(csv.find("usaroad,ECR,pagerank,4,"), std::string::npos);
}

TEST(OfflineGridTest, DeterministicAcrossRuns) {
  auto a = RunOfflineGrid(TinyOffline());
  auto b = RunOfflineGrid(TinyOffline());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].simulated_seconds, b[i].simulated_seconds);
    EXPECT_EQ(a[i].network_bytes, b[i].network_bytes);
  }
}

TEST(OfflineGridTest, MultiSeedReportsVariance) {
  OfflineGridSpec spec = TinyOffline();
  spec.algorithms = {"ECR"};
  spec.workloads = {"pagerank"};
  spec.num_seeds = 3;
  auto records = RunOfflineGrid(spec);
  ASSERT_EQ(records.size(), 1u);
  // Different hash seeds give different partitionings, hence nonzero
  // spread in both replication factor and simulated time.
  EXPECT_GT(records[0].replication_factor_stddev, 0.0);
  EXPECT_GT(records[0].simulated_seconds_stddev, 0.0);
  // Single-seed runs report zero spread.
  spec.num_seeds = 1;
  auto single = RunOfflineGrid(spec);
  EXPECT_DOUBLE_EQ(single[0].replication_factor_stddev, 0.0);
}

TEST(OnlineGridTest, ProducesExpectedCells) {
  OnlineGridSpec spec;
  spec.algorithms = {"ECR"};
  spec.cluster_sizes = {4};
  spec.workloads = {QueryKind::kOneHop};
  spec.clients_per_worker = {4, 8};
  spec.scale = 9;
  spec.queries_per_run = 1500;
  auto records = RunOnlineGrid(spec);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].clients, 16u);
  EXPECT_EQ(records[1].clients, 32u);
  for (const auto& r : records) {
    EXPECT_GT(r.throughput_qps, 0.0);
    EXPECT_GE(r.p99_latency_seconds, r.mean_latency_seconds);
  }
}

TEST(GridRunnerTest, MergesCellTelemetryIntoCallerRegistry) {
  MetricsRegistry local;
  ScopedMetricsRegistry scoped(&local);
  RunOfflineGrid(TinyOffline());  // 2 cells: 2 algos × 1 k × 1 dataset
  EXPECT_EQ(local.GetCounter("grid.cells_done")->value(), 2u);
  // Cell work is metered in per-cell registries and merged at join: the
  // engine ran 2 cells × 2 workloads times, and each run supersteps.
  EXPECT_GT(local.GetCounter("engine.supersteps")->value(), 0u);
  // Both cells asked for the same graph; at most one request can miss.
  EXPECT_GE(local.GetCounter("grid.cache_hits")->value(), 1u);
}

TEST(GridRunnerTest, TotalClientsOverridesPerWorkerScaling) {
  OnlineGridSpec spec;
  spec.algorithms = {"ECR"};
  spec.cluster_sizes = {4, 8};
  spec.workloads = {QueryKind::kOneHop};
  spec.total_clients = {24};
  spec.scale = 9;
  spec.queries_per_run = 800;
  auto records = RunOnlineGrid(spec);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].clients, 24u);  // fixed load at every k
  EXPECT_EQ(records[1].clients, 24u);
}

TEST(MemoCacheTest, BuildsEachKeyOnceAndReportsHits) {
  MemoCache<int, std::string> cache;
  int builds = 0;
  auto build = [&builds] {
    ++builds;
    return std::string("value");
  };
  bool hit = true;
  const std::string& first = cache.Get(1, build, &hit);
  EXPECT_FALSE(hit);
  const std::string& again = cache.Get(1, build, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(&first, &again);  // one stored value per key
  cache.Get(2, build, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(&cache.Get(1, build), &first);  // stable across insertions
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(cache.size(), 2u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(OnlineGridTest, CsvRoundTripShape) {
  OnlineGridSpec spec;
  spec.algorithms = {"ECR", "FNL"};
  spec.cluster_sizes = {4};
  spec.workloads = {QueryKind::kOneHop};
  spec.clients_per_worker = {4};
  spec.scale = 9;
  spec.queries_per_run = 1000;
  auto records = RunOnlineGrid(spec);
  std::ostringstream out;
  WriteOnlineCsv(records, out);
  const std::string csv = out.str();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

}  // namespace
}  // namespace sgp
