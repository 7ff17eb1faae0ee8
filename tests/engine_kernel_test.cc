// Kernel-vs-oracle suite: AnalyticsEngine::Run (the superstep kernel in
// engine/kernel.h) must produce byte-identical EngineStats to the plain
// reference loop in tests/engine_oracle.h for every program, graph kind,
// partitioner and worker-speed profile. Both run on the engine's own
// distributed graph.
#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>
#include "common/random.h"
#include "engine/engine.h"
#include "engine/programs.h"
#include "graph/datasets.h"
#include "partition/partitioner.h"
#include "tests/engine_oracle.h"
#include "tests/test_util.h"

namespace sgp {
namespace {

// Exact bit equality for doubles: distinguishes -0.0 from 0.0 and treats
// equal-bit infinities as equal — "byte-identical", not "approximately".
::testing::AssertionResult BitsEqual(const char* a_expr, const char* b_expr,
                                     double a, double b) {
  if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a_expr << " and " << b_expr << " differ: " << a << " vs " << b;
}

void ExpectBitsEqual(const std::vector<double>& a,
                     const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_PRED_FORMAT2(BitsEqual, a[i], b[i]) << what << "[" << i << "]";
  }
}

void ExpectStatsByteIdentical(const EngineStats& run,
                              const EngineStats& ref) {
  EXPECT_EQ(run.iterations, ref.iterations);
  EXPECT_EQ(run.gather_messages, ref.gather_messages);
  EXPECT_EQ(run.sync_messages, ref.sync_messages);
  EXPECT_EQ(run.total_network_bytes, ref.total_network_bytes);
  ExpectBitsEqual(run.compute_seconds_per_worker,
                  ref.compute_seconds_per_worker, "compute_seconds_per_worker");
  EXPECT_EQ(run.bytes_per_worker, ref.bytes_per_worker);
  EXPECT_PRED_FORMAT2(BitsEqual, run.simulated_seconds,
                      ref.simulated_seconds);
  EXPECT_EQ(run.active_per_iteration, ref.active_per_iteration);
  EXPECT_EQ(run.messages_per_iteration, ref.messages_per_iteration);
  ExpectBitsEqual(run.values, ref.values, "values");
}

template <typename Program>
void ExpectRunMatchesOracle(const AnalyticsEngine& engine,
                            const EngineCostModel& cost,
                            const Program& program) {
  ExpectStatsByteIdentical(
      engine.Run(program),
      oracle::RunEngine(engine.distributed_graph(), cost, program));
}

// program × dataset × partitioner × heterogeneous-speeds.
using EquivParam = std::tuple<std::string, std::string, std::string, bool>;

class KernelEquivalenceTest : public ::testing::TestWithParam<EquivParam> {};

TEST_P(KernelEquivalenceTest, KernelMatchesOracleByteForByte) {
  const auto& [prog_name, dataset, algo, hetero] = GetParam();
  Graph g = MakeDataset(dataset, 8);
  PartitionConfig cfg;
  cfg.k = 8;
  Partitioning p = CreatePartitioner(algo)->Run(g, cfg);

  EngineCostModel cost;
  if (hetero) {
    // LeBeane-style heterogeneous cluster: speeds that do not divide
    // evenly, so precomputed per-replica divisions face awkward rounding.
    cost.worker_speeds = {1.0, 2.0, 0.5, 3.0, 1.0, 0.7, 1.3, 2.0};
  }

  AnalyticsEngine engine(g, p, cost);
  if (prog_name == "PageRank") {
    ExpectRunMatchesOracle(engine, cost, PageRankProgram(12));
  } else if (prog_name == "WCC") {
    ExpectRunMatchesOracle(engine, cost, WccProgram());
  } else {
    VertexId source = 0;
    while (g.Degree(source) == 0) ++source;
    ExpectRunMatchesOracle(engine, cost, SsspProgram(source));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, KernelEquivalenceTest,
    ::testing::Combine(::testing::Values("PageRank", "WCC", "SSSP"),
                       ::testing::Values("twitter", "usaroad"),
                       ::testing::Values("HDRF", "LDG"),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param) + "_" +
             std::get<2>(info.param) +
             (std::get<3>(info.param) ? "_hetero" : "_uniform");
    });

// Sender-side aggregation off (Bourse et al. comparison mode): per-edge
// gather messages flow through the precomputed message fields.
TEST(KernelEquivalenceTest, NoAggregationMatches) {
  Graph g = MakeDataset("twitter", 8);
  PartitionConfig cfg;
  cfg.k = 8;
  Partitioning p = CreatePartitioner("VCR")->Run(g, cfg);
  EngineCostModel cost;
  cost.sender_side_aggregation = false;
  AnalyticsEngine engine(g, p, cost);
  ExpectRunMatchesOracle(engine, cost, PageRankProgram(8));
}

TEST(KernelEquivalenceTest, SinglePartitionAndTinyGraphsMatch) {
  for (VertexId n : {0u, 1u, 2u, 5u}) {
    Graph g = testing::MakePath(n);
    Partitioning p = testing::MakeEdgeCutPartitioning(
        g, 1, std::vector<PartitionId>(g.num_vertices(), 0));
    AnalyticsEngine engine(g, p);
    ExpectRunMatchesOracle(engine, {}, PageRankProgram(5));
    ExpectRunMatchesOracle(engine, {}, WccProgram());
    if (n > 0) ExpectRunMatchesOracle(engine, {}, SsspProgram(n - 1));
  }
}

// The lockstep gather sums groups of four vertices, consecutive in
// in-degree order, together until each row ends, and the n mod 4 vertices
// of lowest degree one at a time. Degree buckets of 1–9 vertices (groups
// with equal and with unequal row lengths, every remainder) and graphs
// with fewer than four vertices must still match the oracle bit for bit.
TEST(KernelEquivalenceTest, LockstepGatherRemaindersMatch) {
  Rng rng(17);
  for (bool directed : {true, false}) {
    // Bucket sizes per in-degree 0, 1, 2, ...: the first graphs have
    // fewer than four vertices in all.
    for (const std::vector<VertexId>& bucket_sizes :
         std::vector<std::vector<VertexId>>{{1},
                                            {1, 1},
                                            {0, 2, 1},
                                            {3, 5, 6, 7, 4, 1, 2},
                                            {2, 9, 4, 3, 1, 8}}) {
      std::vector<uint32_t> in_degree;
      for (size_t d = 0; d < bucket_sizes.size(); ++d) {
        in_degree.insert(in_degree.end(), bucket_sizes[d],
                         static_cast<uint32_t>(d));
      }
      const VertexId n = static_cast<VertexId>(in_degree.size());
      GraphBuilder builder(n, directed);
      for (VertexId v = 0; v < n; ++v) {
        // In-edges from distinct other vertices; an undirected graph
        // gains degree from its neighbours' edges as well.
        for (uint32_t i = 0; i < in_degree[v]; ++i) {
          builder.AddEdge((v + 1 + i) % n, v);
        }
      }
      const Graph g = std::move(builder).Finalize();
      for (PartitionId k : {1u, 3u}) {
        std::vector<PartitionId> map(n);
        for (PartitionId& p : map) {
          p = static_cast<PartitionId>(rng.UniformInt(k));
        }
        const Partitioning p = testing::MakeEdgeCutPartitioning(g, k, map);
        EngineCostModel cost;
        if (k == 3) cost.worker_speeds = {1.0, 0.7, 2.0};
        AnalyticsEngine engine(g, p, cost);
        SCOPED_TRACE(::testing::Message()
                     << (directed ? "directed" : "undirected") << " n=" << n
                     << " k=" << k);
        ExpectRunMatchesOracle(engine, cost, PageRankProgram(7));
      }
    }
  }
}

}  // namespace
}  // namespace sgp
