// Kernel-equivalence suite: the compile-time-specialized superstep kernels
// (engine/kernel.h) must produce byte-identical EngineStats to the generic
// virtual-dispatch path for every program, graph kind, partitioner and
// worker-speed profile. GenericProgramView pins a program to
// the generic path, so the same AnalyticsEngine instance runs both kernels
// on the same distributed graph.
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>
#include "common/telemetry.h"
#include "engine/engine.h"
#include "engine/programs.h"
#include "graph/datasets.h"
#include "partition/partitioner.h"
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

void ExpectStatsByteIdentical(const EngineStats& s, const EngineStats& g) {
  EXPECT_EQ(s.iterations, g.iterations);
  EXPECT_EQ(s.gather_messages, g.gather_messages);
  EXPECT_EQ(s.sync_messages, g.sync_messages);
  EXPECT_EQ(s.total_network_bytes, g.total_network_bytes);
  ExpectBitsEqual(s.compute_seconds_per_worker, g.compute_seconds_per_worker,
                  "compute_seconds_per_worker");
  EXPECT_EQ(s.bytes_per_worker, g.bytes_per_worker);
  EXPECT_PRED_FORMAT2(BitsEqual, s.simulated_seconds, g.simulated_seconds);
  EXPECT_EQ(s.active_per_iteration, g.active_per_iteration);
  EXPECT_EQ(s.messages_per_iteration, g.messages_per_iteration);
  ExpectBitsEqual(s.values, g.values, "values");
}

std::unique_ptr<VertexProgram> MakeProgram(const std::string& name,
                                           const Graph& g) {
  if (name == "PageRank") return std::make_unique<PageRankProgram>(12);
  if (name == "WCC") return std::make_unique<WccProgram>();
  VertexId source = 0;
  while (g.Degree(source) == 0) ++source;
  return std::make_unique<SsspProgram>(source);
}

// program × dataset × partitioner × heterogeneous-speeds.
using EquivParam = std::tuple<std::string, std::string, std::string, bool>;

class KernelEquivalenceTest : public ::testing::TestWithParam<EquivParam> {};

TEST_P(KernelEquivalenceTest, SpecializedMatchesGenericByteForByte) {
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
  auto program = MakeProgram(prog_name, g);
  GenericProgramView generic(*program);

  EngineStats specialized = engine.Run(*program);
  EngineStats fallback = engine.Run(generic);
  ExpectStatsByteIdentical(specialized, fallback);
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
  PageRankProgram pr(8);
  GenericProgramView generic(pr);
  ExpectStatsByteIdentical(engine.Run(pr), engine.Run(generic));
}

TEST(KernelEquivalenceTest, SinglePartitionAndTinyGraphsMatch) {
  for (VertexId n : {0u, 1u, 2u, 5u}) {
    Graph g = testing::MakePath(n);
    Partitioning p = testing::MakeEdgeCutPartitioning(
        g, 1, std::vector<PartitionId>(g.num_vertices(), 0));
    AnalyticsEngine engine(g, p);
    PageRankProgram pr(5);
    GenericProgramView generic_pr(pr);
    ExpectStatsByteIdentical(engine.Run(pr), engine.Run(generic_pr));
    WccProgram wcc;
    GenericProgramView generic_wcc(wcc);
    ExpectStatsByteIdentical(engine.Run(wcc), engine.Run(generic_wcc));
  }
}

// --- Dispatch metering ---

uint64_t CounterValue(MetricsRegistry& reg, const char* name) {
  for (const MetricSample& m : reg.Snapshot()) {
    if (m.name == name) return m.counter_value;
  }
  return 0;
}

TEST(KernelDispatchTest, CountersMeterSpecializedAndGenericRuns) {
  Graph g = testing::MakeCycle(12);
  Partitioning p =
      testing::MakeEdgeCutPartitioning(
          g, 2, std::vector<PartitionId>(g.num_vertices(), 0));
  AnalyticsEngine engine(g, p);
  PageRankProgram pr(3);
  GenericProgramView generic(pr);

  MetricsRegistry local;
  ScopedMetricsRegistry scoped(&local);
  engine.Run(pr);       // specialized kernel
  engine.Run(generic);  // pinned to the virtual path
  EXPECT_EQ(CounterValue(local, "engine.kernel.specialized"), 1u);
  EXPECT_EQ(CounterValue(local, "engine.kernel.generic"), 1u);
}

// A program whose kind() lies about its dynamic type must fall back to the
// generic path (the dynamic_cast guard) instead of crashing or
// misinterpreting the object.
class ImpostorProgram final : public VertexProgram {
 public:
  std::string_view name() const override { return "Impostor"; }
  double InitialValue(VertexId, const Graph&) const override { return 1.0; }
  double GatherNeutral() const override { return 0.0; }
  double GatherContribution(VertexId, VertexId, double value_u,
                            const Graph&) const override {
    return value_u;
  }
  double Combine(double a, double b) const override { return a + b; }
  double Apply(VertexId, double, double gathered, uint64_t,
               const Graph&) const override {
    return 0.5 * gathered;
  }
  EdgeDirection gather_direction() const override {
    return EdgeDirection::kIn;
  }
  EdgeDirection scatter_direction() const override {
    return EdgeDirection::kOut;
  }
  bool all_active() const override { return true; }
  uint32_t max_iterations() const override { return 4; }
  ProgramKind kind() const override { return ProgramKind::kPageRank; }
};

TEST(KernelDispatchTest, MislabeledKindFallsBackToGenericPath) {
  Graph g = testing::MakeCycle(10);
  Partitioning p =
      testing::MakeEdgeCutPartitioning(
          g, 2, std::vector<PartitionId>(g.num_vertices(), 0));
  AnalyticsEngine engine(g, p);
  ImpostorProgram impostor;

  MetricsRegistry local;
  ScopedMetricsRegistry scoped(&local);
  EngineStats stats = engine.Run(impostor);
  EXPECT_EQ(stats.iterations, 4u);
  EXPECT_EQ(CounterValue(local, "engine.kernel.specialized"), 0u);
  EXPECT_EQ(CounterValue(local, "engine.kernel.generic"), 1u);
}

}  // namespace
}  // namespace sgp
