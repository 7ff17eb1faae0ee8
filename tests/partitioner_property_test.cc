// Property suite: invariants every partitioning algorithm must satisfy on
// every graph family, for several partition counts (DESIGN.md §4).
#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>
#include "graph/datasets.h"
#include "partition/metrics.h"
#include "partition/partitioner.h"
#include "tests/test_util.h"

namespace sgp {
namespace {

using PropertyParam = std::tuple<std::string, std::string, PartitionId>;

class PartitionerPropertyTest
    : public ::testing::TestWithParam<PropertyParam> {
 protected:
  static const Graph& GetGraph(const std::string& dataset) {
    // Cache graphs across test cases; scale 10 keeps the sweep fast.
    static auto* cache = new std::map<std::string, Graph>();
    auto it = cache->find(dataset);
    if (it == cache->end()) {
      it = cache->emplace(dataset, MakeDataset(dataset, 10)).first;
    }
    return it->second;
  }
};

TEST_P(PartitionerPropertyTest, ProducesValidBalancedPartitioning) {
  const auto& [algo, dataset, k] = GetParam();
  const Graph& g = GetGraph(dataset);
  auto partitioner = CreatePartitioner(algo);
  PartitionConfig cfg;
  cfg.k = k;
  Partitioning p = partitioner->Run(g, cfg);

  // Structural invariants.
  ValidatePartitioning(g, p);
  EXPECT_EQ(p.k, k);

  PartitionMetrics m = ComputeMetrics(g, p);
  EXPECT_GE(m.replication_factor, 1.0);
  EXPECT_LE(m.replication_factor, static_cast<double>(k));
  EXPECT_GE(m.edge_cut_ratio, 0.0);
  EXPECT_LE(m.edge_cut_ratio, 1.0);

  // Balance: the paper's algorithms produce balanced partitions in their
  // own load measure (Section 5.1.4). Edge-cut methods balance vertices,
  // vertex-cut methods balance edges. Degree-oblivious hashing balances
  // only in expectation; DBH inherits the degree skew of the pivot
  // endpoints and plain PowerGraph greedy has no balance term at all, so
  // both get looser (but still bounded) envelopes.
  double slack = 1.7;
  if (algo == "DBH") slack = 2.5;
  if (algo == "PGG") slack = 4.0;
  if (partitioner->model() == CutModel::kEdgeCut) {
    EXPECT_LE(m.vertex_imbalance, slack) << "vertex balance";
  } else if (partitioner->model() == CutModel::kVertexCut) {
    EXPECT_LE(m.edge_imbalance, slack) << "edge balance";
  }
}

TEST_P(PartitionerPropertyTest, DeterministicForFixedSeed) {
  const auto& [algo, dataset, k] = GetParam();
  const Graph& g = GetGraph(dataset);
  auto partitioner = CreatePartitioner(algo);
  PartitionConfig cfg;
  cfg.k = k;
  cfg.seed = 99;
  Partitioning a = partitioner->Run(g, cfg);
  Partitioning b = partitioner->Run(g, cfg);
  EXPECT_EQ(a.vertex_to_partition, b.vertex_to_partition);
  EXPECT_EQ(a.edge_to_partition, b.edge_to_partition);
}

TEST_P(PartitionerPropertyTest, ReportsSynopsisAndChunkInvariance) {
  const auto& [algo, dataset, k] = GetParam();
  const Graph& g = GetGraph(dataset);
  auto partitioner = CreatePartitioner(algo);
  PartitionConfig cfg;
  cfg.k = k;
  Partitioning whole = partitioner->Run(g, cfg);
  // Every algorithm accounts its synopsis through the shared state layer.
  EXPECT_GT(whole.state_bytes, 0u);
  // Chunked ingest is a pure batching concern: page-sized chunks must
  // reproduce the single-chunk fast path exactly.
  cfg.ingest_chunk_size = 64;
  Partitioning chunked = partitioner->Run(g, cfg);
  EXPECT_EQ(whole.vertex_to_partition, chunked.vertex_to_partition);
  EXPECT_EQ(whole.edge_to_partition, chunked.edge_to_partition);
  EXPECT_GT(chunked.state_bytes, 0u);
}

// Awkward k — non-power-of-two, one membership word ± one (the AVX2 tail
// and partial-word regime), and the multi-word regime where the bit-packed
// loops handle partial tail words — for every algorithm, with and without
// heterogeneous capacities. Each cell is pinned to the fingerprint the
// scalar, batched and SIMD score paths all produced when they still ran
// side by side (tests/golden/score_fingerprints.txt).
TEST_P(PartitionerPropertyTest, AwkwardKMatchesPinnedFingerprints) {
  const auto& [algo, dataset, base_k] = GetParam();
  // The sweep replaces the suite's k values; run it once per algo/dataset.
  if (base_k != 4u) GTEST_SKIP() << "awkward-k sweep runs on one base param";
  const Graph& g = GetGraph(dataset);
  auto partitioner = CreatePartitioner(algo);
  for (PartitionId k : {3u, 63u, 64u, 65u, 128u}) {
    for (bool hetero : {false, true}) {
      PartitionConfig cfg;
      cfg.k = k;
      cfg.seed = 99;
      if (hetero) {
        cfg.capacity_weights.resize(k);
        for (PartitionId i = 0; i < k; ++i) {
          cfg.capacity_weights[i] = 1.0 + 0.5 * (i % 4);
        }
      }
      const std::string cell = "awkward " + algo + " " + dataset +
                               " k=" + std::to_string(k) +
                               (hetero ? " hetero" : " plain");
      EXPECT_EQ(testing::FingerprintHex(partitioner->Run(g, cfg)),
                testing::PinnedFingerprint(cell))
          << cell;
    }
  }
}

std::vector<PropertyParam> AllCombinations() {
  std::vector<PropertyParam> params;
  for (const std::string& algo : PartitionerNames()) {
    for (const std::string dataset : {"twitter", "usaroad", "ldbc"}) {
      for (PartitionId k : {4u, 16u}) {
        params.emplace_back(algo, dataset, k);
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsGraphsAndK, PartitionerPropertyTest,
    ::testing::ValuesIn(AllCombinations()),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param) + "_k" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace sgp
