// Exact oracle test for the DistributedGraph build: the block-bucketed
// build with one fused replica pass per vertex must give the same masters,
// replica offsets, replica order and counts, edges_per_partition and
// replication factor as the four-pass build it replaced (count → scatter
// records by vertex → count distinct partitions → fill and swap the master
// to the front), kept here as the oracle.
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "common/random.h"
#include "engine/distributed_graph.h"
#include "graph/graph.h"
#include "partition/partitioning.h"
#include "tests/test_util.h"

namespace sgp {
namespace {

struct OracleDistributedGraph {
  std::vector<uint64_t> offsets;  // size n+1, into replicas
  std::vector<DistributedGraph::Replica> replicas;
  std::vector<uint64_t> edges_per_partition;
};

constexpr uint32_t kIn = 1;
constexpr uint32_t kOut = 2;

OracleDistributedGraph OracleBuild(const Graph& graph,
                                   const Partitioning& partitioning) {
  const VertexId n = graph.num_vertices();
  const EdgeId m = graph.num_edges();
  const PartitionId k = partitioning.k;
  const std::vector<PartitionId>& master = partitioning.vertex_to_partition;
  OracleDistributedGraph out;
  out.edges_per_partition.assign(k, 0);

  // Pass 1: half-edge records grouped by endpoint, in edge-id order.
  std::vector<uint64_t> rec_offsets(static_cast<size_t>(n) + 1, 0);
  for (const Edge& edge : graph.edges()) {
    ++rec_offsets[edge.src + 1];
    ++rec_offsets[edge.dst + 1];
  }
  for (VertexId v = 0; v < n; ++v) rec_offsets[v + 1] += rec_offsets[v];
  std::vector<uint32_t> records(rec_offsets[n]);
  {
    std::vector<uint64_t> cursor(rec_offsets.begin(), rec_offsets.end() - 1);
    const uint32_t src_flags = graph.directed() ? kOut : (kIn | kOut);
    const uint32_t dst_flags = graph.directed() ? kIn : (kIn | kOut);
    for (EdgeId e = 0; e < m; ++e) {
      const Edge& edge = graph.edges()[e];
      const PartitionId p = partitioning.edge_to_partition[e];
      ++out.edges_per_partition[p];
      records[cursor[edge.src]++] = (p << 2) | src_flags;
      records[cursor[edge.dst]++] = (p << 2) | dst_flags;
    }
  }

  // Pass 2: distinct partitions per vertex, plus a slot for a master that
  // holds no incident edge.
  std::vector<uint64_t> slot_epoch(k, 0);
  uint64_t epoch = 0;
  out.offsets.assign(static_cast<size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    ++epoch;
    uint64_t distinct = 0;
    for (uint64_t i = rec_offsets[v]; i < rec_offsets[v + 1]; ++i) {
      const PartitionId p = records[i] >> 2;
      if (slot_epoch[p] != epoch) {
        slot_epoch[p] = epoch;
        ++distinct;
      }
    }
    if (slot_epoch[master[v]] != epoch) ++distinct;
    out.offsets[v + 1] = out.offsets[v] + distinct;
  }

  // Pass 3: fill each range in first-touch order, then swap the master to
  // the front.
  out.replicas.resize(out.offsets[n]);
  std::vector<uint64_t> slot_index(k, 0);
  for (VertexId v = 0; v < n; ++v) {
    ++epoch;
    DistributedGraph::Replica* row = out.replicas.data() + out.offsets[v];
    uint64_t filled = 0;
    for (uint64_t i = rec_offsets[v]; i < rec_offsets[v + 1]; ++i) {
      const uint32_t rec = records[i];
      const PartitionId p = rec >> 2;
      if (slot_epoch[p] != epoch) {
        slot_epoch[p] = epoch;
        slot_index[p] = filled;
        row[filled++] = {p, 0, 0};
      }
      DistributedGraph::Replica& r = row[slot_index[p]];
      if (rec & kIn) ++r.in_edges;
      if (rec & kOut) ++r.out_edges;
    }
    uint64_t master_slot;
    if (slot_epoch[master[v]] == epoch) {
      master_slot = slot_index[master[v]];
    } else {
      master_slot = filled;
      row[filled++] = {master[v], 0, 0};
    }
    std::swap(row[0], row[master_slot]);
  }
  return out;
}

void ExpectSameAsOracle(const Graph& graph, const Partitioning& partitioning) {
  const DistributedGraph dg(graph, partitioning);
  const OracleDistributedGraph want = OracleBuild(graph, partitioning);
  const VertexId n = graph.num_vertices();

  ASSERT_EQ(dg.k(), partitioning.k);
  ASSERT_EQ(dg.edges_per_partition(), want.edges_per_partition);
  ASSERT_EQ(dg.num_replicas(), want.replicas.size());
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_EQ(dg.Master(v), partitioning.vertex_to_partition[v]) << "v=" << v;
    const auto got = dg.Replicas(v);
    ASSERT_EQ(got.size(), want.offsets[v + 1] - want.offsets[v]) << "v=" << v;
    for (size_t j = 0; j < got.size(); ++j) {
      const DistributedGraph::Replica& w = want.replicas[want.offsets[v] + j];
      ASSERT_EQ(got[j].partition, w.partition) << "v=" << v << " j=" << j;
      ASSERT_EQ(got[j].in_edges, w.in_edges) << "v=" << v << " j=" << j;
      ASSERT_EQ(got[j].out_edges, w.out_edges) << "v=" << v << " j=" << j;
    }
  }
  const double rf = n == 0 ? 0
                           : static_cast<double>(want.replicas.size()) /
                                 static_cast<double>(n);
  ASSERT_EQ(dg.replication_factor(), rf);
}

// Random graph on n vertices whose edges touch only a prefix of the ids,
// so the rest stay isolated.
Graph RandomGraph(Rng& rng, VertexId n, bool directed) {
  GraphBuilder builder(n, directed);
  const VertexId range =
      1 + static_cast<VertexId>(rng.UniformInt(static_cast<uint64_t>(n)));
  const uint64_t edges = rng.UniformInt(4 * static_cast<uint64_t>(n) + 16);
  for (uint64_t i = 0; i < edges; ++i) {
    builder.AddEdge(static_cast<VertexId>(rng.UniformInt(range)),
                    static_cast<VertexId>(rng.UniformInt(range)));
  }
  return std::move(builder).Finalize();
}

std::vector<PartitionId> RandomMap(Rng& rng, size_t size, PartitionId k) {
  std::vector<PartitionId> map(size);
  for (PartitionId& p : map) p = static_cast<PartitionId>(rng.UniformInt(k));
  return map;
}

class DistributedGraphOracleTest : public ::testing::TestWithParam<bool> {};

TEST_P(DistributedGraphOracleTest, EmptyAndTinyGraphs) {
  const bool directed = GetParam();
  for (PartitionId k : {1u, 3u}) {
    const Graph empty = testing::MakeGraph(0, directed, {});
    ExpectSameAsOracle(empty, testing::MakeEdgeCutPartitioning(empty, k, {}));
    // One isolated vertex whose master holds no incident edge.
    const Graph single = testing::MakeGraph(1, directed, {});
    ExpectSameAsOracle(single,
                       testing::MakeEdgeCutPartitioning(single, k, {k - 1}));
  }
}

TEST_P(DistributedGraphOracleTest, MastersWithoutIncidentEdges) {
  // Vertex-cut placements whose masters are drawn apart from the edges,
  // so many masters sit on a partition none of their edges went to, and
  // the master's slot lands before, between and after the mirrors.
  const bool directed = GetParam();
  Rng rng(directed ? 11 : 12);
  for (PartitionId k : {3u, 64u}) {
    const Graph g = RandomGraph(rng, 40, directed);
    Partitioning p;
    p.model = CutModel::kVertexCut;
    p.k = k;
    p.edge_to_partition = RandomMap(rng, g.num_edges(), k);
    p.vertex_to_partition = RandomMap(rng, g.num_vertices(), k);
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    ExpectSameAsOracle(g, p);
  }
}

TEST_P(DistributedGraphOracleTest, MatchesFourPassBuildOnRandomPartitionings) {
  const bool directed = GetParam();
  Rng rng(directed ? 505 : 606);
  for (PartitionId k : {1u, 3u, 64u, 257u}) {
    for (int trial = 0; trial < 12; ++trial) {
      const VertexId n = trial % 3 == 0
                             ? 1 + static_cast<VertexId>(rng.UniformInt(8))
                             : 1 + static_cast<VertexId>(rng.UniformInt(600));
      const Graph g = RandomGraph(rng, n, directed);
      SCOPED_TRACE(::testing::Message() << "k=" << k << " trial=" << trial
                                        << " n=" << n);
      // Edge-cut: edges follow a master; vertex-cut: masters follow the
      // edges (most incident edges); hybrid-like: both drawn freely.
      ExpectSameAsOracle(g, testing::MakeEdgeCutPartitioning(
                                g, k, RandomMap(rng, n, k)));
      ExpectSameAsOracle(g, testing::MakeVertexCutPartitioning(
                                g, k, RandomMap(rng, g.num_edges(), k)));
      Partitioning free;
      free.model = CutModel::kHybrid;
      free.k = k;
      free.edge_to_partition = RandomMap(rng, g.num_edges(), k);
      free.vertex_to_partition = RandomMap(rng, n, k);
      ExpectSameAsOracle(g, free);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST_P(DistributedGraphOracleTest, WideKLeavesFewerBitsForVertexBlocks) {
  // A record packs the partition into the bits k needs and the vertex's
  // offset in its block into what is left of 30 bits. At k = 2^22 + 1 the
  // partition takes 23 bits, so a graph of 2^13+ vertices gets blocks of
  // 2^7 vertices instead of 2^(bit_width(n) − 6).
  const bool directed = GetParam();
  Rng rng(directed ? 21 : 22);
  const PartitionId k = (PartitionId{1} << 22) + 1;
  const Graph g = RandomGraph(rng, 9000, directed);
  Partitioning p;
  p.model = CutModel::kHybrid;
  p.k = k;
  p.edge_to_partition = RandomMap(rng, g.num_edges(), k);
  p.vertex_to_partition = RandomMap(rng, g.num_vertices(), k);
  // Some edges and masters on the highest partition ids.
  for (size_t e = 0; e < p.edge_to_partition.size(); e += 7) {
    p.edge_to_partition[e] = k - 1 - static_cast<PartitionId>(e % 3);
  }
  p.vertex_to_partition[0] = k - 1;
  ExpectSameAsOracle(g, p);
}

INSTANTIATE_TEST_SUITE_P(Directedness, DistributedGraphOracleTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "directed" : "undirected";
                         });

}  // namespace
}  // namespace sgp
