// Randomized oracle tests for GraphBuilder:
//   - its de-duplication and adjacency semantics against a naive
//     std::set-based reference;
//   - its exact output (edges() order and every Neighbors / OutNeighbors /
//     InNeighbors row) against the comparison-sort Finalize it replaced,
//     kept here as the oracle.
#include <algorithm>
#include <numeric>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>
#include "common/random.h"
#include "graph/graph.h"

namespace sgp {
namespace {

struct ReferenceGraph {
  std::set<std::pair<VertexId, VertexId>> edges;  // canonical form
  std::vector<std::set<VertexId>> neighbors;

  ReferenceGraph(VertexId n) : neighbors(n) {}

  void Add(VertexId u, VertexId v, bool directed) {
    if (u == v) return;
    auto key = directed || u <= v ? std::make_pair(u, v)
                                  : std::make_pair(v, u);
    edges.insert(key);
    neighbors[u].insert(v);
    neighbors[v].insert(u);
  }
};

class BuilderOracleTest : public ::testing::TestWithParam<bool> {};

TEST_P(BuilderOracleTest, MatchesNaiveReferenceOnRandomSequences) {
  const bool directed = GetParam();
  Rng rng(directed ? 101 : 202);
  for (int trial = 0; trial < 20; ++trial) {
    const VertexId n = 2 + static_cast<VertexId>(rng.UniformInt(30));
    const int ops = static_cast<int>(rng.UniformInt(200));
    GraphBuilder builder(n, directed);
    ReferenceGraph ref(n);
    for (int i = 0; i < ops; ++i) {
      VertexId u = static_cast<VertexId>(rng.UniformInt(n));
      VertexId v = static_cast<VertexId>(rng.UniformInt(n));
      builder.AddEdge(u, v);
      ref.Add(u, v, directed);
    }
    Graph g = std::move(builder).Finalize();

    // Edge multiset matches (count + canonical membership).
    ASSERT_EQ(g.num_edges(), ref.edges.size()) << "trial " << trial;
    for (const Edge& e : g.edges()) {
      auto key = directed || e.src <= e.dst
                     ? std::make_pair(e.src, e.dst)
                     : std::make_pair(e.dst, e.src);
      ASSERT_TRUE(ref.edges.count(key)) << "trial " << trial;
    }
    // Undirected neighborhoods match exactly.
    for (VertexId u = 0; u < n; ++u) {
      auto nb = g.Neighbors(u);
      ASSERT_EQ(nb.size(), ref.neighbors[u].size())
          << "trial " << trial << " u=" << u;
      ASSERT_TRUE(std::equal(nb.begin(), nb.end(),
                             ref.neighbors[u].begin()));
    }
    // Directed graphs: out/in degree sums both equal the edge count.
    if (directed) {
      uint64_t out_sum = 0;
      uint64_t in_sum = 0;
      for (VertexId u = 0; u < n; ++u) {
        out_sum += g.OutDegree(u);
        in_sum += g.InDegree(u);
      }
      ASSERT_EQ(out_sum, g.num_edges());
      ASSERT_EQ(in_sum, g.num_edges());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Directedness, BuilderOracleTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "directed" : "undirected";
                         });

// ---------------------------------------------------------------------------
// The comparison-sort Finalize: an index sort by canonical pair then edge id
// keeps each pair's first occurrence, and the undirected rows are sorted and
// de-duplicated one std::sort per row.

struct OracleGraph {
  std::vector<Edge> edges;
  Graph::Csr und;
  Graph::Csr out;  // only populated for directed graphs
  Graph::Csr in;   // only populated for directed graphs
};

template <typename EmitFn>
Graph::Csr OracleCsr(VertexId n, EmitFn&& emit) {
  Graph::Csr csr;
  csr.offsets.assign(static_cast<size_t>(n) + 1, 0);
  emit([&](VertexId src, VertexId) { ++csr.offsets[src + 1]; });
  for (size_t i = 1; i <= n; ++i) csr.offsets[i] += csr.offsets[i - 1];
  csr.targets.resize(csr.offsets[n]);
  std::vector<uint64_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  emit([&](VertexId src, VertexId dst) { csr.targets[cursor[src]++] = dst; });
  return csr;
}

void SortAndDedupeRows(VertexId n, Graph::Csr& csr) {
  std::vector<VertexId> compact;
  compact.reserve(csr.targets.size());
  std::vector<uint64_t> new_offsets(static_cast<size_t>(n) + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    auto begin = csr.targets.begin() + static_cast<int64_t>(csr.offsets[u]);
    auto end = csr.targets.begin() + static_cast<int64_t>(csr.offsets[u + 1]);
    std::sort(begin, end);
    auto last = std::unique(begin, end);
    compact.insert(compact.end(), begin, last);
    new_offsets[u + 1] = compact.size();
  }
  csr.offsets = std::move(new_offsets);
  csr.targets = std::move(compact);
}

// `added` is every AddEdge call in order; self-loops are dropped here, as
// GraphBuilder::AddEdge drops them.
OracleGraph OracleFinalize(VertexId n, bool directed,
                           const std::vector<Edge>& added) {
  std::vector<Edge> edges;
  for (const Edge& e : added) {
    if (e.src != e.dst) edges.push_back(e);
  }
  auto canonical = [directed](const Edge& e) -> Edge {
    if (directed || e.src <= e.dst) return e;
    return {e.dst, e.src};
  };
  std::vector<uint32_t> order(edges.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    Edge ea = canonical(edges[a]);
    Edge eb = canonical(edges[b]);
    if (ea.src != eb.src) return ea.src < eb.src;
    if (ea.dst != eb.dst) return ea.dst < eb.dst;
    return a < b;
  });
  std::vector<bool> keep(edges.size(), true);
  for (size_t i = 1; i < order.size(); ++i) {
    if (canonical(edges[order[i]]) == canonical(edges[order[i - 1]])) {
      keep[order[i]] = false;
    }
  }

  OracleGraph g;
  for (size_t i = 0; i < edges.size(); ++i) {
    if (keep[i]) g.edges.push_back(edges[i]);
  }
  g.und = OracleCsr(n, [&](auto&& cb) {
    for (const Edge& e : g.edges) {
      cb(e.src, e.dst);
      cb(e.dst, e.src);
    }
  });
  SortAndDedupeRows(n, g.und);
  if (directed) {
    g.out = OracleCsr(n, [&](auto&& cb) {
      for (const Edge& e : g.edges) cb(e.src, e.dst);
    });
    g.in = OracleCsr(n, [&](auto&& cb) {
      for (const Edge& e : g.edges) cb(e.dst, e.src);
    });
  }
  return g;
}

std::vector<VertexId> Row(std::span<const VertexId> row) {
  return {row.begin(), row.end()};
}

void ExpectSameAsOracle(VertexId n, bool directed,
                        const std::vector<Edge>& added) {
  GraphBuilder builder(n, directed);
  for (const Edge& e : added) builder.AddEdge(e.src, e.dst);
  const Graph g = std::move(builder).Finalize();
  const OracleGraph want = OracleFinalize(n, directed, added);

  ASSERT_EQ(g.num_vertices(), n);
  ASSERT_EQ(g.directed(), directed);
  ASSERT_EQ(g.edges(), want.edges);
  for (VertexId u = 0; u < n; ++u) {
    const std::vector<VertexId> und = Row(want.und.Row(u));
    ASSERT_EQ(Row(g.Neighbors(u)), und) << "u=" << u;
    ASSERT_EQ(Row(g.OutNeighbors(u)), directed ? Row(want.out.Row(u)) : und)
        << "u=" << u;
    ASSERT_EQ(Row(g.InNeighbors(u)), directed ? Row(want.in.Row(u)) : und)
        << "u=" << u;
  }
}

class ExactBuilderOracleTest : public ::testing::TestWithParam<bool> {};

TEST_P(ExactBuilderOracleTest, EmptyAndSingleVertexGraphs) {
  const bool directed = GetParam();
  ExpectSameAsOracle(0, directed, {});
  ExpectSameAsOracle(1, directed, {});
  ExpectSameAsOracle(1, directed, {{0, 0}, {0, 0}});
  ExpectSameAsOracle(2, directed, {});
}

TEST_P(ExactBuilderOracleTest, ReversedDuplicatesAndSelfLoops) {
  const bool directed = GetParam();
  ExpectSameAsOracle(4, directed,
                     {{1, 0}, {0, 1}, {1, 0}, {2, 2}, {3, 1}, {1, 3},
                      {0, 1}, {3, 3}, {2, 0}, {0, 2}, {1, 3}, {2, 0}});
  // Isolated vertices at both ends of the id range and between edges.
  ExpectSameAsOracle(9, directed, {{5, 3}, {3, 5}, {5, 3}, {3, 3}, {7, 3}});
}

// Random sequences over n up to a few thousand. Small id ranges and
// repeated replays of earlier edges, either way round, make heavy
// duplication; a share of self-loops rides along.
TEST_P(ExactBuilderOracleTest, MatchesComparisonSortOnRandomSequences) {
  const bool directed = GetParam();
  Rng rng(directed ? 303 : 404);
  for (int trial = 0; trial < 60; ++trial) {
    const VertexId n = trial % 3 == 0
                           ? 1 + static_cast<VertexId>(rng.UniformInt(8))
                           : 1 + static_cast<VertexId>(rng.UniformInt(4000));
    const size_t ops = rng.UniformInt(4 * static_cast<uint64_t>(n) + 64);
    // Most draws touch only a prefix of the ids, so the rest stay isolated.
    const VertexId range =
        1 + static_cast<VertexId>(rng.UniformInt(static_cast<uint64_t>(n)));
    std::vector<Edge> added;
    for (size_t i = 0; i < ops; ++i) {
      const uint64_t kind = rng.UniformInt(10);
      if (kind < 3 && !added.empty()) {
        Edge e = added[rng.UniformInt(added.size())];
        if (kind == 0) std::swap(e.src, e.dst);
        added.push_back(e);
      } else if (kind == 3) {
        const VertexId u = static_cast<VertexId>(rng.UniformInt(n));
        added.push_back({u, u});
      } else {
        added.push_back({static_cast<VertexId>(rng.UniformInt(range)),
                         static_cast<VertexId>(rng.UniformInt(range))});
      }
    }
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " n=" << n
                                      << " ops=" << ops);
    ExpectSameAsOracle(n, directed, added);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Directedness, ExactBuilderOracleTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "directed" : "undirected";
                         });

}  // namespace
}  // namespace sgp
