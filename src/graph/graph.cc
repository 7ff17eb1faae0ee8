#include "graph/graph.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace sgp {

std::span<const VertexId> Graph::OutNeighbors(VertexId u) const {
  SGP_DCHECK(u < num_vertices_);
  return directed_ ? out_.Row(u) : und_.Row(u);
}

std::span<const VertexId> Graph::InNeighbors(VertexId u) const {
  SGP_DCHECK(u < num_vertices_);
  return directed_ ? in_.Row(u) : und_.Row(u);
}

std::span<const VertexId> Graph::Neighbors(VertexId u) const {
  SGP_DCHECK(u < num_vertices_);
  return und_.Row(u);
}

GraphBuilder::GraphBuilder(VertexId num_vertices, bool directed)
    : num_vertices_(num_vertices), directed_(directed) {}

void GraphBuilder::AddEdge(VertexId src, VertexId dst) {
  SGP_CHECK(src < num_vertices_ && dst < num_vertices_);
  if (src == dst) return;  // self-loops carry no partitioning signal
  edges_.push_back({src, dst});
}

namespace {

// Builds a CSR from (source, target) pairs produced by `emit`, which calls
// its callback once per directed arc. Rows keep emission order.
template <typename EmitFn>
Graph::Csr BuildCsr(VertexId n, EmitFn&& emit) {
  Graph::Csr csr;
  csr.offsets.assign(static_cast<size_t>(n) + 1, 0);
  emit([&](VertexId src, VertexId) { ++csr.offsets[src + 1]; });
  for (size_t i = 1; i <= n; ++i) csr.offsets[i] += csr.offsets[i - 1];
  csr.targets.resize(csr.offsets[n]);
  std::vector<uint64_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  emit([&](VertexId src, VertexId dst) { csr.targets[cursor[src]++] = dst; });
  return csr;
}

// Removes every edge whose canonical pair (the ordered pair if `directed`,
// else the unordered one) already occurred earlier in `edges`; the rest
// keep their order. Edge ids are bucketed stably by the pair's low
// endpoint, so within a bucket they ascend, and `seen[high]` holds the
// last bucket that met `high`: a repeat is any id after the first.
void KeepFirstOccurrences(VertexId n, bool directed, std::vector<Edge>& edges) {
  const size_t m = edges.size();
  SGP_CHECK(m <= std::numeric_limits<uint32_t>::max());
  auto low = [directed](const Edge& e) {
    return directed ? e.src : std::min(e.src, e.dst);
  };
  auto high = [directed](const Edge& e) {
    return directed ? e.dst : std::max(e.src, e.dst);
  };
  // After the placement pass, bucket b spans [end[b - 1], end[b]).
  std::vector<uint32_t> end(static_cast<size_t>(n) + 1, 0);
  for (const Edge& e : edges) ++end[low(e) + 1];
  for (size_t i = 1; i <= n; ++i) end[i] += end[i - 1];
  std::vector<uint32_t> ids(m);
  for (uint32_t id = 0; id < m; ++id) ids[end[low(edges[id])]++] = id;

  std::vector<bool> repeat(m, false);
  std::vector<VertexId> seen(n, kInvalidVertex);
  uint32_t i = 0;
  for (VertexId b = 0; b < n; ++b) {
    for (; i < end[b]; ++i) {
      const VertexId h = high(edges[ids[i]]);
      if (seen[h] == b) {
        repeat[ids[i]] = true;
      } else {
        seen[h] = b;
      }
    }
  }
  size_t kept = 0;
  for (size_t id = 0; id < m; ++id) {
    if (!repeat[id]) edges[kept++] = edges[id];
  }
  edges.resize(kept);
}

// Undirected adjacency of `edges`: both directions of every edge, each row
// ascending without repeats. Arcs are bucketed by source, then re-bucketed
// under their target while the sources are walked in ascending order. The
// arc multiset is symmetric, so the second pass fills the same row sizes
// and lists every row ascending; repeats (u→v next to v→u in a directed
// graph) are then adjacent.
Graph::Csr BuildUndirected(VertexId n, const std::vector<Edge>& edges) {
  Graph::Csr csr;
  csr.offsets.assign(static_cast<size_t>(n) + 1, 0);
  for (const Edge& e : edges) {
    ++csr.offsets[e.src + 1];
    ++csr.offsets[e.dst + 1];
  }
  for (size_t i = 1; i <= n; ++i) csr.offsets[i] += csr.offsets[i - 1];

  std::vector<uint64_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  std::vector<VertexId> by_source(csr.offsets[n]);
  for (const Edge& e : edges) {
    by_source[cursor[e.src]++] = e.dst;
    by_source[cursor[e.dst]++] = e.src;
  }
  std::copy(csr.offsets.begin(), csr.offsets.end() - 1, cursor.begin());
  csr.targets.resize(csr.offsets[n]);
  for (VertexId u = 0; u < n; ++u) {
    for (uint64_t i = csr.offsets[u]; i < csr.offsets[u + 1]; ++i) {
      csr.targets[cursor[by_source[i]]++] = u;
    }
  }
  by_source = {};

  uint64_t read = 0;
  uint64_t write = 0;
  for (VertexId u = 0; u < n; ++u) {
    const uint64_t row = write;
    for (const uint64_t end = csr.offsets[u + 1]; read < end; ++read) {
      const VertexId v = csr.targets[read];
      if (write == row || csr.targets[write - 1] != v) {
        csr.targets[write++] = v;
      }
    }
    csr.offsets[u + 1] = write;
  }
  csr.targets.resize(write);
  return csr;
}

}  // namespace

Graph GraphBuilder::Finalize() && {
  Graph g;
  g.num_vertices_ = num_vertices_;
  g.directed_ = directed_;
  g.edges_ = std::move(edges_);
  edges_.clear();

  const VertexId n = num_vertices_;
  KeepFirstOccurrences(n, directed_, g.edges_);
  g.edges_.shrink_to_fit();
  g.und_ = BuildUndirected(n, g.edges_);
  if (directed_) {
    g.out_ = BuildCsr(n, [&](auto&& cb) {
      for (const Edge& e : g.edges_) cb(e.src, e.dst);
    });
    g.in_ = BuildCsr(n, [&](auto&& cb) {
      for (const Edge& e : g.edges_) cb(e.dst, e.src);
    });
  }
  return g;
}

GraphStats ComputeStats(const Graph& graph) {
  GraphStats s;
  s.num_vertices = graph.num_vertices();
  s.num_edges = graph.num_edges();
  s.directed = graph.directed();
  uint64_t total = 0;
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    uint32_t d = graph.Degree(u);
    total += d;
    s.max_degree = std::max(s.max_degree, d);
  }
  s.avg_degree = graph.num_vertices() == 0
                     ? 0
                     : static_cast<double>(total) /
                           static_cast<double>(graph.num_vertices());
  return s;
}

}  // namespace sgp
