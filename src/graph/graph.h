#ifndef SGP_GRAPH_GRAPH_H_
#define SGP_GRAPH_GRAPH_H_

#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace sgp {

/// Immutable in-memory graph in compressed sparse row form.
///
/// A Graph stores a canonical edge list (each input edge exactly once, in
/// insertion order — this is the "natural" stream order) plus materialized
/// adjacency:
///   - OutNeighbors / InNeighbors follow edge direction (for directed
///     graphs; for undirected graphs both equal Neighbors),
///   - Neighbors is the undirected, de-duplicated neighborhood N(u) used by
///     the streaming partitioners (LDG, FENNEL, Ginger all place a vertex by
///     |P ∩ N(u)| regardless of direction).
///
/// Vertices are dense ids in [0, num_vertices()); edges are dense ids in
/// [0, num_edges()) indexing into edges().
class Graph {
 public:
  Graph() = default;

  VertexId num_vertices() const { return num_vertices_; }
  EdgeId num_edges() const { return static_cast<EdgeId>(edges_.size()); }
  bool directed() const { return directed_; }

  /// Canonical edge list in insertion order.
  const std::vector<Edge>& edges() const { return edges_; }

  /// Targets of edges leaving `u` (== Neighbors(u) for undirected graphs).
  std::span<const VertexId> OutNeighbors(VertexId u) const;

  /// Sources of edges entering `u` (== Neighbors(u) for undirected graphs).
  std::span<const VertexId> InNeighbors(VertexId u) const;

  /// Undirected, de-duplicated neighborhood N(u).
  std::span<const VertexId> Neighbors(VertexId u) const;

  uint32_t OutDegree(VertexId u) const {
    return static_cast<uint32_t>(OutNeighbors(u).size());
  }
  uint32_t InDegree(VertexId u) const {
    return static_cast<uint32_t>(InNeighbors(u).size());
  }
  /// Undirected degree |N(u)|.
  uint32_t Degree(VertexId u) const {
    return static_cast<uint32_t>(Neighbors(u).size());
  }

  // Implementation details only below here.

  /// Compressed sparse row block; exposed only so that the builder's
  /// internal helpers can construct it.
  struct Csr {
    std::vector<uint64_t> offsets;  // size num_vertices + 1
    std::vector<VertexId> targets;

    std::span<const VertexId> Row(VertexId u) const {
      return {targets.data() + offsets[u],
              targets.data() + offsets[u + 1]};
    }
  };

 private:
  friend class GraphBuilder;

  VertexId num_vertices_ = 0;
  bool directed_ = false;
  std::vector<Edge> edges_;
  Csr und_;  // undirected de-duplicated adjacency
  Csr out_;  // only populated for directed graphs
  Csr in_;   // only populated for directed graphs
};

/// Accumulates edges and produces an immutable Graph.
///
/// Self-loops are dropped and exact duplicate edges (same direction for
/// directed graphs; either direction for undirected graphs) are removed,
/// keeping the first occurrence so that the natural stream order is
/// preserved. Finalize runs in O(n + m) counting-sort passes (DESIGN.md §9)
/// and takes fewer than 2^32 edges.
class GraphBuilder {
 public:
  GraphBuilder(VertexId num_vertices, bool directed);

  /// Adds one edge. Both endpoints must be < num_vertices.
  void AddEdge(VertexId src, VertexId dst);

  /// Number of edges added so far (before de-duplication).
  size_t PendingEdges() const { return edges_.size(); }

  /// Builds the graph. The builder is consumed.
  Graph Finalize() &&;

 private:
  VertexId num_vertices_;
  bool directed_;
  std::vector<Edge> edges_;
};

/// Basic structural statistics (the paper's Table 3 columns).
struct GraphStats {
  VertexId num_vertices = 0;
  EdgeId num_edges = 0;
  double avg_degree = 0;   // undirected average degree
  uint32_t max_degree = 0; // undirected maximum degree
  bool directed = false;
};

/// Computes Table 3 style statistics for `graph`.
GraphStats ComputeStats(const Graph& graph);

}  // namespace sgp

#endif  // SGP_GRAPH_GRAPH_H_
