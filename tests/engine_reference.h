#ifndef SGP_TESTS_ENGINE_REFERENCE_H_
#define SGP_TESTS_ENGINE_REFERENCE_H_

// Single-machine reference implementations of the three workloads, used
// by tests to validate the invariant that engine results are independent
// of partitioning. The traversals run BFS over a cursor-indexed vector
// frontier (each vertex enqueues at most once), so every reference is
// O(n + m) with no per-step allocation.

#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "graph/graph.h"

namespace sgp {

/// Synchronous (Jacobi) PageRank; matches the engine's update rule
/// value = (1 − d) + d · Σ value(u)/outdeg(u) exactly.
inline std::vector<double> ReferencePageRank(const Graph& graph,
                                             uint32_t iterations = 20,
                                             double damping = 0.85) {
  const VertexId n = graph.num_vertices();
  std::vector<double> values(n, 1.0);
  std::vector<double> next(n);
  for (uint32_t iter = 0; iter < iterations; ++iter) {
    for (VertexId v = 0; v < n; ++v) {
      double sum = 0;
      for (VertexId u : graph.InNeighbors(v)) {
        sum += values[u] / static_cast<double>(graph.OutDegree(u));
      }
      next[v] = (1.0 - damping) + damping * sum;
    }
    values.swap(next);
  }
  return values;
}

/// Weakly connected component label of each vertex: the minimum vertex id
/// reachable when ignoring edge direction.
inline std::vector<double> ReferenceWcc(const Graph& graph) {
  const VertexId n = graph.num_vertices();
  std::vector<double> label(n, -1.0);
  // FIFO queue as a vector with a read cursor: every vertex enters at
  // most once, so the backing array never exceeds n and never reallocates.
  std::vector<VertexId> queue;
  queue.reserve(n);
  for (VertexId root = 0; root < n; ++root) {
    if (label[root] >= 0) continue;
    // `root` is the smallest unvisited id, hence the component minimum.
    label[root] = static_cast<double>(root);
    queue.clear();
    queue.push_back(root);
    for (size_t head = 0; head < queue.size(); ++head) {
      VertexId u = queue[head];
      for (VertexId v : graph.Neighbors(u)) {
        if (label[v] < 0) {
          label[v] = static_cast<double>(root);
          queue.push_back(v);
        }
      }
    }
  }
  return label;
}

/// Unweighted shortest-path distance from `source` along out-edges;
/// +infinity for unreachable vertices.
inline std::vector<double> ReferenceSssp(const Graph& graph,
                                         VertexId source) {
  SGP_CHECK(source < graph.num_vertices());
  const VertexId n = graph.num_vertices();
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  dist[source] = 0;
  std::vector<VertexId> queue{source};
  queue.reserve(n);
  for (size_t head = 0; head < queue.size(); ++head) {
    VertexId u = queue[head];
    for (VertexId v : graph.OutNeighbors(u)) {
      if (dist[v] == std::numeric_limits<double>::infinity()) {
        dist[v] = dist[u] + 1.0;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

}  // namespace sgp

#endif  // SGP_TESTS_ENGINE_REFERENCE_H_
