#ifndef SGP_TESTS_TEST_UTIL_H_
#define SGP_TESTS_TEST_UTIL_H_

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "partition/partitioning.h"

namespace sgp::testing {

/// Builds a graph from an explicit edge list.
inline Graph MakeGraph(VertexId n, bool directed,
                       std::initializer_list<std::pair<VertexId, VertexId>>
                           edges) {
  GraphBuilder b(n, directed);
  for (const auto& [u, v] : edges) b.AddEdge(u, v);
  return std::move(b).Finalize();
}

/// Undirected path 0-1-2-...-(n-1).
inline Graph MakePath(VertexId n) {
  GraphBuilder b(n, /*directed=*/false);
  for (VertexId u = 0; u + 1 < n; ++u) b.AddEdge(u, u + 1);
  return std::move(b).Finalize();
}

/// Undirected cycle of n vertices.
inline Graph MakeCycle(VertexId n) {
  GraphBuilder b(n, /*directed=*/false);
  for (VertexId u = 0; u < n; ++u) b.AddEdge(u, (u + 1) % n);
  return std::move(b).Finalize();
}

/// Undirected star: center 0 connected to 1..n-1.
inline Graph MakeStar(VertexId n) {
  GraphBuilder b(n, /*directed=*/false);
  for (VertexId u = 1; u < n; ++u) b.AddEdge(0, u);
  return std::move(b).Finalize();
}

/// The directed 6-vertex example of Figure 10 (Appendix B):
/// edges 1→3, 1→4, 1→6, 2→5, 2→1, 6→4, 6→2(5?)... — we use the paper's
/// visible arcs: {3,6} on P1; {1,4} on P2; {2,5} on P3 with cross arcs.
/// Vertex ids are shifted down by one (0-based).
inline Graph MakeFigure10Graph() {
  // Arcs chosen to exercise masters with multiple gather and scatter
  // mirrors: 0→2, 0→3, 0→5, 1→4, 1→0, 5→3, 5→1, 2→5, 4→2.
  return MakeGraph(6, /*directed=*/true,
                   {{0, 2}, {0, 3}, {0, 5}, {1, 4}, {1, 0},
                    {5, 3}, {5, 1}, {2, 5}, {4, 2}});
}

/// Builds an edge-cut partitioning directly from a vertex→partition map.
inline Partitioning MakeEdgeCutPartitioning(
    const Graph& graph, PartitionId k, std::vector<PartitionId> vertex_map) {
  Partitioning p;
  p.model = CutModel::kEdgeCut;
  p.k = k;
  p.vertex_to_partition = std::move(vertex_map);
  DeriveEdgePlacement(graph, &p);
  return p;
}

/// Builds a vertex-cut partitioning directly from an edge→partition map.
inline Partitioning MakeVertexCutPartitioning(
    const Graph& graph, PartitionId k, std::vector<PartitionId> edge_map) {
  Partitioning p;
  p.model = CutModel::kVertexCut;
  p.k = k;
  p.edge_to_partition = std::move(edge_map);
  DeriveMasterPlacement(graph, &p);
  return p;
}

/// FNV-1a over the vertex then the edge placement — the fingerprint
/// examples/partition_checksum prints — as 16 hex digits.
inline std::string FingerprintHex(const Partitioning& p) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto* v : {&p.vertex_to_partition, &p.edge_to_partition}) {
    for (PartitionId x : *v) {
      h ^= static_cast<uint64_t>(x) + 1;
      h *= 0x100000001b3ULL;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

/// Pinned fingerprint of a scoring-equivalence cell, or "<unpinned>".
/// The pins (tests/golden/score_fingerprints.txt, one "<cell key> <hex>"
/// line per cell) were recorded while the scalar, batched and SIMD score
/// paths still ran side by side and agreed on every cell.
inline std::string PinnedFingerprint(const std::string& cell) {
  static const auto* pins = [] {
    auto* m = new std::map<std::string, std::string>();
    std::ifstream in(SGP_GOLDEN_DIR "/score_fingerprints.txt");
    for (std::string line; std::getline(in, line);) {
      const size_t cut = line.rfind(' ');
      if (cut != std::string::npos) {
        (*m)[line.substr(0, cut)] = line.substr(cut + 1);
      }
    }
    return m;
  }();
  const auto it = pins->find(cell);
  return it == pins->end() ? "<unpinned>" : it->second;
}

}  // namespace sgp::testing

#endif  // SGP_TESTS_TEST_UTIL_H_
