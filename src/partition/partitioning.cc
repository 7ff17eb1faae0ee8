#include "partition/partitioning.h"

#include <algorithm>
#include <span>
#include <vector>

#include "common/check.h"
#include "partition/master_tracker.h"

namespace sgp {

std::string_view CutModelName(CutModel model) {
  switch (model) {
    case CutModel::kEdgeCut:
      return "edge-cut";
    case CutModel::kVertexCut:
      return "vertex-cut";
    case CutModel::kHybrid:
      return "hybrid-cut";
  }
  return "unknown";
}

void DeriveEdgePlacement(const Graph& graph, Partitioning* p) {
  SGP_CHECK(p->vertex_to_partition.size() == graph.num_vertices());
  p->edge_to_partition.resize(graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    p->edge_to_partition[e] = p->vertex_to_partition[graph.edges()[e].src];
  }
}

void DeriveMasterPlacement(const Graph& graph, Partitioning* p) {
  SGP_CHECK(p->edge_to_partition.size() == graph.num_edges());
  // The stream codes' tally, fed the graph's edges one queue buffer at a
  // time; the copy is the only per-edge work on this thread.
  const EdgeId m = graph.num_edges();
  MasterTracker masters(graph.num_vertices());
  std::vector<StreamEdge> block;
  for (EdgeId begin = 0; begin < m; begin += MasterTracker::kBufferNotes) {
    const EdgeId len = std::min<EdgeId>(MasterTracker::kBufferNotes, m - begin);
    block.resize(len);
    for (EdgeId i = 0; i < len; ++i) {
      const Edge& edge = graph.edges()[begin + i];
      block[i] = StreamEdge{begin + i, edge.src, edge.dst};
    }
    masters.NoteChunk(block,
                      std::span(p->edge_to_partition).subspan(begin, len));
  }
  p->vertex_to_partition = masters.Derive(graph.num_vertices(), p->k);
}

ReplicaSets ComputeReplicaSets(const Graph& graph, const Partitioning& p) {
  SGP_CHECK(p.vertex_to_partition.size() == graph.num_vertices());
  SGP_CHECK(p.edge_to_partition.size() == graph.num_edges());
  const VertexId n = graph.num_vertices();
  std::vector<std::vector<PartitionId>> sets(n);
  for (VertexId u = 0; u < n; ++u) {
    sets[u].push_back(p.vertex_to_partition[u]);
  }
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    PartitionId part = p.edge_to_partition[e];
    sets[graph.edges()[e].src].push_back(part);
    sets[graph.edges()[e].dst].push_back(part);
  }
  ReplicaSets out;
  out.offsets.assign(static_cast<size_t>(n) + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    auto& s = sets[u];
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    out.offsets[u + 1] = out.offsets[u] + static_cast<uint32_t>(s.size());
  }
  out.partitions.reserve(out.offsets[n]);
  for (VertexId u = 0; u < n; ++u) {
    out.partitions.insert(out.partitions.end(), sets[u].begin(),
                          sets[u].end());
  }
  return out;
}

}  // namespace sgp
