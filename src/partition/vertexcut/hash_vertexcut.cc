#include "partition/vertexcut/hash_vertexcut.h"

#include <algorithm>

#include "common/check.h"
#include "common/hashing.h"
#include "common/timer.h"
#include "partition/master_tracker.h"
#include "partition/score_core.h"
#include "partition/state.h"

namespace sgp {

Partitioning HashVertexCutPartitioner::Run(
    const Graph& graph, const PartitionConfig& config) const {
  SGP_CHECK(config.k > 0);
  Timer timer;
  Partitioning result;
  result.model = CutModel::kVertexCut;
  result.k = config.k;
  result.edge_to_partition.resize(graph.num_edges());
  PartitionState state(config);
  const CapacityAwareHasher hasher(state);
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const Edge& edge = graph.edges()[e];
    uint64_t h = HashCombine(HashU64Seeded(edge.src, config.seed),
                             HashU64Seeded(edge.dst, config.seed));
    result.edge_to_partition[e] = hasher.Pick(h);
  }
  // O(k) synopsis: capacity weights for the hasher, nothing per edge.
  result.state_bytes = state.SynopsisBytes();
  DeriveMasterPlacement(graph, &result);
  result.partitioning_seconds = timer.ElapsedSeconds();
  return result;
}

StreamRunResult HashVertexCutPartitioner::RunOnSource(
    EdgeStreamSource& source, const PartitionConfig& config) const {
  SGP_CHECK(config.k > 0);
  Timer timer;
  StreamRunResult out;
  out.partitioning.model = CutModel::kVertexCut;
  out.partitioning.k = config.k;
  PartitionState state(config);
  const CapacityAwareHasher hasher(state);
  ScoreCore core(state);
  MasterTracker masters;
  std::vector<PartitionId>& assign = out.partitioning.edge_to_partition;
  VertexId max_bound = 0;
  for (auto chunk = source.NextChunk(); !chunk.empty();
       chunk = source.NextChunk()) {
    core.NoteBatch();
    max_bound = std::max(max_bound, MaxEndpoint(chunk) + 1);
    for (const StreamEdge& e : chunk) {
      uint64_t h = HashCombine(HashU64Seeded(e.src, config.seed),
                               HashU64Seeded(e.dst, config.seed));
      assign.push_back(hasher.Pick(h));
    }
    masters.NoteChunk(chunk, std::span(assign).last(chunk.size()));
    out.num_edges += chunk.size();
  }
  if (!source.ok()) {
    out.ok = false;
    out.error = source.error();
    return out;
  }
  out.num_vertices = max_bound;
  out.partitioning.vertex_to_partition = masters.Derive(max_bound, config.k);
  state.NoteAuxiliaryBytes(masters.SynopsisBytes());
  out.partitioning.state_bytes = state.SynopsisBytes();
  out.partitioning.partitioning_seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace sgp
