#include "partition/vertexcut/hash_vertexcut.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/hashing.h"
#include "common/timer.h"
#include "partition/master_tracker.h"
#include "partition/score_core.h"
#include "partition/state.h"

namespace sgp {

namespace {

// Both entry points run this body; `min_vertices` carries the graph
// path's full vertex space (isolated vertices included), 0 for
// discover-from-stream.
StreamRunResult RunHashVertexCut(EdgeStreamSource& source,
                                 const PartitionConfig& config,
                                 VertexId min_vertices) {
  SGP_CHECK(config.k > 0);
  Timer timer;
  StreamRunResult out;
  out.partitioning.model = CutModel::kVertexCut;
  out.partitioning.k = config.k;
  // O(k) synopsis: capacity weights for the hasher, nothing per edge.
  PartitionState state(config);
  const CapacityAwareHasher hasher(state);
  ScoreCore core(state);
  MasterTracker masters(min_vertices);
  std::vector<PartitionId>& assign = out.partitioning.edge_to_partition;
  std::vector<PartitionId> targets;  // the chunk's, in arrival order
  VertexId max_bound = min_vertices;
  for (auto chunk = source.NextChunk(); !chunk.empty();
       chunk = source.NextChunk()) {
    core.NoteBatch();
    max_bound = std::max(max_bound, MaxEndpoint(chunk) + 1);
    targets.clear();
    for (const StreamEdge& e : chunk) {
      const uint64_t h = HashCombine(HashU64Seeded(e.src, config.seed),
                                     HashU64Seeded(e.dst, config.seed));
      const PartitionId target = hasher.Pick(h);
      AssignById(assign, e.id, target);
      targets.push_back(target);
    }
    masters.NoteChunk(chunk, targets);
    out.num_edges += chunk.size();
  }
  if (!source.ok()) return StreamRunResult::Failed(source.error());
  out.num_vertices = max_bound;
  out.partitioning.vertex_to_partition = masters.Derive(max_bound, config.k);
  state.NoteAuxiliaryBytes(masters.SynopsisBytes());
  out.partitioning.state_bytes = state.SynopsisBytes();
  out.partitioning.partitioning_seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace

Partitioning HashVertexCutPartitioner::Run(
    const Graph& graph, const PartitionConfig& config) const {
  // Neither the edge hash nor the master rule depends on arrival order, so
  // the graph streams in natural order: config.order would only cost a
  // shuffle or a traversal.
  InMemoryEdgeSource source(graph, StreamOrder::kNatural, config.seed,
                            config.ingest_chunk_size);
  StreamRunResult run = RunHashVertexCut(source, config, graph.num_vertices());
  SGP_CHECK(run.ok);
  SGP_CHECK(run.partitioning.edge_to_partition.size() == graph.num_edges());
  return std::move(run.partitioning);
}

StreamRunResult HashVertexCutPartitioner::RunOnSource(
    EdgeStreamSource& source, const PartitionConfig& config) const {
  return RunHashVertexCut(source, config, 0);
}

}  // namespace sgp
