#include "partition/vertexcut/dbh.h"

#include <algorithm>

#include "common/check.h"
#include "common/hashing.h"
#include "common/timer.h"
#include "partition/master_tracker.h"
#include "partition/score_core.h"
#include "partition/state.h"

namespace sgp {

Partitioning DbhPartitioner::Run(const Graph& graph,
                                 const PartitionConfig& config) const {
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
    VertexId pivot = graph.Degree(edge.src) <= graph.Degree(edge.dst)
                         ? edge.src
                         : edge.dst;
    result.edge_to_partition[e] =
        hasher.Pick(HashU64Seeded(pivot, config.seed));
  }
  // O(k) synopsis: capacity weights for the hasher, nothing per edge.
  result.state_bytes = state.SynopsisBytes();
  DeriveMasterPlacement(graph, &result);
  result.partitioning_seconds = timer.ElapsedSeconds();
  return result;
}

StreamRunResult DbhPartitioner::RunOnSource(EdgeStreamSource& source,
                                            const PartitionConfig& config) const {
  SGP_CHECK(config.k > 0);
  Timer timer;
  StreamRunResult out;
  out.partitioning.model = CutModel::kVertexCut;
  out.partitioning.k = config.k;
  PartitionState state(config);
  const CapacityAwareHasher hasher(state);
  ScoreCore core(state);

  // Degree pre-pass: stream occurrence counts stand in for degrees (equal
  // to graph degrees on duplicate-free undirected inputs).
  std::vector<uint32_t> stream_degree;
  ForEachStreamItem(source, [&](const StreamEdge& e) {
    const VertexId hi = std::max(e.src, e.dst);
    if (hi >= stream_degree.size()) {
      stream_degree.resize(static_cast<size_t>(hi) + 1, 0);
    }
    ++stream_degree[e.src];
    ++stream_degree[e.dst];
  });
  if (!source.ok()) {
    out.ok = false;
    out.error = source.error();
    return out;
  }
  if (!source.SupportsRewind()) {
    out.ok = false;
    out.error = "DBH requires a rewindable source (degree pre-pass)";
    return out;
  }
  source.Rewind();

  // The pre-pass saw every id: the degree table spans the id space.
  const VertexId max_bound = static_cast<VertexId>(stream_degree.size());
  MasterTracker masters(max_bound);
  for (auto chunk = source.NextChunk(); !chunk.empty();
       chunk = source.NextChunk()) {
    core.NoteBatch();
    for (const StreamEdge& e : chunk) {
      VertexId pivot =
          stream_degree[e.src] <= stream_degree[e.dst] ? e.src : e.dst;
      const PartitionId target = hasher.Pick(HashU64Seeded(pivot, config.seed));
      out.partitioning.edge_to_partition.push_back(target);
      masters.Note(e.src, target);
      masters.Note(e.dst, target);
      ++out.num_edges;
    }
  }
  if (!source.ok()) {
    out.ok = false;
    out.error = source.error();
    return out;
  }
  out.num_vertices = max_bound;
  out.partitioning.vertex_to_partition = masters.Derive(max_bound, config.k);
  state.NoteAuxiliaryBytes(masters.SynopsisBytes() +
                           stream_degree.capacity() * sizeof(uint32_t));
  out.partitioning.state_bytes = state.SynopsisBytes();
  out.partitioning.partitioning_seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace sgp
