#include "partition/vertexcut/dbh.h"

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

// Both entry points run this body over the degree table the caller built:
// the graph's de-duplicated |N(u)| on the graph path, stream occurrence
// counts after RunOnSource's pre-pass. The table spans the id space, so
// it also fixes the vertex space of the masters. `timer` started before
// the table was built, so partitioning_seconds covers it.
StreamRunResult RunDbh(EdgeStreamSource& source, const PartitionConfig& config,
                       const std::vector<uint32_t>& degree,
                       const Timer& timer) {
  SGP_CHECK(config.k > 0);
  StreamRunResult out;
  out.partitioning.model = CutModel::kVertexCut;
  out.partitioning.k = config.k;
  PartitionState state(config);
  const CapacityAwareHasher hasher(state);
  ScoreCore core(state);

  const VertexId n = static_cast<VertexId>(degree.size());
  MasterTracker masters(n);
  std::vector<PartitionId>& assign = out.partitioning.edge_to_partition;
  std::vector<PartitionId> targets;  // the chunk's, in arrival order
  for (auto chunk = source.NextChunk(); !chunk.empty();
       chunk = source.NextChunk()) {
    core.NoteBatch();
    targets.clear();
    for (const StreamEdge& e : chunk) {
      const VertexId pivot = degree[e.src] <= degree[e.dst] ? e.src : e.dst;
      const PartitionId target =
          hasher.Pick(HashU64Seeded(pivot, config.seed));
      AssignById(assign, e.id, target);
      targets.push_back(target);
    }
    masters.NoteChunk(chunk, targets);
    out.num_edges += chunk.size();
  }
  if (!source.ok()) return StreamRunResult::Failed(source.error());
  out.num_vertices = n;
  out.partitioning.vertex_to_partition = masters.Derive(n, config.k);
  state.NoteAuxiliaryBytes(masters.SynopsisBytes() +
                           degree.capacity() * sizeof(uint32_t));
  out.partitioning.state_bytes = state.SynopsisBytes();
  out.partitioning.partitioning_seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace

Partitioning DbhPartitioner::Run(const Graph& graph,
                                 const PartitionConfig& config) const {
  Timer timer;
  std::vector<uint32_t> degree(graph.num_vertices());
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    degree[u] = graph.Degree(u);
  }
  // Neither the pivot hash nor the master rule depends on arrival order,
  // so the graph streams in natural order: config.order would only cost a
  // shuffle or a traversal.
  InMemoryEdgeSource source(graph, StreamOrder::kNatural, config.seed,
                            config.ingest_chunk_size);
  StreamRunResult run = RunDbh(source, config, degree, timer);
  SGP_CHECK(run.ok);
  SGP_CHECK(run.partitioning.edge_to_partition.size() == graph.num_edges());
  return std::move(run.partitioning);
}

StreamRunResult DbhPartitioner::RunOnSource(EdgeStreamSource& source,
                                            const PartitionConfig& config) const {
  SGP_CHECK(config.k > 0);
  Timer timer;
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
  if (!source.ok()) return StreamRunResult::Failed(source.error());
  if (!source.SupportsRewind()) {
    return StreamRunResult::Failed(
        "DBH requires a rewindable source (degree pre-pass)");
  }
  source.Rewind();
  return RunDbh(source, config, stream_degree, timer);
}

}  // namespace sgp
