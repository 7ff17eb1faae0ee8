#include "partition/vertexcut/hdrf.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "partition/master_tracker.h"
#include "partition/score_core.h"
#include "partition/state.h"
#include "stream/source.h"

namespace sgp {

namespace {

// Decision counters of the HDRF scoring loop, accumulated in locals and
// flushed once per Run (no atomics on the per-edge path).
struct HdrfMetrics {
  Counter* edges_assigned = nullptr;
  Counter* degree_table_hits = nullptr;
  Histogram* assign_wall = nullptr;

  HdrfMetrics() = default;
  explicit HdrfMetrics(MetricsRegistry& reg) {
    edges_assigned = reg.GetCounter("partition.hdrf.edges.assigned");
    degree_table_hits = reg.GetCounter("partition.hdrf.degree_table.hits");
    assign_wall = reg.GetHistogram("partition.hdrf.assign.wall_seconds",
                                   MetricOptions::WallClock());
  }

  static HdrfMetrics& Get() { return CurrentRegistryMetrics<HdrfMetrics>(); }
};

// Both entry points run this body; `min_vertices` carries the graph
// path's full vertex space (isolated vertices included), 0 for
// discover-from-stream.
StreamRunResult RunHdrf(EdgeStreamSource& source, const PartitionConfig& config,
                        VertexId min_vertices) {
  SGP_CHECK(config.k > 0);
  Timer timer;
  StreamRunResult out;
  out.partitioning.model = CutModel::kVertexCut;
  out.partitioning.k = config.k;

  HdrfMetrics& metrics = HdrfMetrics::Get();
  ScopedTimer assign_timer(metrics.assign_wall);

  PartitionState state(config);
  state.InitDegreeTable(min_vertices);
  state.InitEffectiveLoads();
  state.InitReplicas(min_vertices);
  ScoreCore core(state);
  MasterTracker masters(min_vertices);
  std::vector<PartitionId>& assign = out.partitioning.edge_to_partition;
  std::vector<PartitionId> targets;  // the chunk's, in arrival order
  VertexId max_bound = min_vertices;
  uint64_t degree_hits = 0;
  for (auto chunk = source.NextChunk(); !chunk.empty();
       chunk = source.NextChunk()) {
    // Grow the id space once, to the chunk's largest endpoint, so the
    // scorer's replica rows are stable while it batches the chunk.
    const VertexId hi = MaxEndpoint(chunk);
    state.EnsureVertex(hi);
    max_bound = std::max(max_bound, hi + 1);
    targets.clear();
    core.PlaceHdrfChunk(chunk, degree_hits,
                        [&](const StreamEdge& e, PartitionId target) {
                          AssignById(assign, e.id, target);
                          targets.push_back(target);
                        });
    masters.NoteChunk(chunk, targets);
    out.num_edges += chunk.size();
  }
  if (!source.ok()) return StreamRunResult::Failed(source.error());
  metrics.edges_assigned->Increment(out.num_edges);
  metrics.degree_table_hits->Increment(degree_hits);

  out.num_vertices = max_bound;
  out.partitioning.vertex_to_partition = masters.Derive(max_bound, config.k);
  state.NoteAuxiliaryBytes(masters.SynopsisBytes());
  out.partitioning.state_bytes = state.SynopsisBytes();
  out.partitioning.partitioning_seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace

Partitioning HdrfPartitioner::Run(const Graph& graph,
                                  const PartitionConfig& config) const {
  InMemoryEdgeSource source(graph, config.order, config.seed,
                            config.ingest_chunk_size);
  StreamRunResult run = RunHdrf(source, config, graph.num_vertices());
  SGP_CHECK(run.ok);
  SGP_CHECK(run.partitioning.edge_to_partition.size() == graph.num_edges());
  return std::move(run.partitioning);
}

StreamRunResult HdrfPartitioner::RunOnSource(
    EdgeStreamSource& source, const PartitionConfig& config) const {
  return RunHdrf(source, config, 0);
}

}  // namespace sgp
