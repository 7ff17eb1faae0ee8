#include "partition/vertexcut/hdrf.h"

#include <algorithm>

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

}  // namespace

Partitioning HdrfPartitioner::Run(const Graph& graph,
                                  const PartitionConfig& config) const {
  SGP_CHECK(config.k > 0);
  Timer timer;

  Partitioning result;
  result.model = CutModel::kVertexCut;
  result.k = config.k;
  result.edge_to_partition.resize(graph.num_edges());

  HdrfMetrics& metrics = HdrfMetrics::Get();
  ScopedTimer assign_timer(metrics.assign_wall);

  PartitionState state(config);
  state.InitDegreeTable(graph.num_vertices());
  state.InitEffectiveLoads();
  state.InitReplicas(graph.num_vertices());
  ScoreCore core(state);

  InMemoryEdgeSource source(graph, config.order, config.seed,
                            config.ingest_chunk_size);
  uint64_t degree_hits = 0;
  for (auto chunk = source.NextChunk(); !chunk.empty();
       chunk = source.NextChunk()) {
    core.PlaceHdrfChunk(chunk, degree_hits,
                        [&](const StreamEdge& edge, PartitionId target) {
                          result.edge_to_partition[edge.id] = target;
                        });
  }
  metrics.edges_assigned->Increment(graph.num_edges());
  metrics.degree_table_hits->Increment(degree_hits);

  result.state_bytes = state.SynopsisBytes();
  DeriveMasterPlacement(graph, &result);
  result.partitioning_seconds = timer.ElapsedSeconds();
  return result;
}

StreamRunResult HdrfPartitioner::RunOnSource(
    EdgeStreamSource& source, const PartitionConfig& config) const {
  SGP_CHECK(config.k > 0);
  Timer timer;
  StreamRunResult out;
  out.partitioning.model = CutModel::kVertexCut;
  out.partitioning.k = config.k;

  HdrfMetrics& metrics = HdrfMetrics::Get();
  ScopedTimer assign_timer(metrics.assign_wall);

  PartitionState state(config);
  state.InitDegreeTable(0);
  state.InitEffectiveLoads();
  state.InitReplicas(0);
  ScoreCore core(state);
  MasterTracker masters;
  std::vector<PartitionId>& assign = out.partitioning.edge_to_partition;
  VertexId max_bound = 0;
  uint64_t degree_hits = 0;
  for (auto chunk = source.NextChunk(); !chunk.empty();
       chunk = source.NextChunk()) {
    // Grow the id space once, to the chunk's largest endpoint, so the
    // scorer's replica rows are stable while it batches the chunk.
    const VertexId hi = MaxEndpoint(chunk);
    state.EnsureVertex(hi);
    max_bound = std::max(max_bound, hi + 1);
    core.PlaceHdrfChunk(chunk, degree_hits,
                        [&](const StreamEdge&, PartitionId target) {
                          assign.push_back(target);
                        });
    masters.NoteChunk(chunk, std::span(assign).last(chunk.size()));
    out.num_edges += chunk.size();
  }
  if (!source.ok()) {
    out.ok = false;
    out.error = source.error();
    return out;
  }
  metrics.edges_assigned->Increment(out.num_edges);
  metrics.degree_table_hits->Increment(degree_hits);

  out.num_vertices = max_bound;
  out.partitioning.vertex_to_partition = masters.Derive(max_bound, config.k);
  state.NoteAuxiliaryBytes(masters.SynopsisBytes());
  out.partitioning.state_bytes = state.SynopsisBytes();
  out.partitioning.partitioning_seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace sgp
