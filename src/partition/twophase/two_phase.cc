#include "partition/twophase/two_phase.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "partition/master_tracker.h"
#include "partition/score_core.h"
#include "partition/state.h"
#include "partition/twophase/cluster_score.h"
#include "partition/twophase/clustering.h"

namespace sgp {

namespace {

// Clustering-pass and placement-pass counters, accumulated in locals and
// flushed once per run (partition.cluster.*, docs/OBSERVABILITY.md).
struct TwoPhaseMetrics {
  Counter* clusters = nullptr;
  Counter* moves = nullptr;
  Counter* pass1_edges = nullptr;
  Counter* volume_cap = nullptr;
  Counter* edges_assigned = nullptr;
  Histogram* pass1_wall = nullptr;
  Histogram* pass2_wall = nullptr;

  TwoPhaseMetrics() = default;
  explicit TwoPhaseMetrics(MetricsRegistry& reg) {
    clusters = reg.GetCounter("partition.cluster.clusters");
    moves = reg.GetCounter("partition.cluster.moves");
    pass1_edges = reg.GetCounter("partition.cluster.pass1.edges");
    volume_cap = reg.GetCounter("partition.cluster.volume_cap");
    edges_assigned = reg.GetCounter("partition.cluster.edges.assigned");
    pass1_wall = reg.GetHistogram("partition.cluster.pass1.wall_seconds",
                                  MetricOptions::WallClock());
    pass2_wall = reg.GetHistogram("partition.cluster.pass2.wall_seconds",
                                  MetricOptions::WallClock());
  }

  static TwoPhaseMetrics& Get() {
    return CurrentRegistryMetrics<TwoPhaseMetrics>();
  }
};

// Both entry points run this core; `min_vertices` carries the graph path's
// full vertex space (isolated vertices included), 0 for discover-from-
// stream. Assignments are recorded by StreamEdge::id, which is the dense
// EdgeId for in-memory sources and the arrival index for disk streams —
// identical sequences therefore fill identical vectors.
StreamRunResult RunTwoPhase(EdgeStreamSource& source,
                            const PartitionConfig& config,
                            VertexId min_vertices) {
  SGP_CHECK(config.k > 0);
  Timer timer;
  StreamRunResult out;
  out.partitioning.model = CutModel::kVertexCut;
  out.partitioning.k = config.k;

  TwoPhaseMetrics& metrics = TwoPhaseMetrics::Get();

  // ---- Pass 1: streaming clustering.
  Timer pass1;
  ClusteringResult clusters = StreamClusters(source, config);
  metrics.pass1_wall->Record(pass1.ElapsedSeconds());
  if (!clusters.ok) return StreamRunResult::Failed(clusters.error);
  if (!source.SupportsRewind()) {
    return StreamRunResult::Failed(
        "2PS requires a rewindable source (two passes)");
  }
  source.Rewind();
  if (!source.ok()) return StreamRunResult::Failed(source.error());

  // ---- Pass 2: cluster-aware HDRF over the identical sequence.
  Timer pass2;
  const VertexId n = std::max(min_vertices, clusters.num_vertices);
  PartitionState state(config);
  state.InitCapacities(clusters.num_edges, config.balance_slack);
  state.InitEffectiveLoads();
  state.InitReplicas(n);
  ScoreCore core(state);
  twophase::ClusterScorer scorer(state, core);
  const std::vector<PartitionId> cluster_part =
      PackClusters(clusters, config.k, state.weights());
  auto home_of = [&](VertexId u) {
    const uint32_t c =
        u < clusters.cluster_of.size() ? clusters.cluster_of[u] : kInvalidCluster;
    return c == kInvalidCluster ? kInvalidPartition : cluster_part[c];
  };

  std::vector<PartitionId>& assign = out.partitioning.edge_to_partition;
  MasterTracker masters(n);
  std::vector<PartitionId> targets;  // the chunk's, in arrival order
  for (auto chunk = source.NextChunk(); !chunk.empty();
       chunk = source.NextChunk()) {
    core.NoteBatch();
    targets.clear();
    for (const StreamEdge& e : chunk) {
      const double du = clusters.degree[e.src];
      const double dv = clusters.degree[e.dst];
      const double theta_u = du / (du + dv);
      const double theta_v = 1.0 - theta_u;
      const PartitionId target =
          scorer.Place(e.src, e.dst, home_of(e.src), home_of(e.dst), theta_u,
                       theta_v);
      AssignById(assign, e.id, target);
      targets.push_back(target);
    }
    masters.NoteChunk(chunk, targets);
    out.num_edges += chunk.size();
  }
  if (!source.ok()) return StreamRunResult::Failed(source.error());
  metrics.pass2_wall->Record(pass2.ElapsedSeconds());

  out.num_vertices = n;
  out.partitioning.vertex_to_partition = masters.Derive(n, config.k);
  state.NoteAuxiliaryBytes(clusters.SynopsisBytes() + masters.SynopsisBytes() +
                           scorer.SynopsisBytes() +
                           cluster_part.capacity() * sizeof(PartitionId) +
                           assign.capacity() * sizeof(PartitionId));
  out.partitioning.state_bytes = state.SynopsisBytes();
  out.partitioning.partitioning_seconds = timer.ElapsedSeconds();

  metrics.clusters->Increment(clusters.num_clusters);
  metrics.moves->Increment(clusters.moves);
  metrics.pass1_edges->Increment(clusters.num_edges);
  metrics.volume_cap->Increment(clusters.volume_cap);
  metrics.edges_assigned->Increment(out.num_edges);
  return out;
}

}  // namespace

Partitioning TwoPhasePartitioner::Run(const Graph& graph,
                                      const PartitionConfig& config) const {
  InMemoryEdgeSource source(graph, config.order, config.seed,
                            config.ingest_chunk_size);
  StreamRunResult run = RunTwoPhase(source, config, graph.num_vertices());
  SGP_CHECK(run.ok);
  SGP_CHECK(run.partitioning.edge_to_partition.size() == graph.num_edges());
  return std::move(run.partitioning);
}

StreamRunResult TwoPhasePartitioner::RunOnSource(
    EdgeStreamSource& source, const PartitionConfig& config) const {
  return RunTwoPhase(source, config, 0);
}

}  // namespace sgp
