#include "partition/twophase/hep.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "partition/master_tracker.h"
#include "partition/score_core.h"
#include "partition/state.h"
#include "partition/twophase/cluster_score.h"

namespace sgp {

namespace {

struct HepMetrics {
  Counter* hub_vertices = nullptr;
  Counter* hub_edges = nullptr;
  Counter* streamed_edges = nullptr;
  Histogram* pass1_wall = nullptr;
  Histogram* pass2_wall = nullptr;

  HepMetrics() = default;
  explicit HepMetrics(MetricsRegistry& reg) {
    hub_vertices = reg.GetCounter("partition.hep.hub.vertices");
    hub_edges = reg.GetCounter("partition.hep.hub.edges");
    streamed_edges = reg.GetCounter("partition.hep.streamed.edges");
    pass1_wall = reg.GetHistogram("partition.hep.pass1.wall_seconds",
                                  MetricOptions::WallClock());
    pass2_wall = reg.GetHistogram("partition.hep.pass2.wall_seconds",
                                  MetricOptions::WallClock());
  }

  static HepMetrics& Get() { return CurrentRegistryMetrics<HepMetrics>(); }
};

// Least effectively-loaded partition with room among the replicas of `h`,
// ties toward the lower id (explicit compare, so the Of() iteration order
// never matters); kInvalidPartition when none qualifies.
PartitionId LeastLoadedReplicaWithRoom(const PartitionState& state,
                                       VertexId h) {
  PartitionId best = kInvalidPartition;
  for (PartitionId p : state.replicas().Of(h)) {
    if (!state.HasRoom(p)) continue;
    if (best == kInvalidPartition ||
        state.EffectiveLoad(p) < state.EffectiveLoad(best) ||
        (state.EffectiveLoad(p) == state.EffectiveLoad(best) && p < best)) {
      best = p;
    }
  }
  return best;
}

StreamRunResult RunHep(EdgeStreamSource& source, const PartitionConfig& config,
                       VertexId min_vertices) {
  SGP_CHECK(config.k > 0);
  Timer timer;
  StreamRunResult out;
  out.partitioning.model = CutModel::kVertexCut;
  out.partitioning.k = config.k;

  HepMetrics& metrics = HepMetrics::Get();

  // ---- Pass 1: exact stream degrees (occurrence counts).
  Timer pass1;
  std::vector<uint32_t> degree;
  uint64_t total_edges = 0;
  ForEachStreamItem(source, [&](const StreamEdge& e) {
    const VertexId hi = std::max(e.src, e.dst);
    if (hi >= degree.size()) degree.resize(static_cast<size_t>(hi) + 1, 0);
    ++degree[e.src];
    ++degree[e.dst];
    ++total_edges;
  });
  metrics.pass1_wall->Record(pass1.ElapsedSeconds());
  if (!source.ok()) {
    out.ok = false;
    out.error = source.error();
    return out;
  }
  if (!source.SupportsRewind()) {
    out.ok = false;
    out.error = "HEP requires a rewindable source (degree pre-pass)";
    return out;
  }
  source.Rewind();
  if (!source.ok()) {
    out.ok = false;
    out.error = source.error();
    return out;
  }

  // ---- Pass 2: split at the hybrid threshold. Low-degree edges stream
  // through the exact-degree HDRF scorer immediately; hub-hub edges are
  // deferred into the in-memory core.
  Timer pass2;
  const uint32_t threshold = config.hybrid_threshold;
  const VertexId n =
      std::max(min_vertices, static_cast<VertexId>(degree.size()));
  PartitionState state(config);
  state.InitCapacities(total_edges, config.balance_slack);
  state.InitEffectiveLoads();
  state.InitReplicas(n);
  ScoreCore core(state);
  twophase::ClusterScorer scorer(state, core, config.hdrf_lambda);

  std::vector<PartitionId>& assign = out.partitioning.edge_to_partition;
  MasterTracker masters(n);
  auto record = [&](const StreamEdge& e, PartitionId target) {
    if (e.id >= assign.size()) {
      assign.resize(static_cast<size_t>(e.id) + 1, kInvalidPartition);
    }
    assign[e.id] = target;
    masters.Note(e.src, target);
    masters.Note(e.dst, target);
    ++out.num_edges;
  };

  std::vector<StreamEdge> hub_edges;
  for (auto chunk = source.NextChunk(); !chunk.empty();
       chunk = source.NextChunk()) {
    core.NoteBatch();
    for (const StreamEdge& e : chunk) {
      if (degree[e.src] >= threshold && degree[e.dst] >= threshold) {
        hub_edges.push_back(e);
        continue;
      }
      const double du = degree[e.src];
      const double dv = degree[e.dst];
      const double theta_u = du / (du + dv);
      const double theta_v = 1.0 - theta_u;
      record(e, scorer.Place(e.src, e.dst, kInvalidPartition,
                             kInvalidPartition, theta_u, theta_v));
    }
  }
  if (!source.ok()) {
    out.ok = false;
    out.error = source.error();
    return out;
  }
  const uint64_t streamed = out.num_edges;

  // ---- In-memory hub core, NE-style: hubs in decreasing degree order
  // (ties toward the lower id) each pull their unassigned hub edges as a
  // block into the hub's least-loaded replica partition with room — the
  // expansion keeps a hub's edges together, the caps keep it balanced.
  std::vector<VertexId> hubs;
  for (VertexId v = 0; v < degree.size(); ++v) {
    if (degree[v] >= threshold) hubs.push_back(v);
  }
  std::sort(hubs.begin(), hubs.end(), [&](VertexId a, VertexId b) {
    if (degree[a] != degree[b]) return degree[a] > degree[b];
    return a < b;
  });
  // Per-hub index into hub_edges; every hub edge appears under both
  // endpoints, the assigned check keeps it single-placement.
  std::vector<std::vector<uint32_t>> incident(hubs.size());
  std::vector<uint32_t> hub_rank(degree.size(), ~uint32_t{0});
  for (uint32_t i = 0; i < hubs.size(); ++i) hub_rank[hubs[i]] = i;
  std::vector<bool> placed(hub_edges.size(), false);
  for (uint32_t i = 0; i < hub_edges.size(); ++i) {
    incident[hub_rank[hub_edges[i].src]].push_back(i);
    if (hub_edges[i].dst != hub_edges[i].src) {
      incident[hub_rank[hub_edges[i].dst]].push_back(i);
    }
  }
  for (uint32_t r = 0; r < hubs.size(); ++r) {
    const VertexId h = hubs[r];
    PartitionId target = LeastLoadedReplicaWithRoom(state, h);
    for (uint32_t idx : incident[r]) {
      if (placed[idx]) continue;
      if (target == kInvalidPartition || !state.HasRoom(target)) {
        target = score::LeastLoadedWithRoom(
            state.k(), state.loads().data(), state.weights().data(),
            state.capacities().data());
      }
      placed[idx] = true;
      const StreamEdge& e = hub_edges[idx];
      state.AddLoadUpdatingEffective(target);
      state.replicas().Add(e.src, target);
      state.replicas().Add(e.dst, target);
      record(e, target);
    }
  }
  metrics.pass2_wall->Record(pass2.ElapsedSeconds());

  out.num_vertices = n;
  out.partitioning.vertex_to_partition = masters.Derive(n, config.k);
  state.NoteAuxiliaryBytes(degree.capacity() * sizeof(uint32_t) +
                           hub_edges.capacity() * sizeof(StreamEdge) +
                           masters.SynopsisBytes() + scorer.SynopsisBytes() +
                           assign.capacity() * sizeof(PartitionId));
  out.partitioning.state_bytes = state.SynopsisBytes();
  out.partitioning.partitioning_seconds = timer.ElapsedSeconds();

  metrics.hub_vertices->Increment(hubs.size());
  metrics.hub_edges->Increment(hub_edges.size());
  metrics.streamed_edges->Increment(streamed);
  return out;
}

}  // namespace

Partitioning HepPartitioner::Run(const Graph& graph,
                                 const PartitionConfig& config) const {
  InMemoryEdgeSource source(graph, config.order, config.seed,
                            config.ingest_chunk_size);
  StreamRunResult run = RunHep(source, config, graph.num_vertices());
  SGP_CHECK(run.ok);
  SGP_CHECK(run.partitioning.edge_to_partition.size() == graph.num_edges());
  return std::move(run.partitioning);
}

StreamRunResult HepPartitioner::RunOnSource(
    EdgeStreamSource& source, const PartitionConfig& config) const {
  return RunHep(source, config, 0);
}

}  // namespace sgp
