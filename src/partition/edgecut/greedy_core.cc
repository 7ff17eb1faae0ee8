#include "partition/edgecut/greedy_core.h"

#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "partition/score_core.h"
#include "partition/state.h"
#include "stream/source.h"

namespace sgp::internal_edgecut {

namespace {

// Phase timings and decision counters of the greedy edge-cut family.
// Decisions are accumulated in plain locals inside Run and flushed once
// here, so the scoring loop carries no atomic traffic (the <2% overhead
// budget of bench_partitioner_speed).
struct GreedyMetrics {
  Counter* vertices_assigned = nullptr;
  Counter* neighbor_scans = nullptr;
  Counter* capacity_fallbacks = nullptr;
  Histogram* stream_build_wall = nullptr;
  Histogram* score_assign_wall = nullptr;

  GreedyMetrics() = default;
  explicit GreedyMetrics(MetricsRegistry& reg) {
    vertices_assigned = reg.GetCounter("partition.greedy.vertices.assigned");
    neighbor_scans = reg.GetCounter("partition.greedy.neighbor.scans");
    capacity_fallbacks =
        reg.GetCounter("partition.greedy.capacity_fallbacks");
    stream_build_wall =
        reg.GetHistogram("partition.greedy.stream_build.wall_seconds",
                         MetricOptions::WallClock());
    score_assign_wall =
        reg.GetHistogram("partition.greedy.score_assign.wall_seconds",
                         MetricOptions::WallClock());
  }

  static GreedyMetrics& Get() {
    return CurrentRegistryMetrics<GreedyMetrics>();
  }
};

// Vertices of lookahead for the neighbour-row prefetch: two placements
// are long enough to cover a DRAM miss on a row.
constexpr size_t kRowPrefetchAhead = 2;

}  // namespace

Partitioning RunStreamingGreedy(const Graph& graph,
                                const PartitionConfig& config,
                                Objective objective, uint32_t passes) {
  SGP_CHECK(config.k > 0);
  SGP_CHECK(passes >= 1);
  Timer timer;
  const VertexId n = graph.num_vertices();
  const PartitionId k = config.k;
  // Shared synopsis: loads plus the hard capacity C = β·(n/k)·w_i of
  // Equation (1). Scoring and the k-way pick live in the ScoreCore.
  PartitionState state(config);
  state.InitCapacities(n, config.balance_slack);
  ScoreCore core(state);

  // FENNEL α: the paper's optimum α = m·k^{γ−1}/n^{γ}, which reduces to
  // √k·m/n^{3/2} at γ = 1.5. The term row rejects a bad α or γ
  // (GreedyTermRow::Reset); the restreaming growth factor is checked here,
  // since a NaN one shows only from the second pass and a zero one still
  // gives a valid α.
  const double gamma = config.fennel_gamma;
  double alpha = config.fennel_alpha;
  if (alpha == 0.0 && n > 0) {
    alpha = static_cast<double>(graph.num_edges()) *
            std::pow(static_cast<double>(k), gamma - 1.0) /
            std::pow(static_cast<double>(n), gamma);
  }
  const double growth = config.restream_alpha_growth;
  if (objective == Objective::kFennel && passes > 1) {
    SGP_CHECK(std::isfinite(growth) && growth > 0);
  }

  GreedyMetrics& metrics = GreedyMetrics::Get();
  // Phase 1: ingest setup (the source materializes the arrival order once;
  // every pass replays it chunk by chunk).
  InMemoryVertexSource source = [&] {
    ScopedTimer stream_timer(metrics.stream_build_wall);
    return InMemoryVertexSource(graph, config.order, config.seed,
                                config.ingest_chunk_size);
  }();
  // Phase 2: score + assign. Decision counts live in locals until the
  // post-loop flush.
  ScopedTimer score_assign_timer(metrics.score_assign_wall);
  uint64_t local_assigned = 0;
  uint64_t local_neighbor_scans = 0;
  uint64_t local_fallbacks = 0;

  std::vector<PartitionId> assignment(n, kInvalidPartition);
  NeighborTally tally(k);
  auto part_of = [&](VertexId v) { return assignment[v]; };

  GreedyObjective score_objective;
  score_objective.ldg = objective == Objective::kLdg;
  score_objective.gamma = gamma;

  for (uint32_t pass = 0; pass < passes; ++pass) {
    // Re-streaming FENNEL anneals α upward across passes ([34]).
    score_objective.alpha =
        alpha * std::pow(growth, static_cast<double>(pass));
    state.InitGreedyTerms(score_objective);
    source.Reset();
    for (auto chunk = source.NextChunk(); !chunk.empty();
         chunk = source.NextChunk()) {
      core.NoteBatch();
      for (size_t idx = 0; idx < chunk.size(); ++idx) {
        // Neighbour rows sit at random offsets of the adjacency, so the row
        // of the vertex kRowPrefetchAhead positions later is pulled toward
        // the cache while this one is tallied and placed.
        if (idx + kRowPrefetchAhead < chunk.size()) {
          __builtin_prefetch(
              graph.Neighbors(chunk[idx + kRowPrefetchAhead]).data(), 0, 1);
        }
        const VertexId u = chunk[idx];
        // Re-streaming: remove u from its previous partition before
        // re-placing it, so capacities reflect the tentative state.
        if (assignment[u] != kInvalidPartition) {
          state.RemoveLoadUpdatingTerms(assignment[u]);
          assignment[u] = kInvalidPartition;
        }
        local_neighbor_scans += tally.Add(graph.Neighbors(u), part_of);

        PartitionId best = core.PickGreedyVertex(
            tally.counts(), state.greedy_terms(), state.loads().data());
        // All partitions at capacity can only happen transiently in
        // re-streaming passes; fall back to the least-loaded partition.
        if (best == kInvalidPartition) {
          ++local_fallbacks;
          best = core.PickLeastLoadedAll();
        }
        assignment[u] = best;
        state.AddLoadUpdatingTerms(best);
        ++local_assigned;
        tally.Clear();
      }
    }
    // Per-pass flush: restreaming runs surface scan progress after every
    // pass instead of one burst at the end, so mid-run telemetry
    // snapshots see the pass cadence. Totals are unchanged.
    metrics.neighbor_scans->Increment(local_neighbor_scans);
    local_neighbor_scans = 0;
  }

  metrics.vertices_assigned->Increment(local_assigned);
  metrics.capacity_fallbacks->Increment(local_fallbacks);

  Partitioning result;
  result.model = CutModel::kEdgeCut;
  result.k = k;
  state.NoteAuxiliaryBytes(
      static_cast<uint64_t>(n) * sizeof(PartitionId) +  // assignment
      tally.MemoryBytes() + core.MemoryBytes());
  result.state_bytes = state.SynopsisBytes();
  result.vertex_to_partition = std::move(assignment);
  DeriveEdgePlacement(graph, &result);
  result.partitioning_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace sgp::internal_edgecut
