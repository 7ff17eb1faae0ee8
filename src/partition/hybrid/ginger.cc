#include "partition/hybrid/ginger.h"

#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/hashing.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "partition/edgecut/neighbor_gather.h"
#include "partition/score_core.h"
#include "partition/state.h"
#include "stream/source.h"

namespace sgp {

namespace {

// Ginger's phase-1 greedy shares the gather pipeline (and its counters)
// with the edge-cut family.
struct GingerMetrics {
  Counter* gather_blocks = nullptr;
  Counter* gather_prefetched = nullptr;

  GingerMetrics() = default;
  explicit GingerMetrics(MetricsRegistry& reg) {
    gather_blocks = reg.GetCounter("partition.greedy.gather.blocks");
    gather_prefetched = reg.GetCounter("partition.greedy.gather.prefetched");
  }

  static GingerMetrics& Get() {
    return CurrentRegistryMetrics<GingerMetrics>();
  }
};

}  // namespace

Partitioning GingerPartitioner::Run(const Graph& graph,
                                    const PartitionConfig& config) const {
  SGP_CHECK(config.k > 0);
  Timer timer;
  const PartitionId k = config.k;
  const VertexId n = graph.num_vertices();
  const EdgeId m = graph.num_edges();

  // Group in-edge ids by target, so a vertex arrives "with its in-edges".
  std::vector<uint64_t> in_offsets(static_cast<size_t>(n) + 1, 0);
  for (const Edge& e : graph.edges()) ++in_offsets[e.dst + 1];
  for (VertexId u = 0; u < n; ++u) in_offsets[u + 1] += in_offsets[u];
  std::vector<EdgeId> in_edges(m);
  {
    std::vector<uint64_t> cursor(in_offsets.begin(), in_offsets.end() - 1);
    for (EdgeId e = 0; e < m; ++e) {
      in_edges[cursor[graph.edges()[e].dst]++] = e;
    }
  }

  Partitioning result;
  result.model = CutModel::kHybrid;
  result.k = k;
  result.vertex_to_partition.assign(n, kInvalidPartition);
  result.edge_to_partition.resize(m);

  // Synopsis: vertex loads (primary) + edge loads (secondary), balanced
  // jointly per Equation (8).
  PartitionState state(config);
  state.InitSecondaryLoads();
  const CapacityAwareHasher hasher(state);
  auto hash_part = [&](VertexId u) {
    return hasher.Pick(HashU64Seeded(u, config.seed));
  };
  const std::vector<double>& cap_weights = state.weights();
  const std::vector<uint64_t>& vertex_load = state.loads();
  const std::vector<uint64_t>& edge_load = state.secondary_loads();

  ScoreCore core(state);
  std::vector<uint32_t> neighbor_counts(k, 0);
  std::vector<double> combined_loads(k, 0.0);
  std::vector<PartitionId> touched;
  internal_edgecut::NeighborGather gather;
  const double vertices_per_edge =
      m == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(m);
  // Equation (8) leaves the scaling of the balance term implicit;
  // PowerLyra's implementation inherits FENNEL's γ = 1.5 power form with
  // α = √k · m / n^{3/2}, which keeps the penalty comparable to the
  // neighbor-count term. We do the same.
  const double gamma = 1.5;
  const double alpha =
      n == 0 ? 0.0
             : static_cast<double>(m) *
                   std::sqrt(static_cast<double>(k)) /
                   std::pow(static_cast<double>(n), 1.5);

  // --- Phase 1: place vertex masters along the stream. Low-degree
  // vertices use the Equation (8) greedy; high-degree vertices are hashed
  // (their gather load is spread by construction).
  auto is_high_degree = [&](VertexId v) {
    const uint32_t in_degree =
        graph.directed() ? graph.InDegree(v) : graph.Degree(v);
    return in_degree > config.hybrid_threshold;
  };
  // Hard capacity on the combined load, like FENNEL's streaming cap: the
  // expected combined load per partition is n/k.
  const double combined_capacity = config.balance_slack *
                                   static_cast<double>(n) /
                                   static_cast<double>(k);
  InMemoryVertexSource source(graph, config.order, config.seed,
                              config.ingest_chunk_size);
  for (auto stream_chunk = source.NextChunk(); !stream_chunk.empty();
       stream_chunk = source.NextChunk()) {
    core.NoteBatch();
    for (VertexId v : stream_chunk) {
      if (is_high_degree(v)) {
        result.vertex_to_partition[v] = hash_part(v);
        state.AddLoad(result.vertex_to_partition[v]);
        continue;
      }
      // Low-degree: Equation (8) over already-placed neighbors.
      gather.Accumulate(graph.Neighbors(v), result.vertex_to_partition.data(),
                        neighbor_counts.data(), touched);
      // Combined load ½(|Pi_v| + (n/m)|Pi_e|) of Equation (8), passed
      // through FENNEL's marginal-cost power form.
      for (PartitionId i = 0; i < k; ++i) {
        combined_loads[i] =
            0.5 *
            (static_cast<double>(vertex_load[i]) +
             vertices_per_edge * static_cast<double>(edge_load[i])) /
            cap_weights[i];
      }
      PartitionId best = core.PickGingerVertex(
          neighbor_counts.data(), combined_loads.data(), combined_capacity,
          alpha, gamma);
      if (best == kInvalidPartition) {
        // Every partition at capacity: least combined load wins.
        best = 0;
        for (PartitionId i = 1; i < k; ++i) {
          if (combined_loads[i] < combined_loads[best]) best = i;
        }
      }
      for (PartitionId p : touched) neighbor_counts[p] = 0;
      touched.clear();

      result.vertex_to_partition[v] = best;
      state.AddLoad(best);
      state.AddSecondaryLoad(best, in_offsets[v + 1] - in_offsets[v]);
    }
  }

  // --- Phase 2: place edges. The in-edges of a low-degree vertex follow
  // its master (edge-cut locality); the in-edges of a high-degree vertex
  // are re-assigned to their *source's* master, spreading the hub's
  // gather while preserving the source's locality (Section 4.3).
  for (EdgeId e = 0; e < m; ++e) {
    const Edge& edge = graph.edges()[e];
    result.edge_to_partition[e] =
        is_high_degree(edge.dst) ? result.vertex_to_partition[edge.src]
                                 : result.vertex_to_partition[edge.dst];
  }
  GingerMetrics& metrics = GingerMetrics::Get();
  metrics.gather_blocks->Increment(gather.blocks);
  metrics.gather_prefetched->Increment(gather.prefetched);
  state.NoteAuxiliaryBytes(static_cast<uint64_t>(n) * sizeof(PartitionId) +
                           static_cast<uint64_t>(k) * sizeof(uint32_t));
  result.state_bytes = state.SynopsisBytes();
  result.partitioning_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace sgp
