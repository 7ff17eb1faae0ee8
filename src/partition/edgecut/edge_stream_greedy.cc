#include "partition/edgecut/edge_stream_greedy.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/timer.h"
#include "partition/score_core.h"
#include "partition/state.h"

namespace sgp {

namespace internal_edgecut {

Partitioning RunEdgeStreamGreedy(EdgeStreamSource& source,
                                 VertexId num_vertices,
                                 const PartitionConfig& config) {
  SGP_CHECK(config.k > 0);
  Timer timer;
  const VertexId n = num_vertices;
  const PartitionId k = config.k;
  PartitionState state(config);
  state.InitCapacities(n, config.balance_slack);
  const std::vector<double>& capacity = state.capacities();
  const std::vector<uint64_t>& sizes = state.loads();
  ScoreCore core(state);

  std::vector<PartitionId> assignment(n, kInvalidPartition);
  // Synopsis: per vertex, the count of already-seen neighbors per
  // partition (small sorted vectors, like the greedy vertex-cut state).
  std::vector<std::vector<std::pair<PartitionId, uint32_t>>> seen(n);
  std::vector<uint32_t> observed_degree(n, 0);
  std::vector<uint32_t> degree_at_placement(n, 0);

  auto least_loaded = [&]() { return core.PickLeastLoadedWithRoom(); };
  auto place = [&](VertexId v, PartitionId p) {
    if (static_cast<double>(sizes[p]) + 1.0 > capacity[p]) {
      p = least_loaded();
    }
    assignment[v] = p;
    state.AddLoad(p);
    degree_at_placement[v] = observed_degree[v];
  };
  auto note_neighbor = [&](VertexId v, PartitionId p) {
    auto& vec = seen[v];
    auto it = std::find_if(vec.begin(), vec.end(),
                           [p](const auto& pr) { return pr.first == p; });
    if (it == vec.end()) {
      vec.emplace_back(p, 1u);
    } else {
      ++it->second;
    }
  };
  // IOGP-style revisit: when a vertex's observed degree has doubled since
  // placement, move it to its majority partition if that is elsewhere and
  // has room.
  auto maybe_migrate = [&](VertexId v) {
    if (observed_degree[v] < 2 * std::max(1u, degree_at_placement[v])) {
      return;
    }
    const PartitionId cur = assignment[v];
    PartitionId majority = cur;
    uint32_t majority_count = 0;
    uint32_t cur_count = 0;
    for (const auto& [p, count] : seen[v]) {
      if (p == cur) cur_count = count;
      if (count > majority_count) {
        majority_count = count;
        majority = p;
      }
    }
    degree_at_placement[v] = observed_degree[v];
    if (majority == cur || majority_count <= cur_count) return;
    if (static_cast<double>(sizes[majority]) + 1.0 > capacity[majority]) {
      return;
    }
    state.RemoveLoad(cur);
    state.AddLoad(majority);
    assignment[v] = majority;
  };

  for (auto chunk = source.NextChunk(); !chunk.empty();
       chunk = source.NextChunk()) {
    core.NoteBatch();
    for (const StreamEdge& edge : chunk) {
      const VertexId u = edge.src;
      const VertexId v = edge.dst;
      ++observed_degree[u];
      ++observed_degree[v];
      const bool u_placed = assignment[u] != kInvalidPartition;
      const bool v_placed = assignment[v] != kInvalidPartition;
      if (u_placed && v_placed) {
        // Nothing to place; record the adjacency and consider migration.
        note_neighbor(u, assignment[v]);
        note_neighbor(v, assignment[u]);
        maybe_migrate(u);
        maybe_migrate(v);
        continue;
      }
      if (u_placed) {
        place(v, assignment[u]);
      } else if (v_placed) {
        place(u, assignment[v]);
      } else {
        PartitionId p = least_loaded();
        place(u, p);
        place(v, assignment[u]);
      }
      note_neighbor(u, assignment[v]);
      note_neighbor(v, assignment[u]);
    }
  }
  // Isolated vertices (no edges) still need masters.
  for (VertexId v = 0; v < n; ++v) {
    if (assignment[v] == kInvalidPartition) {
      assignment[v] = least_loaded();
      state.AddLoad(assignment[v]);
    }
  }

  Partitioning result;
  result.model = CutModel::kEdgeCut;
  result.k = k;
  uint64_t synopsis_entries = 0;
  for (const auto& counts : seen) synopsis_entries += counts.size();
  state.NoteAuxiliaryBytes(
      static_cast<uint64_t>(n) *
          (sizeof(PartitionId) + 2 * sizeof(uint32_t)) +
      synopsis_entries * (sizeof(PartitionId) + sizeof(uint32_t)));
  result.state_bytes = state.SynopsisBytes();
  result.vertex_to_partition = std::move(assignment);
  result.partitioning_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace internal_edgecut

Partitioning EdgeStreamGreedyPartitioner::Run(
    const Graph& graph, const PartitionConfig& config) const {
  Timer timer;
  InMemoryEdgeSource source(graph, config.order, config.seed,
                            config.ingest_chunk_size);
  Partitioning result = internal_edgecut::RunEdgeStreamGreedy(
      source, graph.num_vertices(), config);
  DeriveEdgePlacement(graph, &result);
  result.partitioning_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace sgp
