#include "partition/dynamic/dynamic_partitioner.h"

#include <algorithm>

#include "common/check.h"
#include "common/hashing.h"

namespace sgp {

namespace {

// The shared state core is configured from PartitionConfig; project the
// dynamic options onto one (homogeneous cluster, loads only).
PartitionConfig StateConfig(const DynamicOptions& options) {
  PartitionConfig config;
  config.k = options.k;
  config.balance_slack = options.balance_slack;
  config.seed = options.seed;
  return config;
}

}  // namespace

DynamicPartitioner::DynamicPartitioner(const DynamicOptions& options)
    : options_(options), state_(StateConfig(options)) {
  SGP_CHECK(options.k > 0);
  SGP_CHECK(options.balance_slack >= 1.0);
  SGP_CHECK(options.migration_gain >= 1.0);
}

void DynamicPartitioner::Bootstrap(const Graph& graph,
                                   const Partitioning& partitioning) {
  SGP_CHECK(partitioning.k == options_.k);
  SGP_CHECK(partitioning.vertex_to_partition.size() == graph.num_vertices());
  EnsureVertex(graph.num_vertices() == 0 ? 0 : graph.num_vertices() - 1);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    assignment_[v] = partitioning.vertex_to_partition[v];
    state_.AddLoad(assignment_[v]);
    ++placed_vertices_;
  }
  for (const Edge& e : graph.edges()) {
    adjacency_[e.src].push_back(e.dst);
    adjacency_[e.dst].push_back(e.src);
    NoteNeighbor(e.src, assignment_[e.dst]);
    NoteNeighbor(e.dst, assignment_[e.src]);
  }
}

void DynamicPartitioner::EnsureVertex(VertexId v) {
  if (v < assignment_.size()) return;
  assignment_.resize(static_cast<size_t>(v) + 1, kInvalidPartition);
  neighbor_counts_.resize(static_cast<size_t>(v) + 1);
  adjacency_.resize(static_cast<size_t>(v) + 1);
}

double DynamicPartitioner::Capacity() const {
  return std::max(1.0, options_.balance_slack *
                           static_cast<double>(placed_vertices_) /
                           static_cast<double>(options_.k));
}

PartitionId DynamicPartitioner::LeastLoaded() const {
  PartitionId best = 0;
  for (PartitionId p = 1; p < options_.k; ++p) {
    if (state_.load(p) < state_.load(best)) best = p;
  }
  return best;
}

void DynamicPartitioner::NoteNeighbor(VertexId v, PartitionId p) {
  auto& vec = neighbor_counts_[v];
  auto it = std::find_if(vec.begin(), vec.end(),
                         [p](const auto& pr) { return pr.first == p; });
  if (it == vec.end()) {
    vec.emplace_back(p, 1u);
  } else {
    ++it->second;
  }
}

void DynamicPartitioner::ForgetNeighbor(VertexId v, PartitionId p) {
  auto& vec = neighbor_counts_[v];
  auto it = std::find_if(vec.begin(), vec.end(),
                         [p](const auto& pr) { return pr.first == p; });
  if (it == vec.end()) return;
  if (--it->second == 0) {
    *it = vec.back();
    vec.pop_back();
  }
}

PartitionId DynamicPartitioner::PlaceNew(VertexId v) {
  // LDG-style: most already-present neighbors, discounted by fill level;
  // a vertex with no placed neighbors is hashed.
  PartitionId best = kInvalidPartition;
  double best_score = 0;
  for (const auto& [p, count] : neighbor_counts_[v]) {
    double size = static_cast<double>(state_.load(p));
    double cap = Capacity();
    if (size + 1.0 > cap) continue;
    double score = static_cast<double>(count) * (1.0 - size / cap);
    if (best == kInvalidPartition || score > best_score) {
      best_score = score;
      best = p;
    }
  }
  if (best == kInvalidPartition) {
    best = static_cast<PartitionId>(
        HashU64Seeded(v, options_.seed) % options_.k);
    // Respect capacity even for hashed placements.
    if (static_cast<double>(state_.load(best)) + 1.0 > Capacity()) {
      best = LeastLoaded();
    }
  }
  assignment_[v] = best;
  state_.AddLoad(best);
  ++placed_vertices_;
  return best;
}

void DynamicPartitioner::MoveVertex(VertexId v, PartitionId to) {
  const PartitionId from = assignment_[v];
  state_.RemoveLoad(from);
  state_.AddLoad(to);
  assignment_[v] = to;
  for (VertexId w : adjacency_[v]) {
    ForgetNeighbor(w, from);
    NoteNeighbor(w, to);
  }
  ++total_migrations_;
}

bool DynamicPartitioner::MaybeMigrate(VertexId v) {
  const PartitionId cur = assignment_[v];
  uint32_t cur_count = 0;
  PartitionId best = cur;
  uint32_t best_count = 0;
  for (const auto& [p, count] : neighbor_counts_[v]) {
    if (p == cur) cur_count = count;
    if (count > best_count) {
      best_count = count;
      best = p;
    }
  }
  if (best == cur) return false;
  if (static_cast<double>(best_count) <
      options_.migration_gain * static_cast<double>(cur_count) + 1.0) {
    return false;
  }
  if (static_cast<double>(state_.load(best)) + 1.0 > Capacity()) {
    return false;
  }

  MoveVertex(v, best);
  return true;
}

uint32_t DynamicPartitioner::AddEdge(VertexId u, VertexId v) {
  SGP_CHECK(u != v);
  EnsureVertex(std::max(u, v));
  bool noted_u = false;
  bool noted_v = false;
  if (assignment_[u] == kInvalidPartition &&
      assignment_[v] == kInvalidPartition) {
    PlaceNew(u);  // no signal yet: hashed placement
  }
  if (assignment_[u] == kInvalidPartition) {
    // Seed the synopsis with the placed endpoint before deciding.
    NoteNeighbor(u, assignment_[v]);
    noted_u = true;
    PlaceNew(u);
  } else if (assignment_[v] == kInvalidPartition) {
    NoteNeighbor(v, assignment_[u]);
    noted_v = true;
    PlaceNew(v);
  }
  adjacency_[u].push_back(v);
  adjacency_[v].push_back(u);
  if (!noted_u) NoteNeighbor(u, assignment_[v]);
  if (!noted_v) NoteNeighbor(v, assignment_[u]);
  uint32_t migrations = 0;
  migrations += MaybeMigrate(u) ? 1 : 0;
  migrations += MaybeMigrate(v) ? 1 : 0;
  return migrations;
}

uint64_t DynamicPartitioner::SynopsisBytes() const {
  uint64_t synopsis_entries = 0;
  for (const auto& counts : neighbor_counts_) {
    synopsis_entries += counts.size();
  }
  uint64_t adjacency_entries = 0;
  for (const auto& adj : adjacency_) adjacency_entries += adj.size();
  return state_.SynopsisBytes() +
         assignment_.size() * sizeof(PartitionId) +
         synopsis_entries * (sizeof(PartitionId) + sizeof(uint32_t)) +
         adjacency_entries * sizeof(VertexId);
}

PartitionId DynamicPartitioner::PartitionOf(VertexId v) const {
  if (v >= assignment_.size()) return kInvalidPartition;
  return assignment_[v];
}

Partitioning DynamicPartitioner::Snapshot(const Graph& graph) const {
  SGP_CHECK(graph.num_vertices() >= assignment_.size());
  Partitioning p;
  p.model = CutModel::kEdgeCut;
  p.k = options_.k;
  p.vertex_to_partition.assign(graph.num_vertices(), kInvalidPartition);
  for (VertexId v = 0; v < assignment_.size(); ++v) {
    p.vertex_to_partition[v] = assignment_[v];
  }
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (p.vertex_to_partition[v] == kInvalidPartition) {
      p.vertex_to_partition[v] = static_cast<PartitionId>(
          HashU64Seeded(v, options_.seed) % options_.k);
    }
  }
  p.state_bytes = SynopsisBytes();
  DeriveEdgePlacement(graph, &p);
  return p;
}

}  // namespace sgp
