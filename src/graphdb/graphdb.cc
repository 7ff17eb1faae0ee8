#include "graphdb/graphdb.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"
#include "common/hashing.h"

namespace sgp {

std::string_view QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kOneHop:
      return "1-hop";
    case QueryKind::kTwoHop:
      return "2-hop";
    case QueryKind::kShortestPath:
      return "shortest-path";
  }
  return "unknown";
}

GraphDatabase::GraphDatabase(const Graph& graph,
                             const Partitioning& partitioning,
                             DbCostModel cost_model, RouterMode router)
    : graph_(&graph), k_(partitioning.k), cost_(cost_model),
      router_(router) {
  SGP_CHECK(partitioning.vertex_to_partition.size() == graph.num_vertices());
  owner_ = partitioning.vertex_to_partition;
  const VertexId n = graph.num_vertices();

  // Materialize each worker's local adjacency store.
  stores_.resize(k_);
  local_slot_.resize(n);
  std::vector<uint32_t> slots(k_, 0);
  for (VertexId u = 0; u < n; ++u) local_slot_[u] = slots[owner_[u]]++;
  for (PartitionId w = 0; w < k_; ++w) {
    stores_[w].offsets.assign(static_cast<size_t>(slots[w]) + 1, 0);
  }
  for (VertexId u = 0; u < n; ++u) {
    stores_[owner_[u]].offsets[local_slot_[u] + 1] =
        graph.Neighbors(u).size();
  }
  for (PartitionId w = 0; w < k_; ++w) {
    auto& offsets = stores_[w].offsets;
    for (size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
    stores_[w].adjacency.resize(offsets.back());
  }
  for (VertexId u = 0; u < n; ++u) {
    auto nb = graph.Neighbors(u);
    auto& store = stores_[owner_[u]];
    std::copy(nb.begin(), nb.end(),
              store.adjacency.begin() +
                  static_cast<int64_t>(store.offsets[local_slot_[u]]));
  }
}

PartitionId GraphDatabase::Coordinator(VertexId u) const {
  if (router_ == RouterMode::kPartitionAware) return owner_[u];
  return static_cast<PartitionId>(HashU64(u ^ 0x9e3779b9u) % k_);
}

std::span<const VertexId> GraphDatabase::ReadAdjacency(VertexId u) const {
  SGP_DCHECK(u < graph_->num_vertices());
  const WorkerStore& store = stores_[owner_[u]];
  const uint32_t slot = local_slot_[u];
  return {store.adjacency.data() + store.offsets[slot],
          store.adjacency.data() + store.offsets[slot + 1]};
}

void GraphDatabase::AddFetchRound(std::vector<QueryPlan::Task> round,
                                  QueryPlan* plan) const {
  if (round.empty()) return;
  for (const QueryPlan::Task& task : round) {
    plan->total_reads += task.reads;
    if (task.worker != plan->coordinator) {
      plan->remote_messages += 2;  // request + response
      plan->network_bytes +=
          cost_.bytes_per_request +
          task.reads * cost_.bytes_per_vertex_record;
    }
  }
  plan->rounds.push_back(std::move(round));
}

void GraphDatabase::GroupByOwner(std::span<const VertexId> vertices,
                                 std::vector<QueryPlan::Task>* out) const {
  std::vector<uint64_t> reads(k_, 0);
  for (VertexId v : vertices) ++reads[owner_[v]];
  out->clear();
  for (PartitionId w = 0; w < k_; ++w) {
    if (reads[w] != 0) out->push_back({w, reads[w]});
  }
}

QueryPlan GraphDatabase::PlanOneHop(VertexId start) const {
  QueryPlan plan;
  plan.coordinator = Coordinator(start);
  const VertexId start_list[] = {start};
  std::vector<QueryPlan::Task> round;
  // Round 0: read the start vertex's adjacency list at its owner — local
  // under the partition-aware router, one remote round otherwise.
  GroupByOwner(start_list, &round);
  AddFetchRound(std::move(round), &plan);
  // Round 1: fetch the neighbor vertex records from their owners.
  auto neighbors = ReadAdjacency(start);
  GroupByOwner(neighbors, &round);
  AddFetchRound(std::move(round), &plan);
  plan.result_size = neighbors.size();
  return plan;
}

QueryPlan GraphDatabase::PlanTwoHop(VertexId start) const {
  QueryPlan plan;
  plan.coordinator = Coordinator(start);
  const VertexId start_list[] = {start};
  std::vector<QueryPlan::Task> round;
  GroupByOwner(start_list, &round);
  AddFetchRound(std::move(round), &plan);
  auto neighbors = ReadAdjacency(start);
  // Round 1: read each neighbor's record and adjacency at its owner.
  GroupByOwner(neighbors, &round);
  AddFetchRound(std::move(round), &plan);
  // Round 2: fetch the distinct 2-hop vertex records.
  std::unordered_set<VertexId> frontier;
  for (VertexId v : neighbors) {
    for (VertexId w : ReadAdjacency(v)) {
      if (w != start) frontier.insert(w);
    }
  }
  std::vector<VertexId> two_hop(frontier.begin(), frontier.end());
  GroupByOwner(two_hop, &round);
  AddFetchRound(std::move(round), &plan);
  plan.result_size = two_hop.size();
  return plan;
}

QueryPlan GraphDatabase::PlanShortestPath(VertexId start,
                                          VertexId target) const {
  QueryPlan plan;
  plan.coordinator = Coordinator(start);
  std::vector<char> visited(graph_->num_vertices(), 0);
  std::vector<VertexId> frontier{start};
  std::vector<QueryPlan::Task> round;
  visited[start] = 1;
  uint64_t depth = 0;
  bool found = start == target;
  while (!frontier.empty() && !found) {
    // One round per BFS level: read the adjacency of every frontier
    // vertex at its owner.
    GroupByOwner(frontier, &round);
    AddFetchRound(std::move(round), &plan);
    ++depth;
    std::vector<VertexId> next;
    for (VertexId v : frontier) {
      for (VertexId w : ReadAdjacency(v)) {
        if (visited[w]) continue;
        visited[w] = 1;
        if (w == target) found = true;
        next.push_back(w);
      }
    }
    frontier = std::move(next);
  }
  plan.result_size = found ? depth : 0;
  return plan;
}

QueryPlan GraphDatabase::Plan(const Query& query) const {
  SGP_CHECK(query.start < graph_->num_vertices());
  switch (query.kind) {
    case QueryKind::kOneHop:
      return PlanOneHop(query.start);
    case QueryKind::kTwoHop:
      return PlanTwoHop(query.start);
    case QueryKind::kShortestPath:
      return PlanShortestPath(query.start, query.target);
  }
  return {};
}

void GraphDatabase::AccumulateAccessCounts(
    const Query& query, std::vector<uint64_t>& counts) const {
  SGP_CHECK(counts.size() == graph_->num_vertices());
  ++counts[query.start];
  auto neighbors = ReadAdjacency(query.start);
  for (VertexId v : neighbors) ++counts[v];
  if (query.kind == QueryKind::kTwoHop) {
    std::unordered_set<VertexId> frontier;
    for (VertexId v : neighbors) {
      for (VertexId w : ReadAdjacency(v)) {
        if (w != query.start) frontier.insert(w);
      }
    }
    for (VertexId w : frontier) ++counts[w];
  }
  // Shortest-path access patterns depend on the target; the workload-aware
  // experiment (Figure 8) uses neighborhood queries only, as in the paper.
}

}  // namespace sgp
