#ifndef SGP_TESTS_ENGINE_ORACLE_H_
#define SGP_TESTS_ENGINE_ORACLE_H_

// Reference superstep loop of the analytics engine: the plain shape that
// the production kernel (engine/kernel.h) replaced. It resolves the gather
// and scatter directions at run time, counts each replica's local edges
// and divides by the worker's speed once per replica per superstep, and
// resets its frontier with an O(n) std::fill. It is the oracle of the
// kernel differential suite (tests/engine_kernel_test.cc): every
// floating-point accumulation follows the same order as the kernel, so the
// two must agree on every EngineStats field bit for bit. It records no
// telemetry.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "engine/distributed_graph.h"
#include "engine/engine.h"
#include "engine/vertex_program.h"
#include "graph/graph.h"

namespace sgp::oracle {

/// Local edge count of one replica in direction `dir`. For undirected
/// graphs each incident edge was recorded in both directions, so in_edges
/// already equals the incident count and any direction resolves to it.
inline uint32_t DirectedEdgeCount(const DistributedGraph::Replica& r,
                                  EdgeDirection dir, bool graph_directed) {
  if (!graph_directed) return r.in_edges;
  switch (dir) {
    case EdgeDirection::kIn:
      return r.in_edges;
    case EdgeDirection::kOut:
      return r.out_edges;
    case EdgeDirection::kBoth:
      return r.in_edges + r.out_edges;
  }
  return 0;
}

/// Visits the neighbors of `v` in direction `dir`; for kBoth on a directed
/// graph, in-neighbors come before out-neighbors.
template <typename Body>
void ForEachNeighbor(const Graph& g, VertexId v, EdgeDirection dir,
                     Body&& body) {
  switch (dir) {
    case EdgeDirection::kIn:
      for (VertexId u : g.InNeighbors(v)) body(u);
      break;
    case EdgeDirection::kOut:
      for (VertexId u : g.OutNeighbors(v)) body(u);
      break;
    case EdgeDirection::kBoth:
      if (g.directed()) {
        for (VertexId u : g.InNeighbors(v)) body(u);
        for (VertexId u : g.OutNeighbors(v)) body(u);
      } else {
        for (VertexId u : g.Neighbors(v)) body(u);
      }
      break;
  }
}

/// Runs `program` over `dgraph` under `cost` to convergence (or its
/// iteration cap) and returns what AnalyticsEngine::Run must return.
template <VertexProgram Program>
EngineStats RunEngine(const DistributedGraph& dgraph,
                      const EngineCostModel& cost, const Program& program) {
  const Graph& g = dgraph.graph();
  const VertexId n = g.num_vertices();
  const PartitionId k = dgraph.k();
  const EdgeDirection gather_dir = Program::kGatherDirection;
  const EdgeDirection scatter_dir = Program::kScatterDirection;
  const bool all_active = Program::kAllActive;

  std::vector<double> speeds = cost.worker_speeds;
  if (speeds.empty()) speeds.assign(k, 1.0);
  SGP_CHECK(speeds.size() == k);

  EngineStats stats;
  stats.compute_seconds_per_worker.assign(k, 0.0);
  stats.bytes_per_worker.assign(k, 0);
  stats.values.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    stats.values[v] = program.InitialValue(v, g);
  }

  // Gather set for the current iteration.
  std::vector<char> in_gather_set(n, 0);
  std::vector<VertexId> gather_list;
  if constexpr (Program::kAllActive) {
    gather_list.resize(n);
    for (VertexId v = 0; v < n; ++v) gather_list[v] = v;
  } else {
    for (VertexId v : program.InitialFrontier(g)) {
      if (!in_gather_set[v]) {
        in_gather_set[v] = 1;
        gather_list.push_back(v);
      }
    }
  }

  std::vector<double> iter_compute(k);
  std::vector<uint64_t> iter_bytes(k);
  std::vector<double> new_values;
  std::vector<VertexId> changed;

  for (uint32_t iter = 0; iter < program.max_iterations(); ++iter) {
    if (gather_list.empty()) break;
    std::fill(iter_compute.begin(), iter_compute.end(), 0.0);
    std::fill(iter_bytes.begin(), iter_bytes.end(), 0);
    changed.clear();
    const uint64_t messages_before =
        stats.gather_messages + stats.sync_messages;
    stats.active_per_iteration.push_back(gather_list.size());

    // --- Gather + Apply ---
    new_values.assign(gather_list.size(), 0.0);
    for (size_t idx = 0; idx < gather_list.size(); ++idx) {
      const VertexId v = gather_list[idx];
      double acc = program.GatherNeutral();
      uint64_t contributions = 0;
      ForEachNeighbor(g, v, gather_dir, [&](VertexId u) {
        acc = program.Combine(
            acc, program.GatherContribution(u, v, stats.values[u], g));
        ++contributions;
      });
      const PartitionId master = dgraph.Master(v);
      // Mirrors with gather edges compute partial aggregates locally and
      // send one message to the master (Appendix B). Without sender-side
      // aggregation, every cut gather edge is its own message (Figure
      // 10(a)).
      for (const auto& r : dgraph.Replicas(v)) {
        const uint32_t local =
            DirectedEdgeCount(r, gather_dir, g.directed());
        if (local == 0) continue;
        iter_compute[r.partition] +=
            static_cast<double>(local) * cost.seconds_per_edge_op /
            speeds[r.partition];
        if (r.partition != master) {
          const uint64_t messages =
              cost.sender_side_aggregation ? 1 : local;
          stats.gather_messages += messages;
          iter_bytes[r.partition] += messages * cost.bytes_per_message;
          iter_bytes[master] += messages * cost.bytes_per_message;
        }
      }
      iter_compute[master] += cost.seconds_per_vertex_op / speeds[master];
      new_values[idx] =
          program.Apply(v, stats.values[v], acc, contributions, g);
    }

    // --- Commit + Scatter synchronization ---
    for (size_t idx = 0; idx < gather_list.size(); ++idx) {
      const VertexId v = gather_list[idx];
      // Initially-activated vertices scatter in their first superstep even
      // if Apply left their value unchanged (the SSSP source must announce
      // its distance 0 to its neighbors).
      const bool did_change = stats.values[v] != new_values[idx] || iter == 0;
      stats.values[v] = new_values[idx];
      if (!did_change && !all_active) continue;
      changed.push_back(v);
      const PartitionId master = dgraph.Master(v);
      for (const auto& r : dgraph.Replicas(v)) {
        const uint32_t local =
            DirectedEdgeCount(r, scatter_dir, g.directed());
        if (local == 0) continue;
        iter_compute[r.partition] +=
            static_cast<double>(local) * cost.seconds_per_edge_op /
            speeds[r.partition];
        if (r.partition != master) {
          ++stats.sync_messages;
          iter_bytes[master] += cost.bytes_per_message;
          iter_bytes[r.partition] += cost.bytes_per_message;
        }
      }
    }

    // --- Superstep bookkeeping ---
    double max_compute = 0;
    uint64_t max_bytes = 0;
    for (PartitionId p = 0; p < k; ++p) {
      stats.compute_seconds_per_worker[p] += iter_compute[p];
      stats.bytes_per_worker[p] += iter_bytes[p];
      stats.total_network_bytes += iter_bytes[p];
      max_compute = std::max(max_compute, iter_compute[p]);
      max_bytes = std::max(max_bytes, iter_bytes[p]);
    }
    stats.simulated_seconds +=
        max_compute +
        static_cast<double>(max_bytes) / cost.network_bytes_per_second +
        cost.superstep_latency_seconds;
    stats.messages_per_iteration.push_back(
        stats.gather_messages + stats.sync_messages - messages_before);
    ++stats.iterations;

    // --- Next frontier ---
    if (!all_active) {
      std::fill(in_gather_set.begin(), in_gather_set.end(), 0);
      gather_list.clear();
      for (VertexId v : changed) {
        ForEachNeighbor(g, v, scatter_dir, [&](VertexId w) {
          if (!in_gather_set[w]) {
            in_gather_set[w] = 1;
            gather_list.push_back(w);
          }
        });
      }
    }
  }

  // Bytes were added to both sender and receiver above, so halve the total
  // to report wire traffic once.
  stats.total_network_bytes /= 2;
  return stats;
}

}  // namespace sgp::oracle

#endif  // SGP_TESTS_ENGINE_ORACLE_H_
