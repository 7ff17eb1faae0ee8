#include "engine/engine.h"

#include <algorithm>

#include "common/telemetry.h"
#include "engine/kernel.h"
#include "engine/programs.h"

namespace sgp {

using engine_detail::DirectedEdgeCount;
using engine_detail::EngineMetrics;

AnalyticsEngine::AnalyticsEngine(const Graph& graph,
                                 const Partitioning& partitioning,
                                 EngineCostModel cost_model)
    : graph_(&graph), dgraph_(graph, partitioning), cost_(cost_model) {}

EngineStats AnalyticsEngine::Run(const VertexProgram& program) const {
  // Tag dispatch onto the devirtualized kernels. The dynamic_cast guards
  // against a mislabeled kind(): only an exact program type takes the
  // specialized path, everything else falls back to the virtual one. The
  // template arguments restate each program's (gather, scatter, all-active)
  // overrides, which are fixed because the classes are final.
  switch (program.kind()) {
    case ProgramKind::kPageRank:
      if (auto* p = dynamic_cast<const PageRankProgram*>(&program)) {
        EngineMetrics::Get().kernel_specialized->Increment();
        return engine_detail::RunKernel<PageRankProgram, EdgeDirection::kIn,
                                        EdgeDirection::kOut,
                                        /*kAllActive=*/true>(
            *graph_, dgraph_, cost_, *p);
      }
      break;
    case ProgramKind::kWcc:
      if (auto* p = dynamic_cast<const WccProgram*>(&program)) {
        EngineMetrics::Get().kernel_specialized->Increment();
        return engine_detail::RunKernel<WccProgram, EdgeDirection::kBoth,
                                        EdgeDirection::kBoth,
                                        /*kAllActive=*/false>(
            *graph_, dgraph_, cost_, *p);
      }
      break;
    case ProgramKind::kSssp:
      if (auto* p = dynamic_cast<const SsspProgram*>(&program)) {
        EngineMetrics::Get().kernel_specialized->Increment();
        return engine_detail::RunKernel<SsspProgram, EdgeDirection::kIn,
                                        EdgeDirection::kOut,
                                        /*kAllActive=*/false>(
            *graph_, dgraph_, cost_, *p);
      }
      break;
    case ProgramKind::kGeneric:
      break;
  }
  EngineMetrics::Get().kernel_generic->Increment();
  return RunGeneric(program);
}

EngineStats AnalyticsEngine::RunGeneric(const VertexProgram& program) const {
  const Graph& g = *graph_;
  const VertexId n = g.num_vertices();
  const PartitionId k = dgraph_.k();
  const EdgeDirection gather_dir = program.gather_direction();
  const EdgeDirection scatter_dir = program.scatter_direction();
  const bool all_active = program.all_active();

  const std::vector<double> speeds =
      engine_detail::ResolveWorkerSpeeds(cost_, k);

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
  if (all_active) {
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

  double barrier_wait = 0;  // idle worker-seconds at barriers

  auto gather_neighbors = [&](VertexId v, auto&& body) {
    switch (gather_dir) {
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
  };

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
      gather_neighbors(v, [&](VertexId u) {
        acc = program.Combine(
            acc, program.GatherContribution(u, v, stats.values[u], g));
        ++contributions;
      });
      const PartitionId master = dgraph_.Master(v);
      // Mirrors with gather edges compute partial aggregates locally and
      // send one message to the master (Appendix B). Without sender-side
      // aggregation, every cut gather edge is its own message (Figure
      // 10(a)).
      for (const auto& r : dgraph_.Replicas(v)) {
        const uint32_t local =
            DirectedEdgeCount(r, gather_dir, g.directed());
        if (local == 0) continue;
        iter_compute[r.partition] +=
            static_cast<double>(local) * cost_.seconds_per_edge_op /
            speeds[r.partition];
        if (r.partition != master) {
          const uint64_t messages =
              cost_.sender_side_aggregation ? 1 : local;
          stats.gather_messages += messages;
          iter_bytes[r.partition] +=
              messages * cost_.bytes_per_message;  // send
          iter_bytes[master] += messages * cost_.bytes_per_message;
        }
      }
      iter_compute[master] +=
          cost_.seconds_per_vertex_op / speeds[master];  // apply
      new_values[idx] =
          program.Apply(v, stats.values[v], acc, contributions, g);
    }

    // --- Commit + Scatter synchronization ---
    for (size_t idx = 0; idx < gather_list.size(); ++idx) {
      const VertexId v = gather_list[idx];
      // Initially-activated vertices scatter in their first superstep even
      // if Apply left their value unchanged (the SSSP source must announce
      // its distance 0 to its neighbors).
      const bool did_change =
          program.Changed(stats.values[v], new_values[idx]) || iter == 0;
      stats.values[v] = new_values[idx];
      if (!did_change && !all_active) continue;
      changed.push_back(v);
      const PartitionId master = dgraph_.Master(v);
      for (const auto& r : dgraph_.Replicas(v)) {
        const uint32_t local =
            DirectedEdgeCount(r, scatter_dir, g.directed());
        if (local == 0) continue;
        // Scatter work happens wherever the vertex's scatter edges live.
        iter_compute[r.partition] +=
            static_cast<double>(local) * cost_.seconds_per_edge_op /
            speeds[r.partition];
        if (r.partition != master) {
          // The mirror needs the updated vertex value before scattering.
          ++stats.sync_messages;
          iter_bytes[master] += cost_.bytes_per_message;       // send
          iter_bytes[r.partition] += cost_.bytes_per_message;  // receive
        }
      }
    }

    // --- Superstep bookkeeping ---
    double max_compute = 0;
    double sum_compute = 0;
    uint64_t max_bytes = 0;
    for (PartitionId p = 0; p < k; ++p) {
      stats.compute_seconds_per_worker[p] += iter_compute[p];
      stats.bytes_per_worker[p] += iter_bytes[p];
      stats.total_network_bytes += iter_bytes[p];
      sum_compute += iter_compute[p];
      max_compute = std::max(max_compute, iter_compute[p]);
      max_bytes = std::max(max_bytes, iter_bytes[p]);
    }
    // Idle worker-seconds at this superstep's barrier: everyone waits for
    // the slowest worker (the load-imbalance cost Figure 4 visualizes).
    barrier_wait += max_compute * static_cast<double>(k) - sum_compute;
    const double step_cost =
        max_compute +
        static_cast<double>(max_bytes) / cost_.network_bytes_per_second +
        cost_.superstep_latency_seconds;
    EngineMetrics::Get().superstep_cost->Record(step_cost);
    stats.simulated_seconds += step_cost;
    stats.messages_per_iteration.push_back(
        stats.gather_messages + stats.sync_messages - messages_before);
    ++stats.iterations;

    // --- Next frontier ---
    if (!all_active) {
      std::fill(in_gather_set.begin(), in_gather_set.end(), 0);
      gather_list.clear();
      for (VertexId v : changed) {
        auto activate = [&](VertexId w) {
          if (!in_gather_set[w]) {
            in_gather_set[w] = 1;
            gather_list.push_back(w);
          }
        };
        switch (scatter_dir) {
          case EdgeDirection::kIn:
            for (VertexId w : g.InNeighbors(v)) activate(w);
            break;
          case EdgeDirection::kOut:
            for (VertexId w : g.OutNeighbors(v)) activate(w);
            break;
          case EdgeDirection::kBoth:
            if (g.directed()) {
              for (VertexId w : g.InNeighbors(v)) activate(w);
              for (VertexId w : g.OutNeighbors(v)) activate(w);
            } else {
              for (VertexId w : g.Neighbors(v)) activate(w);
            }
            break;
        }
      }
    }
  }

  // Bytes were added to both sender and receiver above, so halve the total
  // to report wire traffic once.
  stats.total_network_bytes /= 2;

  EngineMetrics& metrics = EngineMetrics::Get();
  metrics.runs->Increment();
  metrics.supersteps->Increment(stats.iterations);
  metrics.gather_messages->Increment(stats.gather_messages);
  metrics.sync_messages->Increment(stats.sync_messages);
  metrics.network_bytes->Increment(stats.total_network_bytes);
  metrics.barrier_wait_seconds->Add(barrier_wait);
  metrics.simulated_seconds->Add(stats.simulated_seconds);
  return stats;
}

}  // namespace sgp
