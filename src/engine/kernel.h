#ifndef SGP_ENGINE_KERNEL_H_
#define SGP_ENGINE_KERNEL_H_

// Internal header of the analytics engine: the GAS superstep kernel plus
// the replica cost tables it runs on. Included only by engine.cc — nothing
// here is part of the public engine API.
//
// RunKernel<Program> is the engine's one superstep loop. Its contract
// (pinned by tests/engine_kernel_test.cc) is byte-identical EngineStats to
// the plain superstep loop in tests/engine_oracle.h, which resolves
// directions at run time, divides by worker speed per replica per superstep
// and resets its frontier with std::fill. Every optimization below is
// therefore restricted to transformations that cannot change a single bit
// of the result:
//   - compile-time program: Program is a concrete class whose directions
//     and all-active flag are static constants, so Combine /
//     GatherContribution / Apply inline and direction switches fold away.
//   - replica cost tables: `local * seconds_per_edge_op / speed` is
//     evaluated once per replica instead of once per superstep. The
//     expression (and hence the rounded double) is unchanged; only the
//     number of evaluations drops.
//   - all-active fast path: for all-active programs the per-superstep
//     accounting (per-partition compute seconds, bytes, message counts) is
//     superstep-invariant, so it is computed once — in the per-superstep
//     addition order — and the per-partition aggregates are added once per
//     superstep, exactly as freshly recomputed (bitwise equal) iteration
//     arrays would be.
//   - source-only gather hoist: programs marked kSourceOnlyGather compute
//     contributions from the source vertex alone, so the all-active kernel
//     evaluates each source's contribution once per superstep instead of
//     once per edge. Same operands, same operation, fewer evaluations.
//   - epoch-stamped frontier: membership in the next gather set is tracked
//     by an epoch stamp instead of an O(n) std::fill per superstep;
//     activation order (and thus floating-point accumulation order) is
//     unchanged.
//   - lockstep gather: on the source-only path, vertices are ordered by
//     gather degree once per Run (a counting sort), and each group of four
//     neighbours in that order is summed together, one row position at a
//     time, into four independent accumulators until each row ends. Every
//     vertex still adds its own contributions in its own row order,
//     starting from GatherNeutral, so each sum is the same chain of
//     roundings; only the interleaving across vertices changes.

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/telemetry.h"
#include "engine/distributed_graph.h"
#include "engine/engine.h"
#include "engine/vertex_program.h"
#include "graph/graph.h"

namespace sgp::engine_detail {

// Superstep-level telemetry of the GAS engine. Everything here is derived
// from the simulated cost model, so the values are deterministic for
// identical inputs and appear in the deterministic JSON exports. Metrics
// publish into the calling thread's current registry (grid cells install
// a scoped per-cell registry; everyone else hits the global one).
struct EngineMetrics {
  Counter* runs = nullptr;
  Counter* supersteps = nullptr;
  Counter* gather_messages = nullptr;
  Counter* sync_messages = nullptr;
  Counter* network_bytes = nullptr;
  Gauge* barrier_wait_seconds = nullptr;
  Gauge* simulated_seconds = nullptr;
  Histogram* superstep_cost = nullptr;

  EngineMetrics() = default;
  explicit EngineMetrics(MetricsRegistry& reg) {
    runs = reg.GetCounter("engine.runs");
    supersteps = reg.GetCounter("engine.supersteps");
    gather_messages = reg.GetCounter("engine.gather.messages");
    sync_messages = reg.GetCounter("engine.sync.messages");
    network_bytes = reg.GetCounter("engine.network.bytes");
    barrier_wait_seconds = reg.GetGauge("engine.barrier_wait.sim_seconds");
    simulated_seconds = reg.GetGauge("engine.simulated.sim_seconds");
    superstep_cost = reg.GetHistogram("engine.superstep_cost.sim_seconds");
  }

  static EngineMetrics& Get() {
    return CurrentRegistryMetrics<EngineMetrics>();
  }
};

// Local gather-direction edge count of one replica. For undirected graphs
// each incident edge was recorded in both directions, so in_edges already
// equals the incident count and any direction resolves to it.
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

// Per-worker relative speeds, defaulted to 1.0 and validated.
inline std::vector<double> ResolveWorkerSpeeds(const EngineCostModel& cost,
                                               PartitionId k) {
  std::vector<double> speeds = cost.worker_speeds;
  if (speeds.empty()) {
    speeds.assign(k, 1.0);
  }
  SGP_CHECK(speeds.size() == k);
  for (double s : speeds) SGP_CHECK(s > 0);
  return speeds;
}

/// Once-per-Run flat cost tables over the distributed graph's replicas,
/// resolved for one (gather, scatter) direction pair and one speed vector.
/// Replicas with zero edges in a direction are dropped from that table —
/// the oracle skips them too, so per-partition floating-point accumulation
/// order is unchanged. Entry order within a vertex follows replica order
/// (master first), and each entry of one vertex targets a distinct
/// partition, so per-partition accumulation order across vertices is fully
/// determined by vertex visit order.
struct ReplicaCostTables {
  struct GatherEntry {
    PartitionId partition = 0;
    uint64_t messages = 0;       // mirror→master messages per superstep
                                 // (0 for the master's own replica)
    uint64_t message_bytes = 0;  // messages * bytes_per_message
    double seconds = 0;          // local_edges * seconds_per_edge_op / speed
  };
  struct ScatterEntry {
    PartitionId partition = 0;
    bool mirror = false;  // needs the updated value before scattering
    double seconds = 0;
  };

  std::vector<uint64_t> gather_offsets;   // size n+1, into gather
  std::vector<GatherEntry> gather;
  std::vector<uint64_t> scatter_offsets;  // size n+1, into scatter
  std::vector<ScatterEntry> scatter;
  std::vector<double> apply_seconds;      // per partition: vertex_op / speed
};

inline ReplicaCostTables BuildReplicaCostTables(
    const DistributedGraph& dgraph, const EngineCostModel& cost,
    const std::vector<double>& speeds, EdgeDirection gather_dir,
    EdgeDirection scatter_dir) {
  const Graph& g = dgraph.graph();
  const VertexId n = g.num_vertices();
  const PartitionId k = dgraph.k();
  const bool directed = g.directed();

  ReplicaCostTables t;
  t.apply_seconds.resize(k);
  for (PartitionId p = 0; p < k; ++p) {
    t.apply_seconds[p] = cost.seconds_per_vertex_op / speeds[p];
  }
  t.gather_offsets.assign(static_cast<size_t>(n) + 1, 0);
  t.scatter_offsets.assign(static_cast<size_t>(n) + 1, 0);
  t.gather.reserve(dgraph.num_replicas());
  t.scatter.reserve(dgraph.num_replicas());

  for (VertexId v = 0; v < n; ++v) {
    const PartitionId master = dgraph.Master(v);
    for (const DistributedGraph::Replica& r : dgraph.Replicas(v)) {
      const uint32_t gather_local = DirectedEdgeCount(r, gather_dir, directed);
      if (gather_local > 0) {
        ReplicaCostTables::GatherEntry e;
        e.partition = r.partition;
        e.seconds = static_cast<double>(gather_local) *
                    cost.seconds_per_edge_op / speeds[r.partition];
        if (r.partition != master) {
          e.messages = cost.sender_side_aggregation ? 1 : gather_local;
          e.message_bytes = e.messages * cost.bytes_per_message;
        }
        t.gather.push_back(e);
      }
      const uint32_t scatter_local =
          DirectedEdgeCount(r, scatter_dir, directed);
      if (scatter_local > 0) {
        t.scatter.push_back({r.partition, r.partition != master,
                             static_cast<double>(scatter_local) *
                                 cost.seconds_per_edge_op /
                                 speeds[r.partition]});
      }
    }
    t.gather_offsets[v + 1] = t.gather.size();
    t.scatter_offsets[v + 1] = t.scatter.size();
  }
  return t;
}

// Compile-time direction-resolved neighbor iteration; for kBoth on a
// directed graph, in-neighbors are visited before out-neighbors.
template <EdgeDirection kDir, typename Body>
inline void ForEachNeighbor(const Graph& g, VertexId v, Body&& body) {
  if constexpr (kDir == EdgeDirection::kIn) {
    for (VertexId u : g.InNeighbors(v)) body(u);
  } else if constexpr (kDir == EdgeDirection::kOut) {
    for (VertexId u : g.OutNeighbors(v)) body(u);
  } else {
    if (g.directed()) {
      for (VertexId u : g.InNeighbors(v)) body(u);
      for (VertexId u : g.OutNeighbors(v)) body(u);
    } else {
      for (VertexId u : g.Neighbors(v)) body(u);
    }
  }
}

// The adjacency row a single-direction gather reads.
template <EdgeDirection kDir>
inline std::span<const VertexId> GatherRow(const Graph& g, VertexId v) {
  static_assert(kDir != EdgeDirection::kBoth,
                "a two-direction gather reads two rows");
  if constexpr (kDir == EdgeDirection::kIn) {
    return g.InNeighbors(v);
  } else {
    return g.OutNeighbors(v);
  }
}

// Vertices in ascending gather degree, ties by id (one counting sort), so
// the four rows of a lockstep group have nearly equal lengths.
template <EdgeDirection kDir>
std::vector<VertexId> OrderByGatherDegree(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<uint64_t> starts;
  for (VertexId v = 0; v < n; ++v) {
    const size_t d = GatherRow<kDir>(g, v).size();
    if (d + 2 > starts.size()) starts.resize(d + 2, 0);
    ++starts[d + 1];
  }
  for (size_t d = 1; d < starts.size(); ++d) starts[d] += starts[d - 1];
  std::vector<VertexId> order(n);
  for (VertexId v = 0; v < n; ++v) {
    order[starts[GatherRow<kDir>(g, v).size()]++] = v;
  }
  return order;
}

// Detects the kSourceOnlyGather marker (see PageRankProgram): true when the
// program's GatherContribution is a pure function of the source vertex, so
// the all-active kernel may evaluate it once per source per superstep.
template <typename Program>
concept SourceOnlyGather = requires {
  { Program::kSourceOnlyGather } -> std::convertible_to<bool>;
} && Program::kSourceOnlyGather;

/// The superstep kernel: the program's calls inline, its directions and
/// all-active flag are compile-time constants, and all cost accounting runs
/// off precomputed tables. See the header comment for why each deviation
/// from the oracle's plain loop is bit-exact.
template <VertexProgram Program>
EngineStats RunKernel(const Graph& g, const DistributedGraph& dgraph,
                      const EngineCostModel& cost, const Program& program) {
  constexpr EdgeDirection kGatherDir = Program::kGatherDirection;
  constexpr EdgeDirection kScatterDir = Program::kScatterDirection;
  constexpr bool kAllActive = Program::kAllActive;
  const VertexId n = g.num_vertices();
  const PartitionId k = dgraph.k();
  const std::vector<double> speeds = ResolveWorkerSpeeds(cost, k);

  EngineStats stats;
  stats.compute_seconds_per_worker.assign(k, 0.0);
  stats.bytes_per_worker.assign(k, 0);
  stats.values.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    stats.values[v] = program.InitialValue(v, g);
  }

  const ReplicaCostTables tables =
      BuildReplicaCostTables(dgraph, cost, speeds, kGatherDir, kScatterDir);

  // Gather set for the current iteration. All-active programs process every
  // vertex every superstep, so the explicit list (and its per-superstep
  // rebuild) exists only for frontier programs, where an epoch stamp
  // replaces an O(n) membership reset.
  std::vector<VertexId> gather_list;
  std::vector<uint64_t> frontier_epoch;
  [[maybe_unused]] uint64_t epoch = 1;
  if constexpr (!kAllActive) {
    frontier_epoch.assign(n, 0);
    for (VertexId v : program.InitialFrontier(g)) {
      if (frontier_epoch[v] != epoch) {
        frontier_epoch[v] = epoch;
        gather_list.push_back(v);
      }
    }
  }

  std::vector<double> iter_compute(k);
  std::vector<uint64_t> iter_bytes(k);
  std::vector<double> new_values;
  std::vector<VertexId> changed;

  double barrier_wait = 0;  // idle worker-seconds at barriers

  // All-active fast path: the cost accounting of every superstep is the
  // same, so run the accounting loops once — in the exact order of the
  // frontier branch below: per vertex gather replicas then apply, then a
  // second pass of scatter replicas — and replay the per-partition
  // aggregates each superstep. stats arrays then receive the same bitwise
  // additions that recomputed per-iteration arrays would give.
  std::vector<double> agg_compute;
  std::vector<uint64_t> agg_bytes;
  uint64_t agg_gather_messages = 0;
  uint64_t agg_sync_messages = 0;
  uint64_t agg_step_bytes = 0;   // Σ_p agg_bytes[p]
  double agg_step_cost = 0;      // max compute + network + barrier latency
  double agg_step_barrier = 0;   // idle worker-seconds at the barrier
  if constexpr (kAllActive) {
    agg_compute.assign(k, 0.0);
    agg_bytes.assign(k, 0);
    for (VertexId v = 0; v < n; ++v) {
      const PartitionId master = dgraph.Master(v);
      for (uint64_t i = tables.gather_offsets[v];
           i < tables.gather_offsets[v + 1]; ++i) {
        const ReplicaCostTables::GatherEntry& e = tables.gather[i];
        agg_compute[e.partition] += e.seconds;
        if (e.messages != 0) {
          agg_gather_messages += e.messages;
          agg_bytes[e.partition] += e.message_bytes;  // send
          agg_bytes[master] += e.message_bytes;       // receive
        }
      }
      agg_compute[master] += tables.apply_seconds[master];
    }
    for (VertexId v = 0; v < n; ++v) {
      const PartitionId master = dgraph.Master(v);
      for (uint64_t i = tables.scatter_offsets[v];
           i < tables.scatter_offsets[v + 1]; ++i) {
        const ReplicaCostTables::ScatterEntry& e = tables.scatter[i];
        agg_compute[e.partition] += e.seconds;
        if (e.mirror) {
          ++agg_sync_messages;
          agg_bytes[master] += cost.bytes_per_message;       // send
          agg_bytes[e.partition] += cost.bytes_per_message;  // receive
        }
      }
    }
    double max_compute = 0;
    double sum_compute = 0;
    uint64_t max_bytes = 0;
    for (PartitionId p = 0; p < k; ++p) {
      sum_compute += agg_compute[p];
      max_compute = std::max(max_compute, agg_compute[p]);
      max_bytes = std::max(max_bytes, agg_bytes[p]);
      agg_step_bytes += agg_bytes[p];
    }
    agg_step_barrier = max_compute * static_cast<double>(k) - sum_compute;
    agg_step_cost =
        max_compute +
        static_cast<double>(max_bytes) / cost.network_bytes_per_second +
        cost.superstep_latency_seconds;
  }

  // Source-only gather hoist (all-active only): contributions depend on the
  // source alone and values are frozen during a superstep's gather, so each
  // source's contribution is computed once instead of once per edge.
  // Sources that are never gathered from may hold garbage (e.g. inf for a
  // zero-out-degree PageRank source) — those slots are never read, so no
  // unhoisted loop would have evaluated them either.
  std::vector<double> hoisted_contrib;
  std::vector<VertexId> by_degree;
  if constexpr (kAllActive && SourceOnlyGather<Program>) {
    hoisted_contrib.resize(n);
    by_degree = OrderByGatherDegree<kGatherDir>(g);
  }

  const uint32_t max_iterations = program.max_iterations();
  for (uint32_t iter = 0; iter < max_iterations; ++iter) {
    if constexpr (kAllActive) {
      if (n == 0) break;
    } else {
      if (gather_list.empty()) break;
    }
    const uint64_t messages_before =
        stats.gather_messages + stats.sync_messages;

    if constexpr (kAllActive) {
      stats.active_per_iteration.push_back(n);

      // --- Gather + Apply (values only; accounting is precomputed) ---
      new_values.assign(n, 0.0);
      if constexpr (SourceOnlyGather<Program>) {
        for (VertexId u = 0; u < n; ++u) {
          hoisted_contrib[u] =
              program.GatherContribution(u, u, stats.values[u], g);
        }
        // Lockstep gather: each group of four vertices, consecutive in
        // degree order, sums with four accumulators — all four over the
        // shortest row, then the longer three, two and one finish theirs —
        // so four addition chains overlap. The n mod 4 vertices of lowest
        // degree are summed one at a time first.
        const double* contrib = hoisted_contrib.data();
        const VertexId* order = by_degree.data();
        auto apply = [&](VertexId v, double acc, size_t contributions) {
          new_values[v] =
              program.Apply(v, stats.values[v], acc, contributions, g);
        };
        size_t idx = 0;
        for (; idx < n % 4; ++idx) {
          const VertexId v = order[idx];
          const std::span<const VertexId> row = GatherRow<kGatherDir>(g, v);
          double acc = program.GatherNeutral();
          for (VertexId u : row) acc = program.Combine(acc, contrib[u]);
          apply(v, acc, row.size());
        }
        for (; idx < n; idx += 4) {
          const VertexId v0 = order[idx], v1 = order[idx + 1],
                         v2 = order[idx + 2], v3 = order[idx + 3];
          const std::span<const VertexId> w0 = GatherRow<kGatherDir>(g, v0);
          const std::span<const VertexId> w1 = GatherRow<kGatherDir>(g, v1);
          const std::span<const VertexId> w2 = GatherRow<kGatherDir>(g, v2);
          const std::span<const VertexId> w3 = GatherRow<kGatherDir>(g, v3);
          const VertexId *r0 = w0.data(), *r1 = w1.data(), *r2 = w2.data(),
                         *r3 = w3.data();
          double a0 = program.GatherNeutral(), a1 = a0, a2 = a0, a3 = a0;
          size_t i = 0;
          for (; i < w0.size(); ++i) {
            a0 = program.Combine(a0, contrib[r0[i]]);
            a1 = program.Combine(a1, contrib[r1[i]]);
            a2 = program.Combine(a2, contrib[r2[i]]);
            a3 = program.Combine(a3, contrib[r3[i]]);
          }
          for (; i < w1.size(); ++i) {
            a1 = program.Combine(a1, contrib[r1[i]]);
            a2 = program.Combine(a2, contrib[r2[i]]);
            a3 = program.Combine(a3, contrib[r3[i]]);
          }
          for (; i < w2.size(); ++i) {
            a2 = program.Combine(a2, contrib[r2[i]]);
            a3 = program.Combine(a3, contrib[r3[i]]);
          }
          for (; i < w3.size(); ++i) a3 = program.Combine(a3, contrib[r3[i]]);
          apply(v0, a0, w0.size());
          apply(v1, a1, w1.size());
          apply(v2, a2, w2.size());
          apply(v3, a3, w3.size());
        }
      } else {
        for (VertexId v = 0; v < n; ++v) {
          double acc = program.GatherNeutral();
          uint64_t contributions = 0;
          ForEachNeighbor<kGatherDir>(g, v, [&](VertexId u) {
            acc = program.Combine(
                acc, program.GatherContribution(u, v, stats.values[u], g));
            ++contributions;
          });
          new_values[v] =
              program.Apply(v, stats.values[v], acc, contributions, g);
        }
      }

      // --- Commit (every vertex scatters; accounting is precomputed) ---
      for (VertexId v = 0; v < n; ++v) {
        stats.values[v] = new_values[v];
      }

      // --- Superstep bookkeeping from the precomputed aggregates ---
      stats.gather_messages += agg_gather_messages;
      stats.sync_messages += agg_sync_messages;
      for (PartitionId p = 0; p < k; ++p) {
        stats.compute_seconds_per_worker[p] += agg_compute[p];
        stats.bytes_per_worker[p] += agg_bytes[p];
      }
      stats.total_network_bytes += agg_step_bytes;
      barrier_wait += agg_step_barrier;
      EngineMetrics::Get().superstep_cost->Record(agg_step_cost);
      stats.simulated_seconds += agg_step_cost;
      stats.messages_per_iteration.push_back(
          stats.gather_messages + stats.sync_messages - messages_before);
      ++stats.iterations;
    } else {
      std::fill(iter_compute.begin(), iter_compute.end(), 0.0);
      std::fill(iter_bytes.begin(), iter_bytes.end(), 0);
      changed.clear();
      stats.active_per_iteration.push_back(gather_list.size());

      // --- Gather + Apply ---
      new_values.assign(gather_list.size(), 0.0);
      for (size_t idx = 0; idx < gather_list.size(); ++idx) {
        const VertexId v = gather_list[idx];
        double acc = program.GatherNeutral();
        uint64_t contributions = 0;
        ForEachNeighbor<kGatherDir>(g, v, [&](VertexId u) {
          acc = program.Combine(
              acc, program.GatherContribution(u, v, stats.values[u], g));
          ++contributions;
        });
        const PartitionId master = dgraph.Master(v);
        for (uint64_t i = tables.gather_offsets[v];
             i < tables.gather_offsets[v + 1]; ++i) {
          const ReplicaCostTables::GatherEntry& e = tables.gather[i];
          iter_compute[e.partition] += e.seconds;
          if (e.messages != 0) {
            stats.gather_messages += e.messages;
            iter_bytes[e.partition] += e.message_bytes;  // send
            iter_bytes[master] += e.message_bytes;       // receive
          }
        }
        iter_compute[master] += tables.apply_seconds[master];  // apply
        new_values[idx] =
            program.Apply(v, stats.values[v], acc, contributions, g);
      }

      // --- Commit + Scatter synchronization ---
      for (size_t idx = 0; idx < gather_list.size(); ++idx) {
        const VertexId v = gather_list[idx];
        // Initially-activated vertices scatter in their first superstep
        // even if Apply left their value unchanged (the SSSP source must
        // announce its distance 0 to its neighbors).
        const bool did_change =
            stats.values[v] != new_values[idx] || iter == 0;
        stats.values[v] = new_values[idx];
        if (!did_change) continue;
        changed.push_back(v);
        const PartitionId master = dgraph.Master(v);
        for (uint64_t i = tables.scatter_offsets[v];
             i < tables.scatter_offsets[v + 1]; ++i) {
          const ReplicaCostTables::ScatterEntry& e = tables.scatter[i];
          iter_compute[e.partition] += e.seconds;
          if (e.mirror) {
            // The mirror needs the updated vertex value before scattering.
            ++stats.sync_messages;
            iter_bytes[master] += cost.bytes_per_message;       // send
            iter_bytes[e.partition] += cost.bytes_per_message;  // receive
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
          static_cast<double>(max_bytes) / cost.network_bytes_per_second +
          cost.superstep_latency_seconds;
      EngineMetrics::Get().superstep_cost->Record(step_cost);
      stats.simulated_seconds += step_cost;
      stats.messages_per_iteration.push_back(
          stats.gather_messages + stats.sync_messages - messages_before);
      ++stats.iterations;
    }

    // --- Next frontier ---
    if constexpr (!kAllActive) {
      ++epoch;
      gather_list.clear();
      for (VertexId v : changed) {
        ForEachNeighbor<kScatterDir>(g, v, [&](VertexId w) {
          if (frontier_epoch[w] != epoch) {
            frontier_epoch[w] = epoch;
            gather_list.push_back(w);
          }
        });
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

}  // namespace sgp::engine_detail

#endif  // SGP_ENGINE_KERNEL_H_
