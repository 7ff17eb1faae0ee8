#ifndef SGP_ENGINE_ENGINE_H_
#define SGP_ENGINE_ENGINE_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "engine/distributed_graph.h"
#include "engine/programs.h"
#include "graph/graph.h"
#include "partition/partitioning.h"

namespace sgp {

/// Cost model translating simulated work into time. The defaults are
/// calibrated so that, at the benchmark graph scale (2^12–2^16 vertices)
/// and the paper's worker counts (8–128), the compute : network : barrier
/// ratios match those of the paper's EC2 cluster at its (10^4× larger)
/// scale — per-superstep barrier latency must not drown the per-worker
/// terms, or every partitioning would look identical.
struct EngineCostModel {
  double seconds_per_edge_op = 1e-7;
  double seconds_per_vertex_op = 2e-7;
  double network_bytes_per_second = 1e8;
  double superstep_latency_seconds = 1e-4;
  uint32_t bytes_per_message = 16;  // 8B value + 8B vertex id/header

  /// Relative speed of each worker for heterogeneous clusters (Appendix A:
  /// LeBeane et al. [29]); empty = all workers equal. A speed of 2 halves
  /// that worker's compute time. Pair with
  /// PartitionConfig::capacity_weights to place proportionally more load
  /// on faster machines.
  std::vector<double> worker_speeds;

  /// Sender-side message aggregation (Section B / [32]): when true (the
  /// default, matching PowerLyra), each mirror sends one combined partial
  /// aggregate per vertex per iteration; when false, every cut gather
  /// edge sends its own message, which is how Bourse et al. [10] compare
  /// cut models without aggregation.
  bool sender_side_aggregation = true;
};

/// Everything the paper measures about one analytics run (Section 5.1.4).
struct EngineStats {
  uint32_t iterations = 0;

  /// mirror→master partial-aggregate messages (gather synchronization).
  uint64_t gather_messages = 0;

  /// master→mirror value-update messages (scatter synchronization). Zero
  /// for edge-cut placements on uni-directional workloads (Appendix B).
  uint64_t sync_messages = 0;

  /// Total network traffic in bytes.
  uint64_t total_network_bytes = 0;

  /// Per-worker accumulated computation seconds ("distribution of
  /// computation time", Figure 4).
  std::vector<double> compute_seconds_per_worker;

  /// Per-worker bytes sent + received.
  std::vector<uint64_t> bytes_per_worker;

  /// Cost-model execution time: sum over supersteps of
  /// max-compute + max-network + barrier latency (Figure 3).
  double simulated_seconds = 0;

  /// Per-superstep dynamics (Section 5.1.3): vertices gathering and
  /// messages exchanged in each iteration. PageRank is uniform and
  /// stable; WCC starts all-active and shrinks; SSSP grows in BFS order
  /// and then shrinks — the reason it breaks the uniform-workload
  /// assumption of the SGP objectives.
  std::vector<uint64_t> active_per_iteration;
  std::vector<uint64_t> messages_per_iteration;

  /// Final vertex values; identical to a single-machine run regardless of
  /// partitioning (validated by tests).
  std::vector<double> values;
};

/// Simulated synchronous GAS analytics engine over k workers. The vertex
/// values are computed exactly (the synchronous model makes results
/// independent of placement); what the simulation adds is the faithful
/// per-worker communication and computation accounting dictated by the
/// master/mirror protocol of Appendix B:
///   - every gathering vertex receives one partial-aggregate message from
///     each mirror that hosts gather-direction edges;
///   - every vertex whose value changed sends one update message to each
///     mirror that hosts scatter-direction edges.
///
/// Each Run() overload instantiates the superstep kernel for its program
/// type (src/engine/kernel.h, docs/ENGINE.md): the program's directions and
/// all-active flag are compile-time constants, its calls inline, and the
/// per-replica cost accounting runs off tables precomputed once per run.
class AnalyticsEngine {
 public:
  AnalyticsEngine(const Graph& graph, const Partitioning& partitioning,
                  EngineCostModel cost_model = {});

  /// Runs `program` to convergence (or its iteration cap). An SSSP source
  /// must be a vertex of the graph (checked).
  EngineStats Run(const PageRankProgram& program) const;
  EngineStats Run(const WccProgram& program) const;
  EngineStats Run(const SsspProgram& program) const;

  const DistributedGraph& distributed_graph() const { return dgraph_; }

 private:
  const Graph* graph_;
  DistributedGraph dgraph_;
  EngineCostModel cost_;
};

}  // namespace sgp

#endif  // SGP_ENGINE_ENGINE_H_
