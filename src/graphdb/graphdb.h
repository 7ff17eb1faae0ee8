#ifndef SGP_GRAPHDB_GRAPHDB_H_
#define SGP_GRAPHDB_GRAPHDB_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "partition/partitioning.h"

namespace sgp {

/// Cost model of the simulated scale-out graph database (the JanusGraph +
/// Cassandra stack of Section 5.2, Appendix C). Defaults approximate an
/// in-memory Cassandra read path and a datacenter network hop.
struct DbCostModel {
  /// Service time of reading one vertex record / adjacency list at the
  /// storage layer.
  double seconds_per_read = 20e-6;

  /// One-way network latency between any two machines (and from the client
  /// to the cluster).
  double network_latency_seconds = 150e-6;

  /// Worker-side CPU overhead of serving one remote sub-request (RPC
  /// dispatch, deserialization, response marshalling). This is what makes
  /// a lower edge-cut ratio buy throughput and not just latency: every
  /// extra partition touched by a query costs the cluster real work.
  double seconds_per_remote_task = 120e-6;

  /// Coefficient of variation of per-task service time (lognormal with
  /// mean 1). Storage reads are not deterministic in practice; the
  /// variability is what makes high fan-out queries wait for stragglers.
  /// 0 disables the noise.
  double service_time_cv = 0.7;

  /// Request-message overhead in bytes.
  uint32_t bytes_per_request = 64;

  /// Size of one vertex record on the wire.
  uint32_t bytes_per_vertex_record = 128;
};

/// Query-routing policy of the cluster front end (Appendix C).
enum class RouterMode {
  /// Queries are forwarded to the worker owning the start vertex, so the
  /// first adjacency read is local — what the paper implemented in
  /// JanusGraph ("partitioning-aware query router").
  kPartitionAware,
  /// Oblivious front end: a deterministic pseudo-random worker
  /// coordinates, paying an extra remote round for the start vertex.
  kRandom,
};

/// Online query kinds (Section 5.2.3).
enum class QueryKind {
  kOneHop,        // retrieve all adjacent vertices of a start vertex
  kTwoHop,        // retrieve the 2-hop neighborhood
  kShortestPath,  // single-pair shortest path (BFS)
};

/// Human-readable name of `kind`.
std::string_view QueryKindName(QueryKind kind);

/// One query instance.
struct Query {
  QueryKind kind = QueryKind::kOneHop;
  VertexId start = 0;
  VertexId target = 0;  // only for kShortestPath
};

/// Execution plan of one query against the partitioned store: a sequence
/// of fork-join rounds, each a set of per-worker read batches. The
/// discrete-event simulator replays plans against FIFO worker queues; the
/// static fields (reads, messages, bytes) drive the communication figures.
struct QueryPlan {
  PartitionId coordinator = 0;

  struct Task {
    PartitionId worker = 0;
    uint64_t reads = 0;
  };
  /// Rounds execute sequentially; tasks within a round run in parallel on
  /// their workers. Tasks on a worker other than the coordinator cost a
  /// request/response network round trip.
  std::vector<std::vector<Task>> rounds;

  uint64_t total_reads = 0;
  uint64_t remote_messages = 0;  // requests + responses
  uint64_t network_bytes = 0;

  /// Query answer size (e.g. number of neighbors, or path length), used by
  /// correctness tests: must not depend on the partitioning.
  uint64_t result_size = 0;
};

/// Simulated scale-out graph database: an edge-cut partitioned
/// adjacency-list store (each worker holds the adjacency of its master
/// vertices) plus a partitioning-aware query router, mirroring the
/// JanusGraph deployment of Appendix C.
class GraphDatabase {
 public:
  GraphDatabase(const Graph& graph, const Partitioning& partitioning,
                DbCostModel cost_model = {},
                RouterMode router = RouterMode::kPartitionAware);

  const Graph& graph() const { return *graph_; }
  PartitionId k() const { return k_; }
  const DbCostModel& cost_model() const { return cost_; }

  /// Worker storing (the adjacency of) vertex `u`.
  PartitionId Owner(VertexId u) const { return owner_[u]; }

  /// Worker that coordinates a query starting at `u` under the configured
  /// router mode.
  PartitionId Coordinator(VertexId u) const;

  /// Adjacency of `u` read from its owner's local store (not from the
  /// input graph) — exercised by tests to validate the store itself.
  std::span<const VertexId> ReadAdjacency(VertexId u) const;

  /// Builds the execution plan of `query`.
  QueryPlan Plan(const Query& query) const;

  /// Per-vertex read counts of `query` (start, neighbors, …), used to
  /// build the workload-aware weighted graph of Figure 8. Accumulates
  /// into `counts` (size num_vertices).
  void AccumulateAccessCounts(const Query& query,
                              std::vector<uint64_t>& counts) const;

 private:
  // Per-worker adjacency store (vertex -> local copy of its neighbors).
  struct WorkerStore {
    std::vector<uint64_t> offsets;  // indexed by local vertex slot
    std::vector<VertexId> adjacency;
  };

  QueryPlan PlanOneHop(VertexId start) const;
  QueryPlan PlanTwoHop(VertexId start) const;
  QueryPlan PlanShortestPath(VertexId start, VertexId target) const;

  // Groups one read per vertex by owner, in ascending worker order.
  void GroupByOwner(std::span<const VertexId> vertices,
                    std::vector<QueryPlan::Task>* out) const;

  // Appends a fetch round and charges messages/bytes for the remote tasks.
  void AddFetchRound(std::vector<QueryPlan::Task> round,
                     QueryPlan* plan) const;

  const Graph* graph_;
  PartitionId k_;
  DbCostModel cost_;
  RouterMode router_ = RouterMode::kPartitionAware;
  std::vector<PartitionId> owner_;
  std::vector<uint32_t> local_slot_;  // vertex -> slot in its worker store
  std::vector<WorkerStore> stores_;
};

}  // namespace sgp

#endif  // SGP_GRAPHDB_GRAPHDB_H_
