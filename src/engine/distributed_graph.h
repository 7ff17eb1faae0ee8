#ifndef SGP_ENGINE_DISTRIBUTED_GRAPH_H_
#define SGP_ENGINE_DISTRIBUTED_GRAPH_H_

#include <span>
#include <vector>

#include "graph/graph.h"
#include "partition/partitioning.h"

namespace sgp {

/// Cluster-resident view of a partitioned graph, as a GAS engine like
/// PowerLyra materializes it: every partition holds the edges assigned to
/// it, and every vertex has a master copy plus mirror copies on each
/// partition holding at least one of its incident edges (Appendix B,
/// Figure 10). All communication accounting of the analytics engine is a
/// function of this structure.
class DistributedGraph {
 public:
  /// One copy of a vertex on one partition, with the number of local
  /// incident edges by direction. A copy with in_edges > 0 participates in
  /// gather; one with out_edges > 0 needs the vertex value for scatter.
  struct Replica {
    PartitionId partition = kInvalidPartition;
    uint32_t in_edges = 0;   // local edges (·, v)
    uint32_t out_edges = 0;  // local edges (v, ·)
  };

  DistributedGraph(const Graph& graph, const Partitioning& partitioning);

  const Graph& graph() const { return *graph_; }
  PartitionId k() const { return k_; }

  /// Partition of the vertex's master copy.
  PartitionId Master(VertexId v) const { return master_[v]; }

  /// All copies of `v`, one entry per partition where the vertex is
  /// present. The master copy is always the first entry (pinned by
  /// DistributedGraphTest.MasterIsAlwaysFrontReplica); mirrors follow in
  /// first-touch order of v's edges by id, except that the first-touched
  /// one takes the master's place in that order.
  std::span<const Replica> Replicas(VertexId v) const {
    return {replicas_.data() + offsets_[v],
            replicas_.data() + offsets_[v + 1]};
  }

  /// Total number of vertex copies across all partitions (== n times the
  /// replication factor). The engine's replica cost tables reserve off it.
  uint64_t num_replicas() const { return replicas_.size(); }

  /// Edges assigned to each partition.
  const std::vector<uint64_t>& edges_per_partition() const {
    return edges_per_partition_;
  }

  /// Average number of copies per vertex.
  double replication_factor() const { return replication_factor_; }

 private:
  const Graph* graph_;
  PartitionId k_;
  std::vector<PartitionId> master_;
  std::vector<uint64_t> offsets_;  // size n+1, into replicas_
  std::vector<Replica> replicas_;
  std::vector<uint64_t> edges_per_partition_;
  double replication_factor_ = 0;
};

}  // namespace sgp

#endif  // SGP_ENGINE_DISTRIBUTED_GRAPH_H_
