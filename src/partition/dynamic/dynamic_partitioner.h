#ifndef SGP_PARTITION_DYNAMIC_DYNAMIC_PARTITIONER_H_
#define SGP_PARTITION_DYNAMIC_DYNAMIC_PARTITIONER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "partition/partitioning.h"
#include "partition/state.h"

namespace sgp {

/// Options of the dynamic partitioner.
struct DynamicOptions {
  PartitionId k = 4;

  /// Balance slack β over the *current* vertex count.
  double balance_slack = 1.1;

  /// A placed vertex migrates only when its neighbor-majority partition
  /// scores at least this factor better than its current one (Leopard's
  /// migration criterion; higher = fewer migrations).
  double migration_gain = 1.5;

  /// Hash seed for first-contact placements.
  uint64_t seed = 42;
};

/// Incremental edge-cut partitioning for evolving graphs — the
/// re-partitioning family of Section 2 (Hermes [33], Leopard [23]):
/// instead of re-running a partitioner when the graph changes, each
/// arriving edge updates a per-vertex neighbor-location synopsis, new
/// vertices are placed greedily next to their first neighbors, and a
/// vertex is migrated when enough of its neighborhood has accumulated
/// elsewhere. Bounded state (O(active vertices · replicas)), bounded
/// per-edge work, explicit migration accounting.
class DynamicPartitioner {
 public:
  explicit DynamicPartitioner(const DynamicOptions& options);

  /// Seeds the state from an existing partitioning of `graph` (the
  /// "initial partitioning" Hermes refines). Edges of `graph` populate
  /// the neighbor synopsis; subsequent AddEdge calls evolve it.
  void Bootstrap(const Graph& graph, const Partitioning& partitioning);

  /// Feeds one new undirected edge; grows the vertex space as needed.
  /// Returns the number of migrations it triggered (0, 1 or 2).
  uint32_t AddEdge(VertexId u, VertexId v);

  /// Number of partitions.
  PartitionId k() const { return options_.k; }

  /// Current partition of `v` (kInvalidPartition if never seen).
  PartitionId PartitionOf(VertexId v) const;

  /// Vertices currently tracked (max id seen + 1).
  VertexId num_vertices() const {
    return static_cast<VertexId>(assignment_.size());
  }

  /// Current per-partition vertex counts.
  const std::vector<uint64_t>& partition_sizes() const {
    return state_.loads();
  }

  /// Bytes of working state (loads, assignment, neighbor synopsis,
  /// retained adjacency) — the Snapshot's state_bytes.
  uint64_t SynopsisBytes() const;

  /// Total migrations since construction/bootstrap.
  uint64_t total_migrations() const { return total_migrations_; }

  /// Materializes a Partitioning of `graph` from the current assignment
  /// (graph must contain all fed vertices).
  Partitioning Snapshot(const Graph& graph) const;

 private:
  void EnsureVertex(VertexId v);
  void NoteNeighbor(VertexId v, PartitionId p);
  void ForgetNeighbor(VertexId v, PartitionId p);
  PartitionId PlaceNew(VertexId v);
  bool MaybeMigrate(VertexId v);
  double Capacity() const;
  PartitionId LeastLoaded() const;
  /// Reassigns `v` to `to`, fixing loads and every neighbor's synopsis.
  void MoveVertex(VertexId v, PartitionId to);

  DynamicOptions options_;
  std::vector<PartitionId> assignment_;
  PartitionState state_;  // per-partition vertex loads
  // Neighbor-partition counts per vertex (tiny sorted-by-insertion vecs).
  std::vector<std::vector<std::pair<PartitionId, uint32_t>>> neighbor_counts_;
  // Adjacency retained so migrations can update neighbors' synopses.
  std::vector<std::vector<VertexId>> adjacency_;
  uint64_t placed_vertices_ = 0;
  uint64_t total_migrations_ = 0;
};

}  // namespace sgp

#endif  // SGP_PARTITION_DYNAMIC_DYNAMIC_PARTITIONER_H_
