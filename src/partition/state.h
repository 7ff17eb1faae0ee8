#ifndef SGP_PARTITION_STATE_H_
#define SGP_PARTITION_STATE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "partition/partitioning.h"
#include "partition/vertexcut/replica_state.h"

namespace sgp {

/// Shared partition-state core: the O(n + k) synopsis every streaming
/// partitioner maintains (Section 2). One PartitionState owns the
/// per-partition loads, the mean-1 normalized capacity weights of
/// heterogeneous clusters, the hard balance caps of Equation (1), the
/// streaming degree table, and the replica sets A(u) — replacing the
/// per-algorithm copies that used to live in greedy_core, HDRF, PGG and
/// Ginger. Components beyond loads+weights are opt-in (Init*) so
/// SynopsisBytes() reflects exactly what an algorithm kept.
///
/// All accessors preserve the exact floating-point expressions of the
/// pre-refactor algorithms (effective load = double(load)/weight, room =
/// !(double(load) + 1 > capacity)), so moving onto this class is
/// byte-identical per seed.
class PartitionState {
 public:
  explicit PartitionState(const PartitionConfig& config);

  PartitionId k() const { return k_; }

  /// True when the config carries per-partition capacity weights.
  bool heterogeneous() const { return heterogeneous_; }

  /// Mean-1 normalized capacity weights (all ones when homogeneous).
  const std::vector<double>& weights() const { return weights_; }

  // ---------------------------------------------------------------------
  // Per-partition loads (vertex counts for edge-cut algorithms, edge
  // counts for vertex-cut algorithms).
  // ---------------------------------------------------------------------
  const std::vector<uint64_t>& loads() const { return loads_; }
  uint64_t load(PartitionId p) const { return loads_[p]; }
  void AddLoad(PartitionId p) { ++loads_[p]; }
  void RemoveLoad(PartitionId p) { --loads_[p]; }

  /// Capacity-normalized load: a twice-as-big machine looks half as
  /// loaded (Appendix A heterogeneous balancing).
  double EffectiveLoad(PartitionId p) const {
    return static_cast<double>(loads_[p]) / weights_[p];
  }

  /// Least effectively-loaded partition, ties toward the lower id.
  PartitionId LeastLoaded() const;

  // ---------------------------------------------------------------------
  // Hard balance caps C_i = max(1, β·(total/k)·w_i) of Equation (1).
  // ---------------------------------------------------------------------
  void InitCapacities(uint64_t total_items, double balance_slack);
  const std::vector<double>& capacities() const { return capacity_; }
  double capacity(PartitionId p) const { return capacity_[p]; }
  bool HasRoom(PartitionId p) const {
    return !(static_cast<double>(loads_[p]) + 1.0 > capacity_[p]);
  }

  // ---------------------------------------------------------------------
  // Incrementally maintained effective loads (HDRF reads all k per edge,
  // so the division is paid once per placement, not k times per edge).
  // ---------------------------------------------------------------------
  void InitEffectiveLoads();
  const std::vector<double>& effective() const { return effective_; }
  void AddLoadUpdatingEffective(PartitionId p) {
    ++loads_[p];
    effective_[p] = static_cast<double>(loads_[p]) / weights_[p];
  }

  // ---------------------------------------------------------------------
  // Secondary loads (Ginger balances vertex and edge load jointly).
  // ---------------------------------------------------------------------
  void InitSecondaryLoads();
  const std::vector<uint64_t>& secondary_loads() const { return secondary_; }
  void AddSecondaryLoad(PartitionId p, uint64_t delta) {
    secondary_[p] += delta;
  }

  // ---------------------------------------------------------------------
  // Streaming degree table (HDRF's partial degrees, PGG's placed
  // degrees — the "greedy degree table" of Section 4.2.2).
  // ---------------------------------------------------------------------
  void InitDegreeTable(VertexId num_vertices);
  const std::vector<uint32_t>& degrees() const { return degree_; }
  uint32_t degree(VertexId v) const { return degree_[v]; }
  void IncrementDegree(VertexId v) { ++degree_[v]; }

  // ---------------------------------------------------------------------
  // Replica sets A(u).
  // ---------------------------------------------------------------------
  void InitReplicas(VertexId num_vertices);
  bool replicas_enabled() const { return replicas_enabled_; }
  ReplicaState& replicas() { return replicas_; }
  const ReplicaState& replicas() const { return replicas_; }

  /// Grows the degree table / replica sets to cover `v` — used by ingest
  /// paths that discover the vertex-id space as edges arrive (disk
  /// streaming) instead of knowing n up front.
  void EnsureVertex(VertexId v);

  /// Vertices currently covered by the degree table (0 when disabled).
  VertexId num_tracked_vertices() const {
    return static_cast<VertexId>(degree_.size());
  }

  // ---------------------------------------------------------------------
  // Elastic resharding: growing k at runtime.
  // ---------------------------------------------------------------------

  /// Appends one empty partition (weight 1.0) and returns its id — the
  /// split path of the elastic resharder. Only supported on homogeneous
  /// states whose derived per-partition tables (capacities, effective
  /// loads, secondary loads) are uninitialized; growing those would
  /// silently change every other partition's normalized weight.
  PartitionId AddPartition();

  // ---------------------------------------------------------------------
  // Synopsis accounting: Partitioning::state_bytes is computed one way
  // for every algorithm — the bytes of every live component plus whatever
  // auxiliary state the algorithm registered (assignment arrays,
  // per-vertex neighbor tables).
  // ---------------------------------------------------------------------
  void NoteAuxiliaryBytes(uint64_t bytes) { aux_bytes_ += bytes; }
  uint64_t SynopsisBytes() const;

 private:
  PartitionId k_;
  bool heterogeneous_;
  std::vector<double> weights_;
  std::vector<uint64_t> loads_;
  std::vector<double> capacity_;
  std::vector<double> effective_;
  std::vector<uint64_t> secondary_;
  std::vector<uint32_t> degree_;
  bool degree_enabled_ = false;
  ReplicaState replicas_;
  bool replicas_enabled_ = false;
  uint64_t aux_bytes_ = 0;
};

/// Maps hash values to partitions, proportionally to capacities on
/// heterogeneous clusters and as plain `hash mod k` on homogeneous ones
/// (so homogeneous results are unchanged by this feature). Built from the
/// PartitionState that owns the normalized weights.
class CapacityAwareHasher {
 public:
  explicit CapacityAwareHasher(const PartitionState& state);

  /// Deterministic partition pick for a (well-mixed) hash value.
  PartitionId Pick(uint64_t hash) const;

 private:
  PartitionId k_;
  std::vector<double> cumulative_;  // empty on homogeneous clusters
};

/// Sharded synopsis for the parallel-ingest drivers: one published global
/// PartitionState plus per-worker unpublished deltas. Between barriers a
/// worker sees the published state plus only its own delta — the stale
/// view whose quality cost bench_ablation_parallel_ingest sweeps.
/// Publish() merges every worker's delta in worker order and clears them;
/// the caller accounts the records it broadcast (ParallelStreamResult).
class ShardedPartitionState {
 public:
  ShardedPartitionState(const PartitionConfig& config, uint32_t num_workers);

  PartitionState& global() { return global_; }
  const PartitionState& global() const { return global_; }
  uint32_t num_workers() const {
    return static_cast<uint32_t>(delta_loads_.size());
  }

  // ---- loads: published + own unpublished delta
  uint64_t CombinedLoad(uint32_t w, PartitionId p) const {
    return global_.load(p) + delta_loads_[w][p];
  }
  void AddWorkerLoad(uint32_t w, PartitionId p) { ++delta_loads_[w][p]; }

  // ---- streaming degree table (edge drivers)
  void InitDegreeTable(VertexId num_vertices);
  uint32_t CombinedDegree(uint32_t w, VertexId v) const {
    return global_.degree(v) + delta_degrees_[w][v];
  }
  void IncrementWorkerDegree(uint32_t w, VertexId v);

  // ---- replica sets (edge drivers)
  void InitReplicas(VertexId num_vertices);
  bool HasAnyReplica(uint32_t w, VertexId u) const {
    return !global_.replicas().Of(u).empty() ||
           !delta_replicas_[w].Of(u).empty();
  }
  void AddWorkerReplica(uint32_t w, VertexId u, PartitionId p);

  /// Mirrors the published set and every worker delta into bit indices;
  /// the sharded scorers then read each vertex's combined
  /// membership as GlobalReplicaRow(u) OR DeltaReplicaRow(w, u).
  void EnableReplicaBitIndex() {
    global_.replicas().EnableBitIndex(global_.k());
    for (ReplicaState& r : delta_replicas_) r.EnableBitIndex(global_.k());
  }
  const uint64_t* GlobalReplicaRow(VertexId u) const {
    return global_.replicas().RowWords(u);
  }
  const uint64_t* DeltaReplicaRow(uint32_t w, VertexId u) const {
    return delta_replicas_[w].RowWords(u);
  }

  /// Barrier: merges every worker's deltas into the published state in
  /// worker order and clears them. Refreshes the global effective-load
  /// table when enabled.
  void Publish();

  /// Global synopsis plus all per-worker delta state.
  uint64_t SynopsisBytes() const;

 private:
  PartitionState global_;
  std::vector<std::vector<uint64_t>> delta_loads_;
  std::vector<std::vector<uint32_t>> delta_degrees_;
  std::vector<std::vector<VertexId>> touched_degrees_;
  std::vector<ReplicaState> delta_replicas_;
  std::vector<std::vector<std::pair<VertexId, PartitionId>>> replica_records_;
  bool effective_enabled_ = false;
};

}  // namespace sgp

#endif  // SGP_PARTITION_STATE_H_
