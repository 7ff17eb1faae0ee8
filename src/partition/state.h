#ifndef SGP_PARTITION_STATE_H_
#define SGP_PARTITION_STATE_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/types.h"
#include "partition/partitioning.h"
#include "partition/vertexcut/replica_state.h"

namespace sgp {

/// HDRF's balance term kept as state (paper §4.2.2; also the pass-2 score
/// of 2PS and HEP): the effective loads eff[i] = load/weight, their max
/// and min, the spread 1 + (max − min) (ε = 1) and the row
/// b[i] = λ·(max − eff[i])/spread that the HDRF picks add to each
/// candidate's g-term.
///
/// Loads only grow, so a placement moves the max only when the winner
/// passes it, and the min only when the last partition at the min leaves
/// it; a count of partitions at the min means the min is rescanned only
/// then. When neither moves, only b[winner] is rewritten; otherwise the
/// whole row is recomputed in one vectorisable loop, or, when every other
/// partition sits at the min, filled with their one shared term. Every
/// value comes from the same IEEE operations, in the same order, as a
/// fresh sweep over all k partitions would use, so the row is
/// bit-identical to one recomputed from scratch.
///
/// A k-bit mask marks the partitions at the min: a partition leaves it
/// when its load grows off the min, and the rescan rebuilds it. The HDRF
/// pick reads it to find the best partition outside A(u) ∪ A(v) without
/// a sweep (score::SparseOutside, partition/score_core.h).
class BalanceRow {
 public:
  explicit BalanceRow(double lambda) : lambda_(lambda) {}

  /// Rebuilds the effective loads, extremes and row from `loads`.
  /// Rejects a non-finite or negative λ: a NaN would make every score
  /// NaN, and λ = +∞ gives ∞·0 = NaN for the max partition.
  void Reset(PartitionId k, const uint64_t* loads, const double* weights);

  /// Partition p's load grew to `load`.
  void Grow(PartitionId p, uint64_t load, double weight) {
    const double old = effective_[p];
    const double eff = static_cast<double>(load) / weight;
    effective_[p] = eff;
    bool moved = false;
    if (eff > max_) {
      max_ = eff;
      moved = true;
    }
    if (old == min_ && eff != min_) {
      min_mask_[p >> 6] &= ~(uint64_t{1} << (p & 63));
      if (--at_min_ == 0) {
        RescanMin();
        moved = true;
      }
    }
    if (moved) {
      Refresh(p);
    } else {
      row_[p] = lambda_ * (max_ - eff) / spread_;
    }
  }

  /// The k balance terms b[i].
  const double* row() const { return row_.data(); }
  const std::vector<double>& effective() const { return effective_; }
  double max_load() const { return max_; }
  double min_load() const { return min_; }
  double spread() const { return spread_; }
  bool enabled() const { return !row_.empty(); }

  /// The k-bit mask of the partitions at the min (ceil(k/64) words, bits
  /// past k zero) when every weight is 1, else null. Only then is the
  /// effective load the raw load that the picks' tie rule compares, so
  /// only then may the sparse pick choose outside the replica union from
  /// the mask.
  const uint64_t* unit_min_mask() const {
    return unit_weights_ ? min_mask_.data() : nullptr;
  }

  /// Bytes of the effective-load and balance rows and the min mask.
  uint64_t MemoryBytes() const {
    return (effective_.capacity() + row_.capacity()) * sizeof(double) +
           min_mask_.capacity() * sizeof(uint64_t);
  }

 private:
  void RescanMin();
  // Spread and every b[i] from the current extremes; `grown` is the
  // partition whose load just grew.
  void Refresh(PartitionId grown);

  double lambda_;
  std::vector<double> effective_;
  std::vector<double> row_;
  std::vector<uint64_t> min_mask_;  // bit i: effective_[i] == min_
  bool unit_weights_ = false;
  double max_ = 0;
  double min_ = 0;
  double spread_ = 1;
  PartitionId at_min_ = 0;  // partitions whose effective load is min_
};

/// Objective of the streaming greedy vertex placement (LDG Equation 4,
/// FENNEL Equation 5).
struct GreedyObjective {
  bool ldg = true;
  double alpha = 0.0;  // FENNEL α (per pass, restreaming anneals it)
  double gamma = 1.5;  // FENNEL γ
};

/// The load side of the LDG and FENNEL scores kept as state, so the
/// greedy pick scores candidate i with one operation on its neighbour
/// count: cnt·t[i] for LDG, with t[i] = 1 − size/C_i, and cnt − t[i] for
/// FENNEL, with t[i] = αγ·(size/w_i)^{γ−1} (a square root at γ = 1.5).
/// room[i] is 0 while partition i can take one more vertex and −∞ once
/// size + 1 > C_i; the pick adds it to the score, so a full partition can
/// never win.
///
/// A placement or a removal changes one load, so only that entry is
/// rewritten; a new α (one per restreaming pass) or a refilled load view
/// rewrites the row. Every entry comes from the same IEEE operations, in
/// the same order, as the per-candidate score it replaces, so the picks
/// are bit-identical to scoring from the loads.
class GreedyTermRow {
 public:
  /// Rebuilds every entry from `loads`. For FENNEL, rejects a γ that is
  /// not finite and ≥ 1 and an α that is not finite and ≥ 0: a NaN or an
  /// infinite term turns every score into least-loaded placement.
  void Reset(const GreedyObjective& objective, PartitionId k,
             const uint64_t* loads, const double* weights,
             const double* capacities);

  /// Partition p's load is now `load`.
  void Set(PartitionId p, uint64_t load, double weight, double capacity) {
    const double size = static_cast<double>(load);
    if (ldg_) {
      terms_[p] = 1.0 - size / capacity;
    } else {
      const double eff = size / weight;
      terms_[p] = alpha_gamma_ * (sqrt_form_ ? std::sqrt(eff)
                                             : std::pow(eff, gamma_ - 1.0));
    }
    room_[p] = size + 1.0 > capacity
                   ? -std::numeric_limits<double>::infinity()
                   : 0.0;
  }

  bool ldg() const { return ldg_; }
  const double* terms() const { return terms_.data(); }
  const double* room() const { return room_.data(); }

  /// Bytes of the term and room rows.
  uint64_t MemoryBytes() const {
    return (terms_.capacity() + room_.capacity()) * sizeof(double);
  }

 private:
  bool ldg_ = true;
  bool sqrt_form_ = true;  // γ == 1.5 → sqrt instead of pow
  double gamma_ = 1.5;
  double alpha_gamma_ = 0;  // α·γ, the product the scores multiply by
  std::vector<double> terms_;
  std::vector<double> room_;
};

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
  // Incrementally maintained effective loads and HDRF balance row (HDRF
  // reads all k per edge, so the division is paid once per placement, not
  // k times per edge). λ is the config's hdrf_lambda.
  // ---------------------------------------------------------------------
  void InitEffectiveLoads();
  const BalanceRow& balance() const { return balance_; }
  void AddLoadUpdatingEffective(PartitionId p) {
    ++loads_[p];
    balance_.Grow(p, loads_[p], weights_[p]);
  }

  // ---------------------------------------------------------------------
  // Incrementally maintained LDG/FENNEL term row (the greedy vertex picks
  // read all k terms per vertex, so each is recomputed only when its load
  // moves). Needs the capacities.
  // ---------------------------------------------------------------------
  void InitGreedyTerms(const GreedyObjective& objective);
  const GreedyTermRow& greedy_terms() const { return greedy_terms_; }
  void AddLoadUpdatingTerms(PartitionId p) {
    ++loads_[p];
    greedy_terms_.Set(p, loads_[p], weights_[p], capacity_[p]);
  }
  void RemoveLoadUpdatingTerms(PartitionId p) {
    --loads_[p];
    greedy_terms_.Set(p, loads_[p], weights_[p], capacity_[p]);
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
  BalanceRow balance_;
  GreedyTermRow greedy_terms_;
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
    return !global_.replicas().Empty(u) || !delta_replicas_[w].Empty(u);
  }
  void AddWorkerReplica(uint32_t w, VertexId u, PartitionId p);

  /// The sharded scorers read each vertex's combined membership as
  /// GlobalReplicaRow(u) OR DeltaReplicaRow(w, u).
  const uint64_t* GlobalReplicaRow(VertexId u) const {
    return global_.replicas().RowWords(u);
  }
  const uint64_t* DeltaReplicaRow(uint32_t w, VertexId u) const {
    return delta_replicas_[w].RowWords(u);
  }

  /// Barrier: merges every worker's deltas into the published state in
  /// worker order and clears them. Rebuilds the global balance row when
  /// enabled.
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
};

}  // namespace sgp

#endif  // SGP_PARTITION_STATE_H_
