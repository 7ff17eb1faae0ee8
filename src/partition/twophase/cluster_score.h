#ifndef SGP_PARTITION_TWOPHASE_CLUSTER_SCORE_H_
#define SGP_PARTITION_TWOPHASE_CLUSTER_SCORE_H_

#include <vector>

#include "partition/score_core.h"
#include "partition/state.h"

namespace sgp {
namespace twophase {

/// Shared placement core of the two-phase family: an HDRF-shaped pick
/// (Equation 7 g-term + λ balance term, canonical tie-break) where each
/// endpoint's replica membership is augmented with one optional extra
/// partition — the endpoint's cluster home (2PS) — and θ comes from
/// final pass-1 degrees instead of partial streaming degrees. On top of
/// the pick it enforces the Equation (1) hard caps: a full winner falls
/// back to the least effectively-loaded partition with room.
///
/// The cluster home is ORed into the membership word via MembershipRow's
/// delta slot (a precomputed one-hot row per partition), so the pick is
/// ScoreCore::PickHdrf unchanged.
class ClusterScorer {
 public:
  /// `state` must have capacities, effective loads and replica sets
  /// initialized; `core` must be constructed over the same state (it owns
  /// the kernel choice and the partition.score.* accounting).
  ClusterScorer(PartitionState& state, ScoreCore& core, double lambda)
      : state_(state), core_(core), lambda_(lambda) {
    const PartitionId k = state.k();
    words_ = (static_cast<uint64_t>(k) + 63) / 64;
    // k one-hot rows plus a trailing all-zero row for "no cluster home".
    onehot_.assign(words_ * (static_cast<uint64_t>(k) + 1), 0);
    for (PartitionId p = 0; p < k; ++p) {
      onehot_[static_cast<uint64_t>(p) * words_ + (p >> 6)] =
          uint64_t{1} << (p & 63);
    }
  }

  /// Membership-delta row for a cluster home (the all-zero row when the
  /// endpoint has none).
  const uint64_t* RowFor(PartitionId home) const {
    const uint64_t row = home == kInvalidPartition
                             ? static_cast<uint64_t>(state_.k())
                             : static_cast<uint64_t>(home);
    return onehot_.data() + row * words_;
  }

  /// Scores, capacity-checks and commits one edge: updates loads,
  /// effective loads and both endpoints' replica sets, and returns the
  /// chosen partition.
  PartitionId Place(VertexId u, VertexId v, PartitionId home_u,
                    PartitionId home_v, double theta_u, double theta_v) {
    const PartitionId k = state_.k();
    ReplicaState& replicas = state_.replicas();
    const uint64_t* loads = state_.loads().data();
    PartitionId best = core_.PickHdrf(
        state_.effective().data(), loads,
        {replicas.RowWords(u), RowFor(home_u)},
        {replicas.RowWords(v), RowFor(home_v)}, theta_u, theta_v, lambda_);
    if (!state_.HasRoom(best)) {
      best = score::LeastLoadedWithRoom(k, loads, state_.weights().data(),
                                        state_.capacities().data());
    }
    state_.AddLoadUpdatingEffective(best);
    replicas.Add(u, best);
    replicas.Add(v, best);
    return best;
  }

  uint64_t SynopsisBytes() const {
    return onehot_.capacity() * sizeof(uint64_t);
  }

 private:
  PartitionState& state_;
  ScoreCore& core_;
  double lambda_;
  uint64_t words_ = 0;
  std::vector<uint64_t> onehot_;
};

}  // namespace twophase
}  // namespace sgp

#endif  // SGP_PARTITION_TWOPHASE_CLUSTER_SCORE_H_
