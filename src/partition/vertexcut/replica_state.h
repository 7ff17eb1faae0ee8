#ifndef SGP_PARTITION_VERTEXCUT_REPLICA_STATE_H_
#define SGP_PARTITION_VERTEXCUT_REPLICA_STATE_H_

#include <bit>
#include <cstdint>

#include "common/dense_bitset.h"
#include "common/types.h"

namespace sgp {

/// Incrementally maintained replica sets A(u) used by the greedy vertex-cut
/// partitioners (PowerGraph greedy, HDRF, 2PS, HEP). This is the
/// "distributed table with the values of A(u)" the paper notes greedy
/// methods must share among workers (Section 4.2.2), stored as one
/// vertex × k BitMatrix: bit p of row u is set iff p ∈ A(u). Membership is
/// one bit test, and the scoring kernels read whole 64-candidate words of
/// a row (`RowWords`) instead of probing the set per candidate.
class ReplicaState {
 public:
  ReplicaState() = default;
  ReplicaState(VertexId num_vertices, PartitionId k) : bits_(num_vertices, k) {}

  /// Grows the vertex space to cover `u` (sources that discover ids); new
  /// rows are empty.
  void EnsureVertex(VertexId u) {
    bits_.EnsureRows(static_cast<uint64_t>(u) + 1);
  }

  /// Membership words of `u` (ceil(k/64) words, bit p set iff p ∈ A(u)).
  const uint64_t* RowWords(VertexId u) const { return bits_.Row(u); }

  /// True if partition `p` already holds a replica of `u`.
  bool Contains(VertexId u, PartitionId p) const { return bits_.Test(u, p); }

  /// Records that partition `p` now holds a replica of `u` (idempotent).
  void Add(VertexId u, PartitionId p) { bits_.Set(u, p); }

  /// True if no partition holds a replica of `u` yet.
  bool Empty(VertexId u) const {
    const uint64_t* row = bits_.Row(u);
    for (uint64_t w = 0; w < bits_.words_per_row(); ++w) {
      if (row[w] != 0) return false;
    }
    return true;
  }

  /// Calls `fn(p)` for every partition p ∈ A(u), in ascending order.
  template <typename Fn>
  void ForEach(VertexId u, Fn&& fn) const {
    const uint64_t* row = bits_.Row(u);
    for (uint64_t w = 0; w < bits_.words_per_row(); ++w) {
      for (uint64_t word = row[w]; word != 0; word &= word - 1) {
        fn(static_cast<PartitionId>(w * 64 + std::countr_zero(word)));
      }
    }
  }

  /// Empties the set of `u` (the sharded deltas reset touched vertices
  /// after each barrier without an O(n) sweep).
  void Clear(VertexId u) { bits_.ClearRow(u); }

  /// Bytes of working state this table holds.
  uint64_t SynopsisBytes() const { return bits_.MemoryBytes(); }

 private:
  BitMatrix bits_;
};

}  // namespace sgp

#endif  // SGP_PARTITION_VERTEXCUT_REPLICA_STATE_H_
