#ifndef SGP_PARTITION_MASTER_TRACKER_H_
#define SGP_PARTITION_MASTER_TRACKER_H_

#include <algorithm>
#include <vector>

#include "common/hashing.h"
#include "common/types.h"

namespace sgp {

/// Streaming master derivation: per-vertex (partition, incident edge
/// count) tallies, exactly the accounting DeriveMasterPlacement does on a
/// materialized graph. The winner rule (max count, ties toward the lower
/// partition id) is order-independent, so streaming arrival order yields
/// the same masters. Shared by every vertex-cut RunOnSource override
/// (single-pass ingest and the two-phase family alike).
///
/// Layout: each vertex's first partition and its count sit inline in one
/// flat array. Only the tallies of a vertex's second and later partitions
/// go to an open-addressing overflow table keyed by (vertex, partition),
/// so noting an edge allocates nothing beyond the amortized growth of the
/// two arrays.
class MasterTracker {
 public:
  MasterTracker() = default;

  /// Presizes the inline array for ids [0, n), for callers that know the
  /// id space up front (multi-pass codes after their first pass).
  explicit MasterTracker(VertexId n) : first_(n) {}

  void Note(VertexId v, PartitionId part) {
    if (v >= first_.size()) first_.resize(static_cast<size_t>(v) + 1);
    Tally& first = first_[v];
    if (first.count == 0) first.part = part;
    if (first.part == part) {
      ++first.count;
      return;
    }
    if (2 * (overflow_used_ + 1) > overflow_.size()) GrowOverflow();
    Entry& e = Slot(v, part);
    if (e.count == 0) {
      e.vertex = v;
      e.part = part;
      ++overflow_used_;
    }
    ++e.count;
  }

  // Masters for [0, n): most incident edges, ties toward the lower
  // partition id; ids with no edges are hashed like DeriveMasterPlacement.
  std::vector<PartitionId> Derive(VertexId n, PartitionId k) const {
    // Fold every overflow tally into a copy of the inline ones. Beats() is
    // a strict order on a vertex's distinct partitions, so the fold order
    // (hash-table order) never matters.
    std::vector<Tally> best(n);
    std::copy_n(first_.begin(), std::min<size_t>(n, first_.size()),
                best.begin());
    for (const Entry& e : overflow_) {
      if (e.count == 0 || e.vertex >= n) continue;
      const Tally t{e.part, e.count};
      if (Beats(t, best[e.vertex])) best[e.vertex] = t;
    }
    std::vector<PartitionId> masters(n);
    for (VertexId u = 0; u < n; ++u) {
      masters[u] = best[u].count > 0
                       ? best[u].part
                       : static_cast<PartitionId>(HashU64(u) % k);
    }
    return masters;
  }

  /// Allocated bytes of both arrays.
  uint64_t SynopsisBytes() const {
    return first_.capacity() * sizeof(Tally) +
           overflow_.capacity() * sizeof(Entry);
  }

 private:
  struct Tally {
    PartitionId part = 0;
    uint32_t count = 0;  // 0: no edge noted
  };
  struct Entry {
    VertexId vertex = 0;
    PartitionId part = 0;
    uint32_t count = 0;  // 0: empty slot
  };

  static constexpr size_t kMinOverflowSlots = 64;

  static bool Beats(Tally a, Tally b) {
    return a.count > b.count || (a.count == b.count && a.part < b.part);
  }

  // The slot holding (v, part), or the empty slot where it belongs. The
  // table is at most half full, so linear probing always ends.
  Entry& Slot(VertexId v, PartitionId part) {
    const size_t mask = overflow_.size() - 1;
    size_t i = HashU64((uint64_t{v} << 32) | part) & mask;
    while (overflow_[i].count != 0 &&
           (overflow_[i].vertex != v || overflow_[i].part != part)) {
      i = (i + 1) & mask;
    }
    return overflow_[i];
  }

  // Doubles the power-of-two overflow table and reinserts its entries.
  void GrowOverflow() {
    std::vector<Entry> old = std::move(overflow_);
    overflow_.assign(std::max(kMinOverflowSlots, 2 * old.size()), Entry{});
    for (const Entry& e : old) {
      if (e.count != 0) Slot(e.vertex, e.part) = e;
    }
  }

  std::vector<Tally> first_;
  std::vector<Entry> overflow_;
  uint64_t overflow_used_ = 0;
};

}  // namespace sgp

#endif  // SGP_PARTITION_MASTER_TRACKER_H_
