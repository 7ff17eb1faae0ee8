#ifndef SGP_TESTS_MASTER_ORACLE_H_
#define SGP_TESTS_MASTER_ORACLE_H_

// Reference master tally: one heap vector of (partition, count) pairs per
// vertex and a linear find per note, the straightforward shape that
// MasterTracker (partition/master_tracker.h) replaced. It is the oracle of
// tests/master_tracker_test.cc and of DeriveMasterPlacement's check in
// tests/partitioning_test.cc.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hashing.h"
#include "common/types.h"

namespace sgp::oracle {

class ReferenceMasterTracker {
 public:
  void Note(VertexId v, PartitionId part) {
    if (v >= counts_.size()) counts_.resize(static_cast<size_t>(v) + 1);
    auto& vec = counts_[v];
    auto it = std::find_if(vec.begin(), vec.end(),
                           [part](const auto& pr) { return pr.first == part; });
    if (it == vec.end()) {
      vec.emplace_back(part, 1u);
    } else {
      ++it->second;
    }
  }

  /// Masters for [0, n): most incident edges, ties toward the lower
  /// partition id; ids with no notes are hashed.
  std::vector<PartitionId> Derive(VertexId n, PartitionId k) const {
    std::vector<PartitionId> masters(n, kInvalidPartition);
    for (VertexId u = 0; u < n; ++u) {
      if (u >= counts_.size() || counts_[u].empty()) {
        masters[u] = static_cast<PartitionId>(HashU64(u) % k);
        continue;
      }
      auto best = counts_[u].front();
      for (const auto& pr : counts_[u]) {
        if (pr.second > best.second ||
            (pr.second == best.second && pr.first < best.first)) {
          best = pr;
        }
      }
      masters[u] = best.first;
    }
    return masters;
  }

 private:
  std::vector<std::vector<std::pair<PartitionId, uint32_t>>> counts_;
};

}  // namespace sgp::oracle

#endif  // SGP_TESTS_MASTER_ORACLE_H_
