#ifndef SGP_EXPERIMENTS_CACHE_H_
#define SGP_EXPERIMENTS_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "graph/graph.h"
#include "graphdb/workload.h"
#include "partition/metrics.h"
#include "partition/partitioning.h"

namespace sgp {

/// Memoized caches for the experiment grid's shared build products:
/// dataset graphs, partitionings (with their structural metrics) and
/// query workloads. Many grid cells need the same graph or the same
/// partitioning; the caches build each key once and hand out references
/// to it. Values have stable addresses for the cache's lifetime, so
/// returned references stay valid across later insertions.
///
/// Every request for an already-present key increments `grid.cache_hits`
/// in the current metrics registry; the total is requests minus distinct
/// keys.

/// Keyed, memoized cache: a lock-guarded map of unique_ptr values. Key
/// must be strict-weak-orderable; Value is computed by the builder passed
/// to Get.
template <typename Key, typename Value>
class MemoCache {
 public:
  /// Returns the value for `key`, invoking `build` to create it when
  /// absent. `was_hit`, when given, reports whether the key was present.
  template <typename Builder>
  const Value& Get(const Key& key, Builder&& build, bool* was_hit = nullptr);

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  /// Drops every entry. Callers must ensure no returned reference is
  /// still in use.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::map<Key, std::unique_ptr<Value>> entries_;
};

/// A partitioning plus the structural metrics every cell derives from it.
/// Cached together because ComputeMetrics is pure and shared by all
/// workloads of a cell.
struct CachedPartitioning {
  Partitioning partitioning;
  PartitionMetrics metrics;
};

/// Key of one partitioner run inside a grid: the grid always partitions
/// with a default PartitionConfig apart from k and seed, so these five
/// fields pin the result exactly.
struct PartitioningKey {
  std::string dataset;
  uint32_t scale = 0;
  std::string algorithm;
  PartitionId k = 0;
  uint64_t seed = 0;

  bool operator<(const PartitioningKey& o) const {
    return std::tie(dataset, scale, algorithm, k, seed) <
           std::tie(o.dataset, o.scale, o.algorithm, o.k, o.seed);
  }
};

/// Key of one workload build: binding generation depends on the graph,
/// the query kind, the Zipf skew and the workload seed.
struct WorkloadKey {
  std::string dataset;
  uint32_t scale = 0;
  QueryKind kind = QueryKind::kOneHop;
  double skew = 0;
  uint64_t seed = 0;

  bool operator<(const WorkloadKey& o) const {
    return std::tie(dataset, scale, kind, skew, seed) <
           std::tie(o.dataset, o.scale, o.kind, o.skew, o.seed);
  }
};

/// The grid's three caches, shared process-wide so repeated grid calls —
/// and the offline and online grids of one study — reuse each other's
/// graphs and partitionings.
class GridCaches {
 public:
  /// Process-wide instance used by the grid runners.
  static GridCaches& Global();

  /// Graph for (dataset, scale), built via MakeDataset on first request.
  const Graph& GetGraph(const std::string& dataset, uint32_t scale);

  /// Validated partitioning plus metrics for `key`; `graph` must be the
  /// cached graph of (key.dataset, key.scale).
  const CachedPartitioning& GetPartitioning(const Graph& graph,
                                            const PartitioningKey& key);

  /// Workload for `key`; `graph` must match (key.dataset, key.scale).
  const Workload& GetWorkload(const Graph& graph, const WorkloadKey& key);

  /// Drops everything (tests / memory reclamation on a quiesced grid).
  void Clear();

 private:
  MemoCache<std::pair<std::string, uint32_t>, Graph> graphs_;
  MemoCache<PartitioningKey, CachedPartitioning> partitionings_;
  MemoCache<WorkloadKey, Workload> workloads_;
};

// ---------------------------------------------------------------------------
// Template implementation
// ---------------------------------------------------------------------------

template <typename Key, typename Value>
template <typename Builder>
const Value& MemoCache<Key, Value>::Get(const Key& key, Builder&& build,
                                        bool* was_hit) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (was_hit != nullptr) *was_hit = it != entries_.end();
    if (it != entries_.end()) return *it->second;
  }
  auto value = std::make_unique<Value>(build());
  std::lock_guard<std::mutex> lock(mu_);
  return *entries_.try_emplace(key, std::move(value)).first->second;
}

}  // namespace sgp

#endif  // SGP_EXPERIMENTS_CACHE_H_
