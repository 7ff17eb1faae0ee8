#include "experiments/cache.h"

#include "common/telemetry.h"
#include "graph/datasets.h"
#include "partition/metrics.h"
#include "partition/partitioner.h"

namespace sgp {

namespace {

// Hit accounting goes to the current registry, so a grid cell's hits are
// isolated with the rest of its telemetry and merge into the caller's
// registry after the cell.
void CountHit(bool was_hit) {
  if (was_hit) {
    MetricsRegistry::Current().GetCounter("grid.cache_hits")->Increment();
  }
}

}  // namespace

GridCaches& GridCaches::Global() {
  static GridCaches* caches = new GridCaches();
  return *caches;
}

const Graph& GridCaches::GetGraph(const std::string& dataset,
                                  uint32_t scale) {
  bool hit = false;
  const Graph& graph = graphs_.Get(
      std::make_pair(dataset, scale),
      [&] { return MakeDataset(dataset, scale); }, &hit);
  CountHit(hit);
  return graph;
}

const CachedPartitioning& GridCaches::GetPartitioning(
    const Graph& graph, const PartitioningKey& key) {
  bool hit = false;
  const CachedPartitioning& cached = partitionings_.Get(
      key,
      [&] {
        PartitionConfig config;
        config.k = key.k;
        config.seed = key.seed;
        CachedPartitioning result;
        result.partitioning =
            CreatePartitioner(key.algorithm)->Run(graph, config);
        ValidatePartitioning(graph, result.partitioning);
        result.metrics = ComputeMetrics(graph, result.partitioning);
        return result;
      },
      &hit);
  CountHit(hit);
  return cached;
}

const Workload& GridCaches::GetWorkload(const Graph& graph,
                                        const WorkloadKey& key) {
  bool hit = false;
  const Workload& workload = workloads_.Get(
      key,
      [&] {
        WorkloadConfig config;
        config.kind = key.kind;
        config.skew = key.skew;
        config.seed = key.seed;
        return Workload(graph, config);
      },
      &hit);
  CountHit(hit);
  return workload;
}

void GridCaches::Clear() {
  graphs_.Clear();
  partitionings_.Clear();
  workloads_.Clear();
}

}  // namespace sgp
