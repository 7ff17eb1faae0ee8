#ifndef SGP_EXPERIMENTS_GRID_H_
#define SGP_EXPERIMENTS_GRID_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/csv.h"
#include "engine/engine.h"
#include "graphdb/event_sim.h"
#include "partition/partitioning.h"

namespace sgp {

/// Programmatic experiment grids: the paper's Table 2 parameter space as
/// a library. The bench binaries print individual tables; these runners
/// return structured records (and CSV) so downstream analysis — plotting,
/// regression tracking, new studies — does not have to scrape stdout.
///
/// Execution model (docs/EXPERIMENTS.md): a grid is decomposed into
/// cells — one per (dataset, algorithm, k) offline, one per (dataset,
/// workload, algorithm, k) online — that pull their graph, partitioning
/// and workload dependencies from process-wide memoized caches. Cells run
/// serially in specification order, each with its own metrics registry
/// that is merged into the caller's registry after the cell. Every run
/// increments `grid.cells_done` per completed cell and `grid.cache_hits`
/// per memoized dependency reuse in the caller's current registry.

/// One offline-analytics configuration's results (Sections 5.1.4/6.2).
struct OfflineRunRecord {
  std::string dataset;
  std::string algorithm;
  std::string workload;  // "pagerank" | "wcc" | "sssp"
  PartitionId k = 0;

  // Structural metrics.
  double replication_factor = 0;
  double edge_cut_ratio = 0;
  double vertex_imbalance = 0;
  double edge_imbalance = 0;

  // Runtime metrics.
  uint32_t iterations = 0;
  uint64_t network_bytes = 0;
  double compute_imbalance = 0;  // max/mean per-worker compute seconds

  // Performance metrics.
  double simulated_seconds = 0;
  double partitioning_seconds = 0;
  uint64_t partitioner_state_bytes = 0;

  // Across-seed variability (0 when num_seeds == 1).
  double simulated_seconds_stddev = 0;
  double replication_factor_stddev = 0;
};

/// Offline grid specification; defaults reproduce the Table 2 offline row.
struct OfflineGridSpec {
  std::vector<std::string> datasets{"twitter", "usaroad", "ldbc"};
  std::vector<std::string> algorithms;  // empty = PartitionerNames()
  std::vector<PartitionId> cluster_sizes{8, 16, 32, 64, 128};
  std::vector<std::string> workloads{"pagerank", "wcc", "sssp"};
  uint32_t scale = 13;
  uint32_t pagerank_iterations = 20;
  uint64_t seed = 42;

  /// Number of seeds per cell (seed, seed+1, …). With more than one, each
  /// record reports the mean across seeds and fills the *_stddev fields —
  /// the variance a careful experimental study reports alongside means.
  uint32_t num_seeds = 1;

  EngineCostModel cost_model;
};

/// One online-queries configuration's results (Sections 5.2.4/6.3).
struct OnlineRunRecord {
  std::string dataset;
  std::string algorithm;
  std::string workload;  // "1-hop" | "2-hop"
  PartitionId k = 0;
  uint32_t clients = 0;

  double edge_cut_ratio = 0;
  double throughput_qps = 0;
  double mean_latency_seconds = 0;
  double p99_latency_seconds = 0;
  double read_rsd = 0;  // per-worker read imbalance
  uint64_t network_bytes = 0;
};

/// Online grid specification; defaults reproduce the Table 2 online row.
struct OnlineGridSpec {
  std::vector<std::string> datasets{"ldbc"};
  std::vector<std::string> algorithms{"ECR", "LDG", "FNL", "MTS"};
  std::vector<PartitionId> cluster_sizes{4, 8, 16, 32};
  std::vector<QueryKind> workloads{QueryKind::kOneHop, QueryKind::kTwoHop};
  std::vector<uint32_t> clients_per_worker{12, 24};  // medium, high load

  /// Absolute client counts. When non-empty this replaces
  /// clients_per_worker: each entry is used as-is for every k, which is
  /// what a scale-out study needs — fixed total load while the cluster
  /// grows (Figure 12).
  std::vector<uint32_t> total_clients;

  uint32_t scale = 13;
  uint64_t queries_per_run = 15000;
  double workload_skew = 0.8;
  uint64_t seed = 42;

  /// Seed overrides for workload generation and the closed-loop
  /// simulator. Unset means `seed` is used for both (the grid's
  /// historical behavior); the bench figures pin these to the defaults
  /// their hand-rolled loops used before moving onto the grid.
  std::optional<uint64_t> workload_seed;
  std::optional<uint64_t> sim_seed;

  DbCostModel cost_model;
};

/// Runs every (dataset × algorithm × k × workload) combination.
/// Graphs and partitionings are cached process-wide, so the cost is one
/// partitioning per (dataset, algorithm, k, seed) plus one engine run per
/// cell — across repeated calls.
std::vector<OfflineRunRecord> RunOfflineGrid(const OfflineGridSpec& spec);

/// Runs every (dataset × algorithm × k × workload × load) combination.
std::vector<OnlineRunRecord> RunOnlineGrid(const OnlineGridSpec& spec);

/// Column schemas — the single source of truth for the grids' CSV
/// layout, shared by the writers below and the bench binaries.
const CsvSchema<OfflineRunRecord>& OfflineCsvSchema();
const CsvSchema<OnlineRunRecord>& OnlineCsvSchema();

/// CSV with a header row; columns in OfflineRunRecord order.
void WriteOfflineCsv(const std::vector<OfflineRunRecord>& records,
                     std::ostream& out);

/// CSV with a header row; columns in OnlineRunRecord order.
void WriteOnlineCsv(const std::vector<OnlineRunRecord>& records,
                    std::ostream& out);

}  // namespace sgp

#endif  // SGP_EXPERIMENTS_GRID_H_
