#include "experiments/grid.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <utility>

#include "common/check.h"
#include "common/statistics.h"
#include "common/telemetry.h"
#include "engine/programs.h"
#include "experiments/cache.h"
#include "graphdb/workload.h"
#include "partition/metrics.h"
#include "partition/partitioner.h"

namespace sgp {

namespace {

EngineStats RunEngineWorkload(const AnalyticsEngine& engine,
                              const std::string& workload, const Graph& graph,
                              uint32_t pagerank_iterations) {
  if (workload == "pagerank") {
    return engine.Run(PageRankProgram(pagerank_iterations));
  }
  if (workload == "wcc") {
    return engine.Run(WccProgram());
  }
  SGP_CHECK(workload == "sssp");
  VertexId source = 0;
  while (source < graph.num_vertices() && graph.Degree(source) == 0) {
    ++source;
  }
  return engine.Run(SsspProgram(source));
}

// One offline cell: a (dataset, algorithm, k) triple. Seeds and workloads
// run sequentially inside the cell; their accumulation order is part of
// the records' bit pattern.
std::vector<OfflineRunRecord> RunOfflineCell(const OfflineGridSpec& spec,
                                             const std::string& dataset,
                                             const std::string& algorithm,
                                             PartitionId k) {
  GridCaches& caches = GridCaches::Global();
  const Graph& graph = caches.GetGraph(dataset, spec.scale);
  const uint32_t seeds = std::max(1u, spec.num_seeds);
  std::map<std::string, std::vector<double>> times;
  std::vector<double> rfs;
  std::map<std::string, OfflineRunRecord> cell;
  for (uint32_t s = 0; s < seeds; ++s) {
    const CachedPartitioning& cached = caches.GetPartitioning(
        graph,
        PartitioningKey{dataset, spec.scale, algorithm, k, spec.seed + s});
    const Partitioning& partitioning = cached.partitioning;
    const PartitionMetrics& metrics = cached.metrics;
    rfs.push_back(metrics.replication_factor);
    AnalyticsEngine engine(graph, partitioning, spec.cost_model);
    for (const std::string& workload : spec.workloads) {
      EngineStats stats = RunEngineWorkload(engine, workload, graph,
                                            spec.pagerank_iterations);
      times[workload].push_back(stats.simulated_seconds);
      OfflineRunRecord& r = cell[workload];
      const double w = 1.0 / seeds;
      if (s == 0) {
        r.dataset = dataset;
        r.algorithm = algorithm;
        r.workload = workload;
        r.k = k;
        r.iterations = stats.iterations;
      }
      r.replication_factor += metrics.replication_factor * w;
      r.edge_cut_ratio += metrics.edge_cut_ratio * w;
      r.vertex_imbalance += metrics.vertex_imbalance * w;
      r.edge_imbalance += metrics.edge_imbalance * w;
      r.network_bytes += static_cast<uint64_t>(
          static_cast<double>(stats.total_network_bytes) * w);
      r.compute_imbalance +=
          Summarize(stats.compute_seconds_per_worker).ImbalanceFactor() * w;
      r.simulated_seconds += stats.simulated_seconds * w;
      r.partitioning_seconds += partitioning.partitioning_seconds * w;
      r.partitioner_state_bytes += static_cast<uint64_t>(
          static_cast<double>(partitioning.state_bytes) * w);
    }
  }
  std::vector<OfflineRunRecord> records;
  records.reserve(spec.workloads.size());
  for (const std::string& workload : spec.workloads) {
    OfflineRunRecord r = cell[workload];
    if (seeds > 1) {
      r.simulated_seconds_stddev = Summarize(times[workload]).stddev;
      r.replication_factor_stddev = Summarize(rfs).stddev;
    }
    records.push_back(std::move(r));
  }
  return records;
}

// One online cell: a (dataset, workload kind, algorithm, k) tuple; the
// load levels share its database instance and run sequentially.
std::vector<OnlineRunRecord> RunOnlineCell(const OnlineGridSpec& spec,
                                           const std::string& dataset,
                                           QueryKind kind,
                                           const std::string& algorithm,
                                           PartitionId k) {
  GridCaches& caches = GridCaches::Global();
  const Graph& graph = caches.GetGraph(dataset, spec.scale);
  const Workload& workload = caches.GetWorkload(
      graph, WorkloadKey{dataset, spec.scale, kind, spec.workload_skew,
                         spec.workload_seed.value_or(spec.seed)});
  const CachedPartitioning& cached = caches.GetPartitioning(
      graph, PartitioningKey{dataset, spec.scale, algorithm, k, spec.seed});
  GraphDatabase db(graph, cached.partitioning, spec.cost_model);
  const bool absolute = !spec.total_clients.empty();
  const std::vector<uint32_t>& loads =
      absolute ? spec.total_clients : spec.clients_per_worker;
  std::vector<OnlineRunRecord> records;
  records.reserve(loads.size());
  for (uint32_t load : loads) {
    SimConfig sim;
    sim.clients = absolute ? load : load * k;
    sim.num_queries = spec.queries_per_run;
    sim.seed = spec.sim_seed.value_or(spec.seed);
    SimResult result = SimulateClosedLoop(db, workload, sim);
    OnlineRunRecord r;
    r.dataset = dataset;
    r.algorithm = algorithm;
    r.workload = std::string(QueryKindName(kind));
    r.k = k;
    r.clients = sim.clients;
    r.edge_cut_ratio = cached.metrics.edge_cut_ratio;
    r.throughput_qps = result.throughput_qps;
    r.mean_latency_seconds = result.latency.mean;
    r.p99_latency_seconds = result.latency.p99;
    r.read_rsd = Summarize(result.reads_per_worker).RelativeStdDev();
    r.network_bytes = result.total_network_bytes;
    records.push_back(std::move(r));
  }
  return records;
}

// Runs one cell with its own metrics registry, then merges that registry
// into the caller's, ticks `grid.cells_done` and appends the cell's
// records. Cells run in specification order, so record order and merged
// totals are fixed by the spec.
template <typename Record, typename Cell>
void RunCell(Cell cell, std::vector<Record>* records) {
  MetricsRegistry& parent = MetricsRegistry::Current();
  MetricsRegistry registry;
  std::vector<Record> cell_records;
  {
    ScopedMetricsRegistry scoped(&registry);
    cell_records = cell();
  }
  parent.MergeFrom(registry);
  parent.GetCounter("grid.cells_done")->Increment();
  for (Record& record : cell_records) records->push_back(std::move(record));
}

}  // namespace

std::vector<OfflineRunRecord> RunOfflineGrid(const OfflineGridSpec& spec) {
  const std::vector<std::string> algorithms =
      spec.algorithms.empty() ? PartitionerNames() : spec.algorithms;
  std::vector<OfflineRunRecord> records;
  for (const std::string& dataset : spec.datasets) {
    for (const std::string& algorithm : algorithms) {
      for (PartitionId k : spec.cluster_sizes) {
        RunCell([&] { return RunOfflineCell(spec, dataset, algorithm, k); },
                &records);
      }
    }
  }
  return records;
}

std::vector<OnlineRunRecord> RunOnlineGrid(const OnlineGridSpec& spec) {
  std::vector<OnlineRunRecord> records;
  for (const std::string& dataset : spec.datasets) {
    for (QueryKind kind : spec.workloads) {
      for (const std::string& algorithm : spec.algorithms) {
        for (PartitionId k : spec.cluster_sizes) {
          RunCell(
              [&] { return RunOnlineCell(spec, dataset, kind, algorithm, k); },
              &records);
        }
      }
    }
  }
  return records;
}

const CsvSchema<OfflineRunRecord>& OfflineCsvSchema() {
  static const auto* schema = new CsvSchema<OfflineRunRecord>({
      CsvCol("dataset", &OfflineRunRecord::dataset),
      CsvCol("algorithm", &OfflineRunRecord::algorithm),
      CsvCol("workload", &OfflineRunRecord::workload),
      CsvCol("k", &OfflineRunRecord::k),
      CsvCol("replication_factor", &OfflineRunRecord::replication_factor),
      CsvCol("edge_cut_ratio", &OfflineRunRecord::edge_cut_ratio),
      CsvCol("vertex_imbalance", &OfflineRunRecord::vertex_imbalance),
      CsvCol("edge_imbalance", &OfflineRunRecord::edge_imbalance),
      CsvCol("iterations", &OfflineRunRecord::iterations),
      CsvCol("network_bytes", &OfflineRunRecord::network_bytes),
      CsvCol("compute_imbalance", &OfflineRunRecord::compute_imbalance),
      CsvCol("simulated_seconds", &OfflineRunRecord::simulated_seconds),
      CsvCol("partitioning_seconds", &OfflineRunRecord::partitioning_seconds),
      CsvCol("partitioner_state_bytes",
             &OfflineRunRecord::partitioner_state_bytes),
      CsvCol("simulated_seconds_stddev",
             &OfflineRunRecord::simulated_seconds_stddev),
      CsvCol("replication_factor_stddev",
             &OfflineRunRecord::replication_factor_stddev),
  });
  return *schema;
}

const CsvSchema<OnlineRunRecord>& OnlineCsvSchema() {
  static const auto* schema = new CsvSchema<OnlineRunRecord>({
      CsvCol("dataset", &OnlineRunRecord::dataset),
      CsvCol("algorithm", &OnlineRunRecord::algorithm),
      CsvCol("workload", &OnlineRunRecord::workload),
      CsvCol("k", &OnlineRunRecord::k),
      CsvCol("clients", &OnlineRunRecord::clients),
      CsvCol("edge_cut_ratio", &OnlineRunRecord::edge_cut_ratio),
      CsvCol("throughput_qps", &OnlineRunRecord::throughput_qps),
      CsvCol("mean_latency_seconds", &OnlineRunRecord::mean_latency_seconds),
      CsvCol("p99_latency_seconds", &OnlineRunRecord::p99_latency_seconds),
      CsvCol("read_rsd", &OnlineRunRecord::read_rsd),
      CsvCol("network_bytes", &OnlineRunRecord::network_bytes),
  });
  return *schema;
}

void WriteOfflineCsv(const std::vector<OfflineRunRecord>& records,
                     std::ostream& out) {
  OfflineCsvSchema().Write(out, records);
}

void WriteOnlineCsv(const std::vector<OnlineRunRecord>& records,
                    std::ostream& out) {
  OnlineCsvSchema().Write(out, records);
}

}  // namespace sgp
