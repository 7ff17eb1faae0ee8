// Figure 13: the full offline-analytics sweep — simulated execution time
// of all three workloads on all three graphs over all cluster sizes.
// (Reduced default scale: this is the largest sweep in the suite.)
//
// Runs on the experiment-grid runner; the printed tables are reconstructed
// from the grid records.
#include <iostream>
#include <map>
#include <string>
#include <tuple>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "experiments/grid.h"

int main() {
  using namespace sgp;
  const uint32_t scale = bench::ScaleFromEnv(12);
  bench::PrintBanner("Figure 13",
                     "Full sweep: simulated execution time (s), all "
                     "workloads x graphs x cluster sizes",
                     scale);
  const std::vector<PartitionId> cluster_sizes{8, 16, 32, 64, 128};

  OfflineGridSpec spec;
  spec.datasets = {"usaroad", "twitter", "uk2007"};
  spec.algorithms = bench::OfflineAlgos();
  spec.cluster_sizes = cluster_sizes;
  spec.workloads = {"pagerank", "wcc", "sssp"};
  spec.scale = scale;
  const auto records = RunOfflineGrid(spec);

  std::map<std::tuple<std::string, std::string, std::string, PartitionId>,
           double>
      seconds_by_cell;
  for (const OfflineRunRecord& r : records) {
    seconds_by_cell[{r.dataset, r.workload, r.algorithm, r.k}] =
        r.simulated_seconds;
  }

  const std::pair<const char*, const char*> workloads[] = {
      {"PageRank", "pagerank"}, {"WCC", "wcc"}, {"SSSP", "sssp"}};
  for (const std::string& dataset : spec.datasets) {
    for (const auto& [title, workload] : workloads) {
      std::cout << "--- " << dataset << " / " << title << " ---\n";
      std::vector<std::string> header{"Algorithm"};
      for (PartitionId k : cluster_sizes) {
        header.push_back("k=" + std::to_string(k));
      }
      TablePrinter table(header);
      for (const std::string& algo : bench::OfflineAlgos()) {
        std::vector<std::string> row{algo};
        for (PartitionId k : cluster_sizes) {
          row.push_back(FormatDouble(
              seconds_by_cell.at({dataset, workload, algo, k}), 3));
        }
        table.AddRow(std::move(row));
      }
      table.Print(std::cout);
      std::cout << '\n';
    }
  }
  std::cout
      << "Expected shape (paper Fig. 13): LDG/FNL fastest on the road\n"
         "network (balanced + low replication); vertex-cut/hybrid fastest\n"
         "on twitter/uk2007; PageRank separates algorithms the most; the\n"
         "k=128 column rarely beats k=64 (communication dominates).\n";
  sgp::bench::WriteBenchCsv("fig13_full_analytics", OfflineCsvSchema(),
                            records);
  sgp::bench::WriteBenchJson("fig13_full_analytics", scale);
  return 0;
}
