// Figure 14: aggregate 1-hop throughput on the real-world graph analogues
// (USA-Road, Twitter, UK2007-05) on 16 workers under medium and high load.
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
  const uint32_t scale = bench::ScaleFromEnv();
  bench::PrintBanner("Figure 14",
                     "1-hop throughput (queries/s) on real-world graphs, "
                     "16 workers",
                     scale);
  const PartitionId k = 16;

  OnlineGridSpec spec;
  spec.datasets = {"usaroad", "twitter", "uk2007"};
  spec.algorithms = bench::OnlineAlgos();
  spec.cluster_sizes = {k};
  spec.workloads = {QueryKind::kOneHop};
  spec.clients_per_worker = {12, 24};  // medium, high load
  spec.scale = scale;
  spec.queries_per_run = 15000;
  // The defaults this figure's hand-rolled loop always used:
  // WorkloadConfig{}.seed and SimConfig{}.seed.
  spec.workload_seed = 7;
  spec.sim_seed = 123;
  const auto records = RunOnlineGrid(spec);

  std::map<std::tuple<std::string, std::string, uint32_t>, double>
      qps_by_cell;
  for (const OnlineRunRecord& r : records) {
    qps_by_cell[{r.dataset, r.algorithm, r.clients}] = r.throughput_qps;
  }

  for (const std::string& dataset : spec.datasets) {
    std::cout << "--- " << dataset << " ---\n";
    TablePrinter table({"Algorithm", "Medium load", "High load"});
    for (const std::string& algo : bench::OnlineAlgos()) {
      std::vector<std::string> row{algo};
      for (uint32_t clients_per_worker : {12u, 24u}) {
        row.push_back(FormatDouble(
            qps_by_cell.at({dataset, algo, clients_per_worker * k}), 0));
      }
      table.AddRow(std::move(row));
    }
    table.Print(std::cout);
    std::cout << '\n';
  }
  std::cout
      << "Expected shape (paper Fig. 14): cut-minimizing algorithms gain\n"
         "under medium load but lose their edge (or invert) under high\n"
         "load on every dataset, because workload-skew hotspots — not the\n"
         "cut ratio — dominate saturated-cluster behaviour.\n";
  sgp::bench::WriteBenchCsv("fig14_realgraph_throughput", OnlineCsvSchema(),
                            records);
  sgp::bench::WriteBenchJson("fig14_realgraph_throughput", scale);
  return 0;
}
