// Figure 12: aggregate throughput of 192 concurrent clients running 1-hop
// traversals on LDBC SNB over 4 to 32 workers — beyond ~16 workers the
// added communication outweighs the added capacity.
//
// Runs on the experiment-grid runner; the printed table is reconstructed
// from the grid records.
#include <iostream>
#include <map>
#include <utility>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "experiments/grid.h"

int main() {
  using namespace sgp;
  const uint32_t scale = bench::ScaleFromEnv();
  bench::PrintBanner("Figure 12",
                     "Throughput of 192 fixed clients vs cluster size, "
                     "1-hop on LDBC SNB",
                     scale);

  OnlineGridSpec spec;
  spec.datasets = {"ldbc"};
  spec.algorithms = bench::OnlineAlgos();
  spec.cluster_sizes = {4, 8, 16, 32};
  spec.workloads = {QueryKind::kOneHop};
  spec.total_clients = {192};  // fixed load while the cluster grows
  spec.scale = scale;
  spec.queries_per_run = 15000;
  // The defaults this figure's hand-rolled loop always used:
  // WorkloadConfig{}.seed and SimConfig{}.seed.
  spec.workload_seed = 7;
  spec.sim_seed = 123;
  const auto records = RunOnlineGrid(spec);

  std::map<std::pair<std::string, PartitionId>, double> qps_by_cell;
  for (const OnlineRunRecord& r : records) {
    qps_by_cell[{r.algorithm, r.k}] = r.throughput_qps;
  }

  TablePrinter table({"Algorithm", "Metric", "k=4", "k=8", "k=16", "k=32"});
  for (const std::string& algo : bench::OnlineAlgos()) {
    std::vector<std::string> tput{algo, "q/s"};
    std::vector<std::string> per_worker{algo, "q/s/worker"};
    for (PartitionId k : {4u, 8u, 16u, 32u}) {
      const double qps = qps_by_cell.at({algo, k});
      tput.push_back(FormatDouble(qps, 0));
      per_worker.push_back(FormatDouble(qps / k, 0));
    }
    table.AddRow(std::move(tput));
    table.AddRow(std::move(per_worker));
  }
  table.Print(std::cout);
  std::cout
      << "\nExpected shape (paper Fig. 12): scaling out stops paying off —\n"
         "the paper sees absolute degradation beyond 16 workers on the\n"
         "SF-1000 graph (avg degree 124, so every query touches every\n"
         "worker); at this synthetic scale (avg degree ~20) the effect\n"
         "appears as collapsing per-worker efficiency (q/s/worker falls\n"
         "steeply from k=4 to k=32) as the growing cut ratio turns extra\n"
         "workers into extra round trips per query.\n";
  sgp::bench::WriteBenchCsv("fig12_scaleout", OnlineCsvSchema(), records);
  sgp::bench::WriteBenchJson("fig12_scaleout", scale);
  return 0;
}
