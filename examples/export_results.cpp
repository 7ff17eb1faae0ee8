// Exports the paper's full experiment grids as CSV for external analysis
// (plotting, regression tracking). A reduced grid by default; pass
// "--full" for the paper's complete parameter space (slower).
//
// Usage: export_results [--full] [output-prefix]
// Writes <prefix>_offline.csv and <prefix>_online.csv.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "experiments/grid.h"
#include "flags.h"
#include "partition/partitioner.h"

int main(int argc, char** argv) {
  using namespace sgp;
  FlagParser flags(argc, argv);
  const bool full = flags.TakeBool("--full");
  std::string prefix = "sgp_results";
  std::vector<std::string> positional = flags.TakePositional();
  if (!flags.ok() || positional.size() > 1) {
    if (flags.ok()) {
      std::cerr << "usage: export_results [--full] [output-prefix]\n";
    } else {
      std::cerr << "error: " << flags.error() << "\n";
    }
    return 1;
  }
  if (!positional.empty()) prefix = positional[0];

  OfflineGridSpec offline;
  OnlineGridSpec online;
  if (!full) {
    offline.datasets = {"twitter", "ldbc"};
    offline.cluster_sizes = {8, 32};
    offline.workloads = {"pagerank"};
    online.cluster_sizes = {8, 16};
    online.clients_per_worker = {12};
    online.queries_per_run = 8000;
  }

  std::cout << "running offline grid ("
            << offline.datasets.size() *
                   (offline.algorithms.empty()
                        ? PartitionerNames().size()
                        : offline.algorithms.size()) *
                   offline.cluster_sizes.size() * offline.workloads.size()
            << " cells)...\n";
  auto offline_records = RunOfflineGrid(offline);
  std::ofstream offline_out(prefix + "_offline.csv");
  WriteOfflineCsv(offline_records, offline_out);
  std::cout << "wrote " << offline_records.size() << " rows to " << prefix
            << "_offline.csv\n";

  std::cout << "running online grid...\n";
  auto online_records = RunOnlineGrid(online);
  std::ofstream online_out(prefix + "_online.csv");
  WriteOnlineCsv(online_records, online_out);
  std::cout << "wrote " << online_records.size() << " rows to " << prefix
            << "_online.csv\n";
  return 0;
}
