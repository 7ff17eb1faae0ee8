// The paper's decision tree (Figure 9) as a tool: describe your workload
// on the command line — or point it at an edge list — and get the
// recommended partitioning algorithm with the paper's reasoning.
//
// Usage:
//   advisor analytics <low-degree|heavy-tailed|power-law>
//   advisor online <latency|throughput> [high-load]
//   advisor classify <edge-list-file> [directed]
// Every mode accepts --metrics-out <file> to dump the telemetry registry
// as JSON.
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "advisor/advisor.h"
#include "common/telemetry.h"
#include "flags.h"
#include "graph/io.h"
#include "partition/partitioner.h"

namespace {

int Usage() {
  std::cerr
      << "usage:\n"
         "  advisor analytics <low-degree|heavy-tailed|power-law>\n"
         "  advisor online <latency|throughput> [high-load]\n"
         "  advisor classify <edge-list-file> [directed]\n"
         "  (any mode also takes --metrics-out <file>)\n"
         "recommendations draw from these algorithms:";
  for (const std::string& name : sgp::PartitionerNames()) {
    std::cerr << ' ' << name;
  }
  std::cerr << "\n";
  return 1;
}

void Print(const sgp::Recommendation& r) {
  std::cout << "recommended algorithm: " << r.partitioner << " ("
            << sgp::CutModelName(r.model) << ")\n\nwhy: " << r.rationale
            << "\n";
}

int RunAdvisor(const std::vector<std::string>& args);

}  // namespace

int main(int argc, char** argv) {
  // Extract --metrics-out <file> (valid in every mode) before dispatch.
  sgp::FlagParser flags(argc, argv);
  const std::string metrics_out =
      flags.TakeString("--metrics-out").value_or("");
  const std::vector<std::string> args = flags.TakePositional();
  if (!flags.ok()) {
    std::cerr << "error: " << flags.error() << "\n";
    return 1;
  }
  const int status = RunAdvisor(args);
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::cerr << "error: cannot write " << metrics_out << "\n";
      return 1;
    }
    out << sgp::MetricsRegistry::Global().ExportJson();
    std::cout << "metrics written to " << metrics_out << "\n";
  }
  return status;
}

namespace {

int RunAdvisor(const std::vector<std::string>& args) {
  using namespace sgp;
  if (args.size() < 2) return Usage();
  const std::string& mode = args[0];

  if (mode == "analytics") {
    AdvisorQuery q;
    q.workload = WorkloadClass::kOfflineAnalytics;
    const std::string& degree = args[1];
    if (degree == "low-degree") {
      q.degree = DegreeDistribution::kLowDegree;
    } else if (degree == "heavy-tailed") {
      q.degree = DegreeDistribution::kHeavyTailed;
    } else if (degree == "power-law") {
      q.degree = DegreeDistribution::kPowerLaw;
    } else {
      return Usage();
    }
    Print(Recommend(q));
    return 0;
  }
  if (mode == "online") {
    AdvisorQuery q;
    q.workload = WorkloadClass::kOnlineQueries;
    const std::string& objective = args[1];
    if (objective == "latency") {
      q.latency_critical = true;
    } else if (objective == "throughput") {
      q.latency_critical = false;
    } else {
      return Usage();
    }
    q.high_load = args.size() > 2 && args[2] == "high-load";
    Print(Recommend(q));
    return 0;
  }
  if (mode == "classify") {
    const bool directed = args.size() > 2 && args[2] == "directed";
    EdgeListReadResult read = TryReadEdgeListFile(args[1], directed);
    if (!read.ok) {
      std::cerr << "error: " << read.error << "\n";
      return 1;
    }
    if (read.skipped_lines > 0) {
      std::cerr << "warning: skipped " << read.skipped_lines
                << " malformed line(s)\n";
    }
    Graph g = std::move(read.graph);
    GraphStats stats = ComputeStats(g);
    DegreeDistribution d = ClassifyGraph(g);
    std::cout << "graph: " << stats.num_vertices << " vertices, "
              << stats.num_edges << " edges, avg degree "
              << stats.avg_degree << ", max degree " << stats.max_degree
              << "\nclassified as: " << DegreeDistributionName(d) << "\n\n";
    AdvisorQuery q;
    q.workload = WorkloadClass::kOfflineAnalytics;
    q.degree = d;
    Print(Recommend(q));
    return 0;
  }
  return Usage();
}

}  // namespace
