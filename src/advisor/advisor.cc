#include "advisor/advisor.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace sgp {

std::string_view DegreeDistributionName(DegreeDistribution d) {
  switch (d) {
    case DegreeDistribution::kLowDegree:
      return "low-degree";
    case DegreeDistribution::kHeavyTailed:
      return "heavy-tailed";
    case DegreeDistribution::kPowerLaw:
      return "power-law";
  }
  return "unknown";
}

Recommendation Recommend(const AdvisorQuery& query) {
  Recommendation r;
  if (query.workload == WorkloadClass::kOnlineQueries) {
    if (query.latency_critical || query.high_load) {
      r.partitioner = "ECR";
      r.model = CutModel::kEdgeCut;
      r.rationale =
          "Online graph queries exhibit workload skew that structural "
          "metrics do not capture; hash partitioning is resilient to both "
          "data and execution skew, keeping tail latency low under load "
          "(Section 6.3.2, Table 5).";
    } else {
      r.partitioner = "FNL";
      r.model = CutModel::kEdgeCut;
      r.rationale =
          "Under medium load FENNEL's lower edge-cut ratio improves "
          "aggregate throughput (Figure 6) at the expense of higher tail "
          "latency (Table 5).";
    }
    return r;
  }
  switch (query.degree) {
    case DegreeDistribution::kLowDegree:
      r.partitioner = "FNL";
      r.model = CutModel::kEdgeCut;
      r.rationale =
          "On regular low-degree graphs edge-cut SGP preserves locality "
          "without load imbalance, so its lower replication factor "
          "translates directly to lower execution time (Figures 2 and 13).";
      break;
    case DegreeDistribution::kHeavyTailed:
      r.partitioner = "HG";
      r.model = CutModel::kHybrid;
      r.rationale =
          "The hybrid model distributes the edges of the heavy high-degree "
          "tail while keeping low-degree vertices local, and lowers the "
          "synchronization cost of uni-directional workloads like PageRank "
          "(Sections 6.2.1 and 6.2.2).";
      break;
    case DegreeDistribution::kPowerLaw:
      r.partitioner = "HDRF";
      r.model = CutModel::kVertexCut;
      r.rationale =
          "HDRF attains the lowest replication factor on power-law graphs "
          "while keeping edges balanced, giving the best workload "
          "performance among vertex-cut algorithms (Section 6.2.2).";
      break;
  }
  return r;
}

DegreeDistribution ClassifyGraph(const Graph& graph) {
  GraphStats stats = ComputeStats(graph);
  if (stats.num_vertices == 0 || stats.avg_degree == 0) {
    return DegreeDistribution::kLowDegree;
  }
  if (static_cast<double>(stats.max_degree) <= 8.0 * stats.avg_degree) {
    return DegreeDistribution::kLowDegree;
  }
  // Hill estimator of the tail index over the top 1% of degrees (at least
  // 16 samples): alpha_hat = k / Σ log(d_i / d_min_tail).
  std::vector<double> degrees(graph.num_vertices());
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    degrees[u] = static_cast<double>(graph.Degree(u));
  }
  std::sort(degrees.begin(), degrees.end(), std::greater<>());
  size_t tail = std::max<size_t>(16, degrees.size() / 100);
  tail = std::min(tail, degrees.size() - 1);
  double sum_log = 0;
  const double threshold = std::max(1.0, degrees[tail]);
  size_t used = 0;
  for (size_t i = 0; i < tail; ++i) {
    if (degrees[i] <= threshold) break;
    sum_log += std::log(degrees[i] / threshold);
    ++used;
  }
  if (used == 0) return DegreeDistribution::kHeavyTailed;
  const double alpha = static_cast<double>(used) / sum_log;
  return alpha < 2.0 ? DegreeDistribution::kPowerLaw
                     : DegreeDistribution::kHeavyTailed;
}

}  // namespace sgp
