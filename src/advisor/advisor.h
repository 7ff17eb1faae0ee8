#ifndef SGP_ADVISOR_ADVISOR_H_
#define SGP_ADVISOR_ADVISOR_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "partition/partitioning.h"

namespace sgp {

/// Workload class of the deployment (Section 5).
enum class WorkloadClass {
  kOfflineAnalytics,
  kOnlineQueries,
};

/// Degree-distribution class of the data graph (Table 3's "Type" column).
enum class DegreeDistribution {
  kLowDegree,    // road networks, meshes
  kHeavyTailed,  // online social networks (Twitter)
  kPowerLaw,     // web graphs (UK2007-05)
};

/// Human-readable name of the distribution class.
std::string_view DegreeDistributionName(DegreeDistribution d);

/// Inputs to the Figure 9 decision tree.
struct AdvisorQuery {
  WorkloadClass workload = WorkloadClass::kOfflineAnalytics;

  /// Degree distribution (analytics branch).
  DegreeDistribution degree = DegreeDistribution::kHeavyTailed;

  /// Online branch: is tail latency an SLO?
  bool latency_critical = true;

  /// Online branch: is the cluster expected to run near saturation?
  bool high_load = false;
};

/// A partitioner recommendation with the reasoning from Section 6.4.
struct Recommendation {
  std::string partitioner;  // code accepted by CreatePartitioner()
  CutModel model = CutModel::kEdgeCut;
  std::string rationale;
};

/// The paper's decision tree (Figure 9): picks a streaming partitioning
/// algorithm from workload class, degree distribution and application
/// requirements.
Recommendation Recommend(const AdvisorQuery& query);

/// Classifies a graph's degree distribution: low-degree when the maximum
/// degree is within a small factor of the average; otherwise the Hill
/// estimator on the top tail separates power-law (tail index < 2) from
/// merely heavy-tailed graphs.
DegreeDistribution ClassifyGraph(const Graph& graph);

}  // namespace sgp

#endif  // SGP_ADVISOR_ADVISOR_H_
