#ifndef SGP_PARTITION_VERTEXCUT_DBH_H_
#define SGP_PARTITION_VERTEXCUT_DBH_H_

#include "partition/partitioner.h"

namespace sgp {

/// Degree-Based Hashing (Xie et al., NIPS'14): edge (u,v) is placed by
/// hashing the endpoint of smaller degree, so high-degree vertices are the
/// ones replicated. Relies on a priori degree knowledge (Section 4.2.2);
/// this implementation uses the exact undirected degrees, matching the
/// paper's evaluation setting where graphs are loaded from storage.
class DbhPartitioner final : public Partitioner {
 public:
  std::string_view name() const override { return "DBH"; }
  CutModel model() const override { return CutModel::kVertexCut; }
  Partitioning Run(const Graph& graph,
                   const PartitionConfig& config) const override;

  /// Graph-free ingest: a degree-counting pre-pass (stream occurrence
  /// counts stand in for degrees), then a rewind and the hashing pass.
  /// Reports a regular error when the source cannot rewind. Run skips the
  /// pre-pass: it hands the same stream body the graph's degrees.
  StreamRunResult RunOnSource(EdgeStreamSource& source,
                              const PartitionConfig& config) const override;
};

}  // namespace sgp

#endif  // SGP_PARTITION_VERTEXCUT_DBH_H_
