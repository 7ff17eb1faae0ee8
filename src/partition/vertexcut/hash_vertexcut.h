#ifndef SGP_PARTITION_VERTEXCUT_HASH_VERTEXCUT_H_
#define SGP_PARTITION_VERTEXCUT_HASH_VERTEXCUT_H_

#include "partition/partitioner.h"

namespace sgp {

/// Hash-based random vertex-cut partitioning (VCR): edge (u,v) goes to
/// hash(u ∥ v) mod k. Perfectly balanced in edge counts but replicates
/// aggressively (Section 4.2.2).
class HashVertexCutPartitioner final : public Partitioner {
 public:
  std::string_view name() const override { return "VCR"; }
  CutModel model() const override { return CutModel::kVertexCut; }
  Partitioning Run(const Graph& graph,
                   const PartitionConfig& config) const override;

  /// Graph-free single-pass ingest: O(n + k) synopsis. Run replays the
  /// graph through the same stream body.
  StreamRunResult RunOnSource(EdgeStreamSource& source,
                              const PartitionConfig& config) const override;
};

}  // namespace sgp

#endif  // SGP_PARTITION_VERTEXCUT_HASH_VERTEXCUT_H_
