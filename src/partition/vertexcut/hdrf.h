#ifndef SGP_PARTITION_VERTEXCUT_HDRF_H_
#define SGP_PARTITION_VERTEXCUT_HDRF_H_

#include "partition/partitioner.h"

namespace sgp {

/// High-Degree Replicated First (Petroni et al., CIKM'15). Greedy
/// vertex-cut that prefers replicating the endpoint of higher *partial*
/// degree, preserving locality of low-degree vertices without a
/// degree-precomputation pass (Equation 7). The λ balance weight makes it
/// robust to adversarial (e.g. BFS) stream orders, unlike plain
/// PowerGraph greedy.
class HdrfPartitioner final : public Partitioner {
 public:
  std::string_view name() const override { return "HDRF"; }
  CutModel model() const override { return CutModel::kVertexCut; }
  Partitioning Run(const Graph& graph,
                   const PartitionConfig& config) const override;

  /// Graph-free single-pass ingest over the shared partition state. Run
  /// replays the graph through the same stream body, so an in-memory
  /// source in config.order reproduces Run exactly.
  StreamRunResult RunOnSource(EdgeStreamSource& source,
                              const PartitionConfig& config) const override;
};

}  // namespace sgp

#endif  // SGP_PARTITION_VERTEXCUT_HDRF_H_
