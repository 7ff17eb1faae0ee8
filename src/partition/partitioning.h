#ifndef SGP_PARTITION_PARTITIONING_H_
#define SGP_PARTITION_PARTITIONING_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "graph/graph.h"
#include "stream/stream.h"

namespace sgp {

/// Cut model of a partitioning algorithm (Section 4).
enum class CutModel {
  kEdgeCut,    // vertex-disjoint: vertices are assigned, edges may be cut
  kVertexCut,  // edge-disjoint: edges are assigned, vertices may be replicated
  kHybrid,     // PowerLyra: edge-cut for low-degree, vertex-cut for high-degree
};

/// Human-readable name of `model`.
std::string_view CutModelName(CutModel model);

/// Shared configuration for all partitioners. Algorithm-specific parameters
/// carry the defaults used by the paper / original publications.
struct PartitionConfig {
  /// Number of partitions k.
  PartitionId k = 4;

  /// Balance slack β of Equation (1): no partition may exceed β · (total/k).
  double balance_slack = 1.05;

  /// Seed driving stream shuffles and hash functions.
  uint64_t seed = 42;

  /// Arrival order of the stream.
  StreamOrder order = StreamOrder::kRandom;

  /// FENNEL γ exponent of the load term (Equation 5).
  double fennel_gamma = 1.5;

  /// FENNEL α; 0 selects the paper's optimum α = √k · m / n^{3/2} for
  /// γ = 1.5, generalized to α = m · k^{γ-1} / n^{γ}.
  double fennel_alpha = 0.0;

  /// HDRF balance weight λ (Equation 7); λ ≥ 1 protects against the
  /// BFS-order collapse of plain greedy (Section 4.2.2).
  double hdrf_lambda = 1.1;

  /// Degree threshold separating low- from high-degree vertices in the
  /// hybrid-cut model (PowerLyra uses 100 as default).
  uint32_t hybrid_threshold = 100;

  /// Number of passes for the re-streaming variants ([34]).
  uint32_t restream_passes = 5;

  /// Per-pass multiplier on FENNEL's α for re-streaming FENNEL; [34]
  /// anneals the load penalty upward so later passes tighten balance.
  /// 1.0 keeps the objective fixed.
  double restream_alpha_growth = 1.0;

  /// Relative capacities of the k partitions for heterogeneous clusters
  /// (Appendix A: BMI [44], LeBeane et al. [29]). Empty means homogeneous.
  /// When set (size k), every algorithm balances *effective* load —
  /// raw load divided by normalized capacity — instead of raw load, and
  /// hash-based algorithms draw partitions proportionally to capacity.
  /// Normalization lives in PartitionState (partition/state.h).
  std::vector<double> capacity_weights;

  /// Elements per ingest chunk pulled from the stream sources
  /// (stream/source.h). 0 serves the whole stream as a single chunk — the
  /// fast path for in-core graphs. Chunk boundaries never change the
  /// element sequence, so results are independent of this value.
  uint64_t ingest_chunk_size = 0;
};

/// Result of any partitioning algorithm, unified across cut models.
///
/// Every result carries both a vertex placement (master copies) and an edge
/// placement. For edge-cut algorithms the edge placement is derived by
/// grouping the out-edges of each vertex on the vertex's partition, which
/// Appendix B proves is communication-equivalent on a GAS engine. For
/// vertex-cut algorithms the master of a vertex is derived as its
/// most-loaded replica. This unification is exactly how the paper runs
/// edge-cut algorithms on PowerLyra.
struct Partitioning {
  CutModel model = CutModel::kEdgeCut;
  PartitionId k = 0;

  /// Partition of each vertex's master copy; size num_vertices.
  std::vector<PartitionId> vertex_to_partition;

  /// Partition of each edge (indexed by EdgeId); size num_edges.
  std::vector<PartitionId> edge_to_partition;

  /// Wall-clock seconds spent partitioning (the paper's partitioning time).
  double partitioning_seconds = 0;

  /// Bytes of working state the algorithm kept while streaming — the
  /// "synopsis" of Section 2 (assignments, partition loads, replica
  /// tables), excluding the input graph and the output itself. Streaming
  /// algorithms stay at O(n + k); the offline multilevel baseline
  /// materializes the whole coarsening hierarchy, which is the paper's
  /// "fraction of the memory" contrast (Section 4.1.1).
  uint64_t state_bytes = 0;
};

/// Fills `p->edge_to_partition` from `p->vertex_to_partition` by placing
/// each edge on its source's partition (Appendix B derivation).
void DeriveEdgePlacement(const Graph& graph, Partitioning* p);

/// Fills `p->vertex_to_partition` from `p->edge_to_partition`: each vertex's
/// master is its replica with the most incident edges (ties toward the
/// lower partition id); vertices without edges are hashed.
void DeriveMasterPlacement(const Graph& graph, Partitioning* p);

/// Replica sets A(u): the sorted set of partitions holding a copy of each
/// vertex (partitions of incident edges plus the master). Flat CSR layout.
struct ReplicaSets {
  std::vector<uint32_t> offsets;       // size n+1
  std::vector<PartitionId> partitions; // concatenated sorted sets

  std::span<const PartitionId> Of(VertexId u) const {
    return {partitions.data() + offsets[u], partitions.data() + offsets[u + 1]};
  }
};

/// Computes A(u) for every vertex from the edge and master placements.
ReplicaSets ComputeReplicaSets(const Graph& graph, const Partitioning& p);

}  // namespace sgp

#endif  // SGP_PARTITION_PARTITIONING_H_
