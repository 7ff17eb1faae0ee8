#ifndef SGP_ENGINE_PROGRAMS_H_
#define SGP_ENGINE_PROGRAMS_H_

#include <limits>
#include <vector>

#include "engine/vertex_program.h"

namespace sgp {

/// PageRank (Section 5.1.3): all-active, fixed iteration count, sum
/// combiner over in-edges; the canonical uni-directional heavy
/// communication workload.
class PageRankProgram {
 public:
  static constexpr EdgeDirection kGatherDirection = EdgeDirection::kIn;
  static constexpr EdgeDirection kScatterDirection = EdgeDirection::kOut;
  static constexpr bool kAllActive = true;
  /// GatherContribution depends only on the source vertex (value_u and
  /// OutDegree(u), never on v), so the all-active kernel may hoist the
  /// per-source contribution out of the per-edge loop — computing it once
  /// per source per superstep is bit-identical to recomputing it per edge.
  static constexpr bool kSourceOnlyGather = true;

  explicit PageRankProgram(uint32_t iterations = 20, double damping = 0.85)
      : iterations_(iterations), damping_(damping) {}

  double InitialValue(VertexId, const Graph&) const { return 1.0; }
  double GatherNeutral() const { return 0.0; }
  double GatherContribution(VertexId u, VertexId, double value_u,
                            const Graph& graph) const {
    return value_u / static_cast<double>(graph.OutDegree(u));
  }
  double Combine(double a, double b) const { return a + b; }
  double Apply(VertexId, double, double gathered, uint64_t,
               const Graph&) const {
    return (1.0 - damping_) + damping_ * gathered;
  }
  uint32_t max_iterations() const { return iterations_; }

 private:
  uint32_t iterations_;
  double damping_;
};

/// Weakly Connected Components via label propagation (Section 5.1.3):
/// starts all-active, shrinking frontier, min combiner over both edge
/// directions — the variable-communication workload.
class WccProgram {
 public:
  static constexpr EdgeDirection kGatherDirection = EdgeDirection::kBoth;
  static constexpr EdgeDirection kScatterDirection = EdgeDirection::kBoth;
  static constexpr bool kAllActive = false;

  double InitialValue(VertexId v, const Graph&) const {
    return static_cast<double>(v);
  }
  double GatherNeutral() const {
    return std::numeric_limits<double>::infinity();
  }
  double GatherContribution(VertexId, VertexId, double value_u,
                            const Graph&) const {
    return value_u;
  }
  double Combine(double a, double b) const { return a < b ? a : b; }
  double Apply(VertexId, double old_value, double gathered, uint64_t,
               const Graph&) const {
    return gathered < old_value ? gathered : old_value;
  }
  uint32_t max_iterations() const { return 10000; }
  std::vector<VertexId> InitialFrontier(const Graph& graph) const {
    std::vector<VertexId> all(graph.num_vertices());
    for (VertexId v = 0; v < graph.num_vertices(); ++v) all[v] = v;
    return all;
  }
};

/// Single-Source Shortest Path, unit edge weights (Section 5.1.3):
/// frontier starts at one vertex, grows in BFS order and then shrinks —
/// the adversarial workload for the uniform-load assumption of SGP
/// objectives.
class SsspProgram {
 public:
  // Relaxation flows along out-edges, i.e. v gathers over in-edges for
  // directed graphs and over all edges for undirected ones.
  static constexpr EdgeDirection kGatherDirection = EdgeDirection::kIn;
  static constexpr EdgeDirection kScatterDirection = EdgeDirection::kOut;
  static constexpr bool kAllActive = false;

  explicit SsspProgram(VertexId source) : source_(source) {}

  double InitialValue(VertexId v, const Graph&) const {
    return v == source_ ? 0.0 : std::numeric_limits<double>::infinity();
  }
  double GatherNeutral() const {
    return std::numeric_limits<double>::infinity();
  }
  double GatherContribution(VertexId, VertexId, double value_u,
                            const Graph&) const {
    return value_u + 1.0;
  }
  double Combine(double a, double b) const { return a < b ? a : b; }
  double Apply(VertexId, double old_value, double gathered, uint64_t,
               const Graph&) const {
    return gathered < old_value ? gathered : old_value;
  }
  uint32_t max_iterations() const { return 100000; }
  std::vector<VertexId> InitialFrontier(const Graph&) const {
    return {source_};
  }

  VertexId source() const { return source_; }

 private:
  VertexId source_;
};

}  // namespace sgp

#endif  // SGP_ENGINE_PROGRAMS_H_
