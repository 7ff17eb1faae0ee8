#ifndef SGP_ENGINE_VERTEX_PROGRAM_H_
#define SGP_ENGINE_VERTEX_PROGRAM_H_

#include <concepts>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace sgp {

/// Which incident edges a phase traverses.
enum class EdgeDirection {
  kIn,    // edges (u, v) when processing v
  kOut,   // edges (v, w) when processing v
  kBoth,  // undirected semantics
};

/// Synchronous Gather-Apply-Scatter vertex program (the PowerGraph /
/// PowerLyra computation model, Section 2). Vertex state is a double; the
/// gather aggregate must be commutative and associative so mirrors can
/// compute partial aggregates (sender-side aggregation, Appendix B).
///
/// A program states its shape once, as compile-time constants:
///   - kGatherDirection: edges traversed by the gather phase;
///   - kScatterDirection: edges traversed by the scatter phase
///     (activation of neighbors);
///   - kAllActive: true for fixed-iteration, all-active algorithms
///     (PageRank) — every vertex gathers and synchronizes its value every
///     iteration.
/// and its behaviour through these members:
///   - InitialValue(v, g): initial vertex value;
///   - GatherNeutral(): identity element of Combine();
///   - GatherContribution(u, v, value_u, g): contribution of neighbor `u`
///     (with current value `value_u`) to the gather of `v` along one edge;
///   - Combine(a, b): commutative-associative combiner (sum for PageRank,
///     min for WCC/SSSP);
///   - Apply(v, old, gathered, num_contributions, g): new value of `v`
///     from its old value and the combined gather result;
///     `num_contributions` is the number of gathered edges (0 if none);
///   - max_iterations(): iteration cap (PageRank runs exactly this many;
///     data-driven programs stop earlier when no value changes);
///   - InitialFrontier(g): vertices active in the first iteration
///     (required only when !kAllActive).
/// A vertex whose value changes (`!=`) activates its scatter neighbors.
template <typename P>
concept VertexProgram =
    requires(const P& p, VertexId v, double x, uint64_t c, const Graph& g) {
      { P::kGatherDirection } -> std::convertible_to<EdgeDirection>;
      { P::kScatterDirection } -> std::convertible_to<EdgeDirection>;
      { P::kAllActive } -> std::convertible_to<bool>;
      { p.InitialValue(v, g) } -> std::same_as<double>;
      { p.GatherNeutral() } -> std::same_as<double>;
      { p.GatherContribution(v, v, x, g) } -> std::same_as<double>;
      { p.Combine(x, x) } -> std::same_as<double>;
      { p.Apply(v, x, x, c, g) } -> std::same_as<double>;
      { p.max_iterations() } -> std::convertible_to<uint32_t>;
    } &&
    (P::kAllActive || requires(const P& p, const Graph& g) {
      { p.InitialFrontier(g) } -> std::same_as<std::vector<VertexId>>;
    });

}  // namespace sgp

#endif  // SGP_ENGINE_VERTEX_PROGRAM_H_
