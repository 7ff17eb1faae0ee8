#ifndef SGP_STREAM_STREAM_H_
#define SGP_STREAM_STREAM_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "graph/graph.h"

namespace sgp {

/// Order in which graph elements arrive at the partitioner (Section 3). The
/// streaming literature evaluates natural (as-generated), random, BFS and
/// DFS orders; greedy vertex-cut is famously sensitive to BFS order
/// (Section 4.2.2), which the ablation benchmarks reproduce.
enum class StreamOrder {
  kNatural,
  kRandom,
  kBfs,
  kDfs,
};

/// Parses "natural" / "random" / "bfs" / "dfs"; nullopt for any other
/// name.
std::optional<StreamOrder> ParseStreamOrder(std::string_view name);

/// Human-readable name of `order`.
std::string_view StreamOrderName(StreamOrder order);

/// Produces the sequence of vertex ids for a vertex stream: each element of
/// the stream is a vertex together with its full adjacency list
/// (Section 4.1.1); consumers read Neighbors(u) from the graph.
std::vector<VertexId> MakeVertexStream(const Graph& graph, StreamOrder order,
                                       uint64_t seed);

/// Produces the sequence of edge ids (indexes into graph.edges()) for an
/// edge stream (Section 4.2.2). BFS/DFS order edges by the traversal
/// position of their earlier-discovered endpoint.
std::vector<EdgeId> MakeEdgeStream(const Graph& graph, StreamOrder order,
                                   uint64_t seed);

}  // namespace sgp

#endif  // SGP_STREAM_STREAM_H_
