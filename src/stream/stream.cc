#include "stream/stream.h"

#include <algorithm>
#include <deque>
#include <numeric>

#include "common/random.h"
#include "common/telemetry.h"

namespace sgp {

namespace {

// Ingest-rate instrumentation: one flush per stream materialization, no
// per-element work (stream construction is on the partitioners' hot path).
struct StreamMetrics {
  Counter* vertex_builds = nullptr;
  Counter* vertex_items = nullptr;
  Counter* edge_builds = nullptr;
  Counter* edge_items = nullptr;
  Histogram* build_wall = nullptr;

  StreamMetrics() = default;
  explicit StreamMetrics(MetricsRegistry& reg) {
    vertex_builds = reg.GetCounter("stream.vertex_stream.builds");
    vertex_items = reg.GetCounter("stream.vertex_stream.items");
    edge_builds = reg.GetCounter("stream.edge_stream.builds");
    edge_items = reg.GetCounter("stream.edge_stream.items");
    build_wall = reg.GetHistogram("stream.build.wall_seconds",
                                  MetricOptions::WallClock());
  }

  static StreamMetrics& Get() {
    return CurrentRegistryMetrics<StreamMetrics>();
  }
};

// Identity id sequence, optionally shuffled: the natural/random base
// order shared by the vertex and edge streams.
template <typename Id>
std::vector<Id> BaseOrder(uint64_t count, bool shuffled, uint64_t seed) {
  std::vector<Id> ids(count);
  std::iota(ids.begin(), ids.end(), Id{0});
  if (shuffled) {
    Rng rng(seed);
    rng.Shuffle(ids);
  }
  return ids;
}

// Traversal order over the undirected graph, covering every component.
// `depth_first` selects DFS, otherwise BFS. Component roots are chosen in
// random order so the traversal does not privilege low vertex ids.
std::vector<VertexId> TraversalOrder(const Graph& graph, bool depth_first,
                                     uint64_t seed) {
  const VertexId n = graph.num_vertices();
  Rng rng(seed);
  std::vector<VertexId> roots(n);
  std::iota(roots.begin(), roots.end(), 0u);
  rng.Shuffle(roots);

  std::vector<VertexId> order;
  order.reserve(n);
  std::vector<bool> visited(n, false);
  std::deque<VertexId> frontier;
  for (VertexId root : roots) {
    if (visited[root]) continue;
    visited[root] = true;
    frontier.push_back(root);
    while (!frontier.empty()) {
      VertexId u;
      if (depth_first) {
        u = frontier.back();
        frontier.pop_back();
      } else {
        u = frontier.front();
        frontier.pop_front();
      }
      order.push_back(u);
      for (VertexId v : graph.Neighbors(u)) {
        if (!visited[v]) {
          visited[v] = true;
          frontier.push_back(v);
        }
      }
    }
  }
  return order;
}

}  // namespace

std::optional<StreamOrder> ParseStreamOrder(std::string_view name) {
  if (name == "natural") return StreamOrder::kNatural;
  if (name == "random") return StreamOrder::kRandom;
  if (name == "bfs") return StreamOrder::kBfs;
  if (name == "dfs") return StreamOrder::kDfs;
  return std::nullopt;
}

std::string_view StreamOrderName(StreamOrder order) {
  switch (order) {
    case StreamOrder::kNatural:
      return "natural";
    case StreamOrder::kRandom:
      return "random";
    case StreamOrder::kBfs:
      return "bfs";
    case StreamOrder::kDfs:
      return "dfs";
  }
  return "unknown";
}

std::vector<VertexId> MakeVertexStream(const Graph& graph, StreamOrder order,
                                       uint64_t seed) {
  StreamMetrics& metrics = StreamMetrics::Get();
  ScopedTimer build_timer(metrics.build_wall);
  metrics.vertex_builds->Increment();
  metrics.vertex_items->Increment(graph.num_vertices());
  const VertexId n = graph.num_vertices();
  switch (order) {
    case StreamOrder::kNatural:
    case StreamOrder::kRandom:
      return BaseOrder<VertexId>(n, order == StreamOrder::kRandom, seed);
    case StreamOrder::kBfs:
      return TraversalOrder(graph, /*depth_first=*/false, seed);
    case StreamOrder::kDfs:
      return TraversalOrder(graph, /*depth_first=*/true, seed);
  }
  return {};
}

std::vector<EdgeId> MakeEdgeStream(const Graph& graph, StreamOrder order,
                                   uint64_t seed) {
  StreamMetrics& metrics = StreamMetrics::Get();
  ScopedTimer build_timer(metrics.build_wall);
  metrics.edge_builds->Increment();
  metrics.edge_items->Increment(graph.num_edges());
  const EdgeId m = graph.num_edges();
  std::vector<EdgeId> ids =
      BaseOrder<EdgeId>(m, order == StreamOrder::kRandom, seed);
  switch (order) {
    case StreamOrder::kNatural:
    case StreamOrder::kRandom:
      return ids;
    case StreamOrder::kBfs:
    case StreamOrder::kDfs: {
      std::vector<VertexId> vertex_order = TraversalOrder(
          graph, /*depth_first=*/order == StreamOrder::kDfs, seed);
      std::vector<uint32_t> position(graph.num_vertices());
      for (uint32_t i = 0; i < vertex_order.size(); ++i) {
        position[vertex_order[i]] = i;
      }
      std::stable_sort(ids.begin(), ids.end(), [&](EdgeId a, EdgeId b) {
        const Edge& ea = graph.edges()[a];
        const Edge& eb = graph.edges()[b];
        return std::min(position[ea.src], position[ea.dst]) <
               std::min(position[eb.src], position[eb.dst]);
      });
      return ids;
    }
  }
  return ids;
}

}  // namespace sgp
