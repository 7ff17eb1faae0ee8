#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/random.h"

namespace sgp {

namespace {

uint64_t EncodePair(VertexId a, VertexId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

uint64_t EncodeUndirected(VertexId a, VertexId b) {
  return a < b ? EncodePair(a, b) : EncodePair(b, a);
}

}  // namespace

Graph ErdosRenyi(VertexId num_vertices, EdgeId num_edges, uint64_t seed) {
  SGP_CHECK(num_vertices >= 2);
  const uint64_t max_edges =
      static_cast<uint64_t>(num_vertices) * (num_vertices - 1) / 2;
  SGP_CHECK(num_edges <= max_edges);
  Rng rng(seed);
  GraphBuilder builder(num_vertices, /*directed=*/false);
  std::unordered_set<uint64_t> used;
  used.reserve(num_edges * 2);
  while (used.size() < num_edges) {
    VertexId u = static_cast<VertexId>(rng.UniformInt(num_vertices));
    VertexId v = static_cast<VertexId>(rng.UniformInt(num_vertices));
    if (u == v) continue;
    if (used.insert(EncodeUndirected(u, v)).second) builder.AddEdge(u, v);
  }
  return std::move(builder).Finalize();
}

Graph BarabasiAlbert(VertexId num_vertices, uint32_t edges_per_vertex,
                     uint64_t seed) {
  SGP_CHECK(edges_per_vertex >= 1);
  SGP_CHECK(num_vertices > edges_per_vertex);
  Rng rng(seed);
  GraphBuilder builder(num_vertices, /*directed=*/false);
  // `endpoints` holds every edge endpoint seen so far; sampling uniformly
  // from it is sampling proportional to degree.
  std::vector<VertexId> endpoints;
  endpoints.reserve(static_cast<size_t>(num_vertices) * edges_per_vertex * 2);

  // Seed clique over the first m+1 vertices.
  const VertexId m0 = edges_per_vertex + 1;
  for (VertexId u = 0; u < m0; ++u) {
    for (VertexId v = u + 1; v < m0; ++v) {
      builder.AddEdge(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  std::vector<VertexId> targets;
  for (VertexId u = m0; u < num_vertices; ++u) {
    targets.clear();
    while (targets.size() < edges_per_vertex) {
      VertexId t = endpoints[rng.UniformInt(endpoints.size())];
      if (t != u &&
          std::find(targets.begin(), targets.end(), t) == targets.end()) {
        targets.push_back(t);
      }
    }
    for (VertexId t : targets) {
      builder.AddEdge(u, t);
      endpoints.push_back(u);
      endpoints.push_back(t);
    }
  }
  return std::move(builder).Finalize();
}

Graph Rmat(const RmatParams& params, uint64_t seed) {
  // The quadrant pick below needs a <= a+b <= a+b+c; no probability may be
  // negative.
  SGP_CHECK(params.a >= 0.0 && params.b >= 0.0 && params.c >= 0.0);
  SGP_CHECK(params.a + params.b + params.c < 1.0);
  const VertexId n = static_cast<VertexId>(1u) << params.scale;
  const uint64_t m = static_cast<uint64_t>(params.edge_factor) * n;
  Rng rng(seed);

  std::vector<VertexId> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  if (params.scramble_ids) rng.Shuffle(perm);

  GraphBuilder builder(n, params.directed);
  const double a = params.a;
  const double ab = params.a + params.b;
  const double abc = ab + params.c;
  for (uint64_t i = 0; i < m; ++i) {
    VertexId src = 0;
    VertexId dst = 0;
    for (uint32_t bit = 0; bit < params.scale; ++bit) {
      // Quadrants [0, a), [a, ab), [ab, abc), [abc, 1) set the (src, dst)
      // bits 00, 01, 10, 11: src is r >= ab, and dst is 1 where an odd
      // number of the three bounds lie at or below r.
      const double r = rng.UniformReal();
      src = (src << 1) | static_cast<VertexId>(r >= ab);
      dst = (dst << 1) |
            static_cast<VertexId>((r >= a) ^ (r >= ab) ^ (r >= abc));
    }
    if (src == dst) continue;
    builder.AddEdge(perm[src], perm[dst]);
  }
  return std::move(builder).Finalize();
}

Graph RoadNetwork(uint32_t rows, uint32_t cols, double target_avg_degree,
                  uint64_t seed) {
  SGP_CHECK(rows >= 2 && cols >= 2);
  const VertexId n = rows * cols;
  Rng rng(seed);
  GraphBuilder builder(n, /*directed=*/false);
  // Lattice edges taken so far: slot 2u is u's edge to its right-hand
  // neighbour, slot 2u + 1 its edge to the neighbour below.
  std::vector<bool> chosen(2 * static_cast<size_t>(n), false);
  auto slot = [](VertexId u, VertexId v) -> size_t {
    const VertexId lo = std::min(u, v);
    return 2 * static_cast<size_t>(lo) + (std::max(u, v) - lo == 1 ? 0 : 1);
  };

  auto id = [cols](uint32_t r, uint32_t c) -> VertexId {
    return r * cols + c;
  };

  // Random spanning tree over the lattice via randomized iterative DFS:
  // guarantees connectivity of the result.
  std::vector<bool> visited(n, false);
  std::vector<VertexId> stack;
  stack.push_back(0);
  visited[0] = true;
  size_t num_edges = 0;
  while (!stack.empty()) {
    VertexId u = stack.back();
    uint32_t r = u / cols;
    uint32_t c = u % cols;
    VertexId candidates[4];
    size_t count = 0;
    if (r > 0 && !visited[id(r - 1, c)]) candidates[count++] = id(r - 1, c);
    if (r + 1 < rows && !visited[id(r + 1, c)])
      candidates[count++] = id(r + 1, c);
    if (c > 0 && !visited[id(r, c - 1)]) candidates[count++] = id(r, c - 1);
    if (c + 1 < cols && !visited[id(r, c + 1)])
      candidates[count++] = id(r, c + 1);
    if (count == 0) {
      stack.pop_back();
      continue;
    }
    VertexId v = candidates[rng.UniformInt(count)];
    visited[v] = true;
    builder.AddEdge(u, v);
    chosen[slot(u, v)] = true;
    ++num_edges;
    stack.push_back(v);
  }

  // Add extra lattice edges uniformly at random until the target density.
  const uint64_t target_edges = std::min<uint64_t>(
      static_cast<uint64_t>(target_avg_degree * n / 2.0),
      static_cast<uint64_t>(rows) * (cols - 1) +
          static_cast<uint64_t>(cols) * (rows - 1));
  while (num_edges < target_edges) {
    uint32_t r = static_cast<uint32_t>(rng.UniformInt(rows));
    uint32_t c = static_cast<uint32_t>(rng.UniformInt(cols));
    bool horizontal = rng.Bernoulli(0.5);
    if (horizontal && c + 1 >= cols) continue;
    if (!horizontal && r + 1 >= rows) continue;
    VertexId u = id(r, c);
    VertexId v = horizontal ? id(r, c + 1) : id(r + 1, c);
    const size_t s = slot(u, v);
    if (!chosen[s]) {
      chosen[s] = true;
      builder.AddEdge(u, v);
      ++num_edges;
    }
  }
  return std::move(builder).Finalize();
}

Graph WattsStrogatz(VertexId num_vertices, uint32_t neighbors_each_side,
                    double rewire_probability, uint64_t seed) {
  SGP_CHECK(num_vertices > 2 * neighbors_each_side);
  SGP_CHECK(rewire_probability >= 0.0 && rewire_probability <= 1.0);
  Rng rng(seed);
  GraphBuilder builder(num_vertices, /*directed=*/false);
  std::unordered_set<uint64_t> used;
  for (VertexId u = 0; u < num_vertices; ++u) {
    for (uint32_t j = 1; j <= neighbors_each_side; ++j) {
      VertexId v = (u + j) % num_vertices;
      if (rng.Bernoulli(rewire_probability)) {
        // Rewire to a uniform random non-duplicate endpoint.
        for (int attempt = 0; attempt < 16; ++attempt) {
          VertexId w = static_cast<VertexId>(rng.UniformInt(num_vertices));
          if (w == u) continue;
          if (!used.count(EncodeUndirected(u, w))) {
            v = w;
            break;
          }
        }
      }
      if (used.insert(EncodeUndirected(u, v)).second) builder.AddEdge(u, v);
    }
  }
  return std::move(builder).Finalize();
}

Graph SocialNetwork(const SocialNetworkParams& params, uint64_t seed) {
  const VertexId n = params.num_vertices;
  SGP_CHECK(n >= 2);
  Rng rng(seed);

  // Assign vertices to communities with a skewed size distribution.
  const uint32_t num_communities =
      std::max<uint32_t>(1, n / params.avg_community_size);
  ZipfSampler community_pick(num_communities, 0.8);
  std::vector<uint32_t> community_of(n);
  std::vector<std::vector<VertexId>> members(num_communities);
  for (VertexId u = 0; u < n; ++u) {
    uint32_t c = static_cast<uint32_t>(community_pick.Sample(rng));
    community_of[u] = c;
    members[c].push_back(u);
  }

  // Draw heavy-tailed target degrees, then rescale to the requested mean.
  // Each emitted edge contributes degree to both endpoints, so the stub
  // count per vertex targets avg_degree / 2.
  ZipfSampler degree_pick(params.max_degree, params.degree_skew);
  std::vector<double> raw(n);
  double sum = 0;
  for (VertexId u = 0; u < n; ++u) {
    raw[u] = 1.0 + static_cast<double>(degree_pick.Sample(rng));
    sum += raw[u];
  }
  const double scale = (params.avg_degree / 2.0) * n / sum;

  GraphBuilder builder(n, /*directed=*/false);
  std::unordered_set<uint64_t> used;
  for (VertexId u = 0; u < n; ++u) {
    double want = raw[u] * scale;
    uint32_t stubs = static_cast<uint32_t>(want);
    if (rng.UniformReal() < want - stubs) ++stubs;
    stubs = std::min(stubs, params.max_degree);
    const auto& own = members[community_of[u]];
    for (uint32_t s = 0; s < stubs; ++s) {
      // Dense communities make duplicate picks likely; retry a few times
      // so collisions do not silently erode the target degree.
      for (int attempt = 0; attempt < 8; ++attempt) {
        VertexId v;
        if (own.size() > 1 &&
            rng.Bernoulli(params.intra_community_fraction)) {
          v = own[rng.UniformInt(own.size())];
        } else {
          v = static_cast<VertexId>(rng.UniformInt(n));
        }
        if (v == u) continue;
        if (used.insert(EncodeUndirected(u, v)).second) {
          builder.AddEdge(u, v);
          break;
        }
      }
    }
  }
  return std::move(builder).Finalize();
}

}  // namespace sgp
