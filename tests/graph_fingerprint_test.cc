// Graph golden: every generator's output pinned to FNV-1a fingerprints of
// its edge list and of every adjacency row
// (tests/golden/graph_fingerprints.txt). The scale-9 checksum grid pins
// generated graphs only through the partitions computed from them; this
// suite fails on any change to edge order, row order or row contents,
// whichever generator or builder pass made it.
//
// Golden line format:
//   <graph> n=<vertices> m=<edges> edges=<hex> und=<hex> out=<hex> in=<hex>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <span>
#include <string>

#include <gtest/gtest.h>
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace sgp {
namespace {

struct Fnv {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Add(uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ULL;
  }
};

std::string Hex(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

// Hashes every row's length and then its entries, so a target that moves
// to a neighbouring row changes the fingerprint.
template <typename RowFn>
std::string RowsHex(const Graph& g, RowFn&& row) {
  Fnv f;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const std::span<const VertexId> r = row(u);
    f.Add(r.size());
    for (VertexId v : r) f.Add(v);
  }
  return Hex(f.h);
}

std::string FingerprintLine(const std::string& key, const Graph& g) {
  Fnv edges;
  for (const Edge& e : g.edges()) {
    edges.Add(e.src);
    edges.Add(e.dst);
  }
  return key + " n=" + std::to_string(g.num_vertices()) +
         " m=" + std::to_string(g.num_edges()) + " edges=" + Hex(edges.h) +
         " und=" + RowsHex(g, [&](VertexId u) { return g.Neighbors(u); }) +
         " out=" + RowsHex(g, [&](VertexId u) { return g.OutNeighbors(u); }) +
         " in=" + RowsHex(g, [&](VertexId u) { return g.InNeighbors(u); });
}

std::map<std::string, std::string> GoldenLines() {
  std::map<std::string, std::string> lines;
  std::ifstream in(SGP_GOLDEN_DIR "/graph_fingerprints.txt");
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    lines[line.substr(0, line.find(' '))] = line;
  }
  return lines;
}

void ExpectGolden(const std::string& key, const Graph& g) {
  static const auto* golden =
      new std::map<std::string, std::string>(GoldenLines());
  const std::string line = FingerprintLine(key, g);
  const auto it = golden->find(key);
  ASSERT_TRUE(it != golden->end()) << "no golden line; computed:\n" << line;
  EXPECT_EQ(it->second, line) << "computed:\n" << line;
}

class DatasetFingerprintTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DatasetFingerprintTest, MatchesGolden) {
  ExpectGolden("dataset." + GetParam() + ".scale12",
               MakeDataset(GetParam(), 12));
}

INSTANTIATE_TEST_SUITE_P(Golden, DatasetFingerprintTest,
                         ::testing::ValuesIn(DatasetNames()),
                         [](const auto& info) { return info.param; });

TEST(GeneratorFingerprintTest, UndirectedRmat) {
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 8;
  p.directed = false;
  ExpectGolden("rmat.undirected.scale12", Rmat(p, 0x51));
}

TEST(GeneratorFingerprintTest, ErdosRenyi) {
  ExpectGolden("erdos_renyi.n3000.m20000", ErdosRenyi(3000, 20000, 0x52));
}

TEST(GeneratorFingerprintTest, BarabasiAlbert) {
  ExpectGolden("barabasi_albert.n3000.d5", BarabasiAlbert(3000, 5, 0x53));
}

TEST(GeneratorFingerprintTest, WattsStrogatz) {
  ExpectGolden("watts_strogatz.n3000.k4.p0.2",
               WattsStrogatz(3000, 4, 0.2, 0x54));
}

}  // namespace
}  // namespace sgp
