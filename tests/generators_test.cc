#include "graph/generators.h"

#include <limits>

#include <gtest/gtest.h>
#include "graph/datasets.h"
#include "tests/engine_reference.h"

namespace sgp {
namespace {

TEST(ErdosRenyiTest, ExactEdgeCount) {
  Graph g = ErdosRenyi(100, 300, /*seed=*/1);
  EXPECT_EQ(g.num_vertices(), 100u);
  EXPECT_EQ(g.num_edges(), 300u);
  EXPECT_FALSE(g.directed());
}

TEST(ErdosRenyiTest, DeterministicPerSeed) {
  Graph a = ErdosRenyi(50, 100, 7);
  Graph b = ErdosRenyi(50, 100, 7);
  EXPECT_EQ(a.edges(), b.edges());
  Graph c = ErdosRenyi(50, 100, 8);
  EXPECT_NE(a.edges(), c.edges());
}

TEST(BarabasiAlbertTest, EdgeCountAndHeavyTail) {
  Graph g = BarabasiAlbert(2000, 4, /*seed=*/3);
  GraphStats s = ComputeStats(g);
  // Seed clique contributes C(5,2)=10 edges, then 4 per vertex.
  EXPECT_EQ(g.num_edges(), 10u + 4u * (2000u - 5u));
  // Preferential attachment produces hubs far above the mean degree.
  EXPECT_GT(s.max_degree, 10 * s.avg_degree);
}

TEST(RmatTest, SizesAndDirection) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  Graph g = Rmat(p, 5);
  EXPECT_EQ(g.num_vertices(), 1024u);
  EXPECT_TRUE(g.directed());
  // Duplicates and self-loops are dropped, so slightly under 8·1024.
  EXPECT_GT(g.num_edges(), 6 * 1024u);
  EXPECT_LE(g.num_edges(), 8 * 1024u);
}

TEST(RmatTest, SkewedDegreeDistribution) {
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 16;
  Graph g = Rmat(p, 9);
  GraphStats s = ComputeStats(g);
  EXPECT_GT(s.max_degree, 20 * s.avg_degree);
}

// The branch-free quadrant pick assumes a ≤ a+b ≤ a+b+c; a negative
// probability must stop the generator rather than draw from the wrong
// quadrants.
TEST(RmatDeathTest, RejectsNegativeQuadrantProbability) {
  for (double RmatParams::*field :
       {&RmatParams::a, &RmatParams::b, &RmatParams::c}) {
    RmatParams p;
    p.scale = 6;
    p.*field = -0.01;
    EXPECT_DEATH(Rmat(p, 1), "SGP_CHECK");
  }
}

TEST(RoadNetworkTest, ConnectedLowDegreeLongDiameter) {
  Graph g = RoadNetwork(40, 40, 2.5, /*seed=*/11);
  GraphStats s = ComputeStats(g);
  EXPECT_EQ(s.num_vertices, 1600u);
  EXPECT_LE(s.max_degree, 4u);
  EXPECT_NEAR(s.avg_degree, 2.5, 0.2);
  // The embedded spanning tree guarantees a single weakly connected
  // component.
  std::vector<double> wcc = ReferenceWcc(g);
  for (double label : wcc) EXPECT_EQ(label, 0.0);
  // Long diameter: distance across the grid is at least the side length.
  std::vector<double> dist = ReferenceSssp(g, 0);
  double max_dist = 0;
  for (double d : dist) max_dist = std::max(max_dist, d);
  EXPECT_GE(max_dist, 40.0);
}

TEST(SocialNetworkTest, TargetsAverageDegree) {
  SocialNetworkParams p;
  p.num_vertices = 4000;
  p.avg_degree = 16;
  Graph g = SocialNetwork(p, 13);
  GraphStats s = ComputeStats(g);
  EXPECT_EQ(s.num_vertices, 4000u);
  EXPECT_NEAR(s.avg_degree, 16.0, 3.0);
  EXPECT_LE(s.max_degree, p.max_degree);
  EXPECT_GT(s.max_degree, 4 * s.avg_degree);  // heavy tail, bounded
}

TEST(WattsStrogatzTest, NoRewiringIsRegularRing) {
  Graph g = WattsStrogatz(100, 3, 0.0, 1);
  GraphStats s = ComputeStats(g);
  EXPECT_EQ(s.num_edges, 300u);
  for (VertexId v = 0; v < 100; ++v) EXPECT_EQ(g.Degree(v), 6u);
  // A pure ring lattice has a long diameter.
  std::vector<double> dist = ReferenceSssp(g, 0);
  double max_dist = 0;
  for (double d : dist) max_dist = std::max(max_dist, d);
  EXPECT_GE(max_dist, 100.0 / (2 * 3) - 1);
}

TEST(WattsStrogatzTest, RewiringShrinksDiameter) {
  Graph ring = WattsStrogatz(400, 2, 0.0, 2);
  Graph small_world = WattsStrogatz(400, 2, 0.2, 2);
  auto diameter_from_zero = [](const Graph& g) {
    double max_dist = 0;
    for (double d : ReferenceSssp(g, 0)) {
      if (d != std::numeric_limits<double>::infinity()) {
        max_dist = std::max(max_dist, d);
      }
    }
    return max_dist;
  };
  EXPECT_LT(diameter_from_zero(small_world),
            diameter_from_zero(ring) / 2);
}

TEST(WattsStrogatzTest, DegreeStaysNearRegular) {
  Graph g = WattsStrogatz(1000, 4, 0.1, 3);
  GraphStats s = ComputeStats(g);
  EXPECT_NEAR(s.avg_degree, 8.0, 0.5);
  EXPECT_LT(s.max_degree, 20u);  // rewiring barely perturbs degrees
}

TEST(DatasetsTest, AllNamesProduceGraphs) {
  for (const std::string& name : DatasetNames()) {
    Graph g = MakeDataset(name, /*scale=*/10);
    EXPECT_GT(g.num_vertices(), 0u) << name;
    EXPECT_GT(g.num_edges(), 0u) << name;
  }
}

TEST(DatasetsTest, StructuralContrasts) {
  Graph twitter = MakeDataset("twitter", 12);
  Graph road = MakeDataset("usaroad", 12);
  GraphStats st = ComputeStats(twitter);
  GraphStats sr = ComputeStats(road);
  EXPECT_TRUE(twitter.directed());
  EXPECT_FALSE(road.directed());
  // Skewed vs regular.
  EXPECT_GT(st.max_degree / st.avg_degree, 20.0);
  EXPECT_LT(sr.max_degree / sr.avg_degree, 2.0);
}

TEST(DatasetsTest, DeterministicAcrossCalls) {
  Graph a = MakeDataset("ldbc", 10);
  Graph b = MakeDataset("ldbc", 10);
  EXPECT_EQ(a.edges(), b.edges());
}

}  // namespace
}  // namespace sgp
