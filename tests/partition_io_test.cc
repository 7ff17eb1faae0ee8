#include "partition/partition_io.h"

#include <random>
#include <sstream>
#include <string>

#include <gtest/gtest.h>
#include "common/text_writer.h"
#include "graph/datasets.h"
#include "partition/metrics.h"
#include "partition/partitioner.h"
#include "tests/test_util.h"

namespace sgp {
namespace {

TEST(PartitionIoTest, RoundTripEdgeCut) {
  Graph g = MakeDataset("usaroad", 8);
  PartitionConfig cfg;
  cfg.k = 4;
  Partitioning original = CreatePartitioner("LDG")->Run(g, cfg);
  std::stringstream buffer;
  WritePartitioning(original, buffer);
  Partitioning reloaded = ReadPartitioning(g, buffer);
  EXPECT_EQ(reloaded.model, original.model);
  EXPECT_EQ(reloaded.k, original.k);
  EXPECT_EQ(reloaded.vertex_to_partition, original.vertex_to_partition);
  EXPECT_EQ(reloaded.edge_to_partition, original.edge_to_partition);
}

TEST(PartitionIoTest, RoundTripVertexCutAndHybrid) {
  Graph g = MakeDataset("twitter", 8);
  for (const char* algo : {"HDRF", "HG"}) {
    PartitionConfig cfg;
    cfg.k = 8;
    Partitioning original = CreatePartitioner(algo)->Run(g, cfg);
    std::stringstream buffer;
    WritePartitioning(original, buffer);
    Partitioning reloaded = ReadPartitioning(g, buffer);
    EXPECT_EQ(reloaded.model, original.model) << algo;
    EXPECT_EQ(reloaded.edge_to_partition, original.edge_to_partition)
        << algo;
  }
}

// The field-by-field writer loop WritePartitioning replaced: the oracle
// of its byte output.
std::string OracleWrite(const Partitioning& partitioning) {
  std::ostringstream out;
  {
    BlockTextWriter writer(out);
    writer << "sgp-partitioning v1\n";
    writer << "model " << CutModelName(partitioning.model) << " k "
           << partitioning.k << " vertices "
           << partitioning.vertex_to_partition.size() << " edges "
           << partitioning.edge_to_partition.size() << '\n';
    for (size_t v = 0; v < partitioning.vertex_to_partition.size(); ++v) {
      writer << "v " << v << ' ' << partitioning.vertex_to_partition[v]
             << '\n';
    }
    for (size_t e = 0; e < partitioning.edge_to_partition.size(); ++e) {
      writer << "e " << e << ' ' << partitioning.edge_to_partition[e] << '\n';
    }
  }
  return out.str();
}

// Record counts that end on and just past every digit-count boundary of
// the id counter, partition ids from the per-partition tail table, past
// it (k above the table) and out of range (k itself and
// kInvalidPartition), and files longer than one 64 KiB write block.
TEST(PartitionIoTest, WriterMatchesFieldByFieldOracle) {
  std::mt19937_64 rng(3);
  for (PartitionId k : {1u, 10u, 1000u, 100000u}) {
    for (size_t n : {0u, 1u, 9u, 10u, 11u, 99u, 100u, 101u, 999u, 1000u,
                     1001u, 9999u, 10000u, 10001u, 100001u}) {
      Partitioning p;
      p.model = n % 2 == 0 ? CutModel::kEdgeCut : CutModel::kVertexCut;
      p.k = k;
      auto fill = [&](std::vector<PartitionId>& parts, size_t count) {
        parts.resize(count);
        for (PartitionId& part : parts) {
          switch (rng() % 16) {
            case 0:
              part = kInvalidPartition;
              break;
            case 1:
              part = k;
              break;
            default:
              part = static_cast<PartitionId>(rng() % k);
          }
        }
      };
      fill(p.vertex_to_partition, n);
      fill(p.edge_to_partition, n + 7);
      std::ostringstream out;
      WritePartitioning(p, out);
      ASSERT_EQ(out.str(), OracleWrite(p)) << "k=" << k << " n=" << n;
    }
  }
}

TEST(PartitionIoDeathTest, RejectsWrongGraph) {
  Graph g = testing::MakePath(4);
  Graph other = testing::MakePath(6);
  Partitioning p = testing::MakeEdgeCutPartitioning(g, 2, {0, 0, 1, 1});
  std::stringstream buffer;
  WritePartitioning(p, buffer);
  EXPECT_DEATH(ReadPartitioning(other, buffer), "SGP_CHECK");
}

TEST(PartitionIoDeathTest, RejectsGarbage) {
  Graph g = testing::MakePath(4);
  std::istringstream in("not a partitioning\n");
  EXPECT_DEATH(ReadPartitioning(g, in), "SGP_CHECK");
}

TEST(PartitionIoDeathTest, RejectsIncompleteAssignment) {
  Graph g = testing::MakePath(3);
  std::istringstream in(
      "sgp-partitioning v1\n"
      "model edge-cut k 2 vertices 3 edges 2\n"
      "v 0 0\nv 1 1\n"  // vertex 2 and the edges are missing
  );
  EXPECT_DEATH(ReadPartitioning(g, in), "SGP_CHECK");
}

}  // namespace
}  // namespace sgp
