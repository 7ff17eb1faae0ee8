// Equivalence suite for the chunked ingest layer (stream/source.h):
// chunk boundaries must never change any partitioner's output, and the
// disk edge-list source must reproduce the in-memory stream-ingest
// results edge for edge.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "graph/datasets.h"
#include "graph/io.h"
#include "partition/partitioner.h"
#include "stream/source.h"

namespace sgp {
namespace {

// A temp file removed on scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

class SourceEquivalenceTest : public ::testing::TestWithParam<std::string> {};

// Every partitioner, chunked at awkward sizes (1 element, a prime, a page)
// must be byte-identical to the single-chunk fast path.
TEST_P(SourceEquivalenceTest, ChunkSizeNeverChangesResult) {
  const std::string& algo = GetParam();
  Graph g = MakeDataset("ldbc", 9);
  auto partitioner = CreatePartitioner(algo);
  PartitionConfig cfg;
  cfg.k = 8;
  cfg.seed = 1;
  Partitioning baseline = partitioner->Run(g, cfg);
  for (uint64_t chunk : {1ull, 7ull, 4096ull}) {
    PartitionConfig chunked = cfg;
    chunked.ingest_chunk_size = chunk;
    Partitioning p = partitioner->Run(g, chunked);
    EXPECT_EQ(p.vertex_to_partition, baseline.vertex_to_partition)
        << algo << " chunk=" << chunk;
    EXPECT_EQ(p.edge_to_partition, baseline.edge_to_partition)
        << algo << " chunk=" << chunk;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPartitioners, SourceEquivalenceTest,
                         ::testing::ValuesIn(PartitionerNames()),
                         [](const auto& info) { return info.param; });

// Graph-free streaming codes checked against their materialized twins.
const char* const kIngestCodes[] = {"VCR", "DBH", "HDRF"};

// Stream ingest over an in-memory source reproduces the materialized
// partitioner exactly (assignments and masters) in every stream order:
// each code runs one stream body, which records placements by
// StreamEdge::id, and Run replays the graph through it in config.order.
// Undirected datasets: on directed graphs stream occurrence counts diverge
// from the de-duplicated Degree() wherever reciprocal edge pairs exist,
// and the documented DBH equivalence only covers duplicate-free
// undirected input. ldbc keeps HDRF's BFS and DFS cells meaningful: on
// usaroad those orders put every edge in one partition, where any layout
// of edge_to_partition compares equal.
TEST(StreamIngestTest, MatchesMaterializedPartitioner) {
  for (const char* dataset : {"usaroad", "ldbc"}) {
    const Graph g = MakeDataset(dataset, 10);
    for (StreamOrder order : {StreamOrder::kNatural, StreamOrder::kRandom,
                              StreamOrder::kBfs, StreamOrder::kDfs}) {
      for (const char* code : {"VCR", "DBH", "HDRF", "2PS", "HEP"}) {
        PartitionConfig cfg;
        cfg.k = 4;
        cfg.seed = 42;
        cfg.order = order;
        const std::string cell = std::string(dataset) + " " + code + " " +
                                 std::string(StreamOrderName(order));
        InMemoryEdgeSource source(g, order, cfg.seed);
        StreamRunResult r = CreatePartitioner(code)->RunOnSource(source, cfg);
        ASSERT_TRUE(r.ok) << cell << ": " << r.error;
        EXPECT_EQ(r.num_edges, g.num_edges()) << cell;
        EXPECT_EQ(r.num_vertices, g.num_vertices()) << cell;
        Partitioning twin = CreatePartitioner(code)->Run(g, cfg);
        EXPECT_EQ(r.partitioning.edge_to_partition, twin.edge_to_partition)
            << cell;
        EXPECT_EQ(r.partitioning.vertex_to_partition,
                  twin.vertex_to_partition)
            << cell;
        EXPECT_GT(r.partitioning.state_bytes, 0u) << cell;
      }
    }
  }
}

// The bounded-memory disk source yields the same edge sequence as the
// in-memory natural-order source, so every ingest algorithm must agree —
// at any chunk size.
TEST(StreamIngestTest, DiskSourceMatchesInMemory) {
  Graph g = MakeDataset("twitter", 10);
  TempFile file("source_equivalence_edges.txt");
  WriteEdgeListFile(g, file.path());
  for (const char* code : kIngestCodes) {
    PartitionConfig cfg;
    cfg.k = 4;
    cfg.seed = 42;
    InMemoryEdgeSource mem(g, StreamOrder::kNatural, cfg.seed);
    StreamRunResult expected = CreatePartitioner(code)->RunOnSource(mem, cfg);
    ASSERT_TRUE(expected.ok);
    for (uint64_t chunk : {1ull, 7ull, 4096ull}) {
      EdgeListFileSource::Options opts;
      opts.chunk_size = chunk;
      EdgeListFileSource disk(file.path(), opts);
      ASSERT_TRUE(disk.ok()) << disk.error();
      StreamRunResult r = CreatePartitioner(code)->RunOnSource(disk, cfg);
      ASSERT_TRUE(r.ok) << code << ": " << r.error;
      EXPECT_EQ(r.num_edges, expected.num_edges) << code;
      EXPECT_EQ(r.num_vertices, expected.num_vertices) << code;
      EXPECT_EQ(r.partitioning.edge_to_partition,
                expected.partitioning.edge_to_partition)
          << code << " chunk=" << chunk;
      EXPECT_EQ(r.partitioning.vertex_to_partition,
                expected.partitioning.vertex_to_partition)
          << code << " chunk=" << chunk;
    }
  }
}

// The depth-first road file raises its largest id over and over while it
// streams, so the file path grows every per-vertex table (degree table,
// replica rows, master tallies) from empty, while the in-memory twin
// presizes them to n. HDRF at k = 4, 65 and 257 covers the 1-, 2- and
// 8-word replica-row strides; the other streaming codes run at k = 4.
TEST(StreamIngestTest, GrowingRoadFileMatchesInMemoryTwin) {
  Graph g = MakeDataset("usaroad", 12);
  TempFile file("source_equivalence_road.txt");
  WriteEdgeListFile(g, file.path());
  const struct {
    const char* algo;
    PartitionId k;
  } cases[] = {{"HDRF", 4}, {"HDRF", 65}, {"HDRF", 257}, {"VCR", 4},
               {"DBH", 4},  {"2PS", 4},   {"HEP", 4}};
  for (const auto& c : cases) {
    auto partitioner = CreatePartitioner(c.algo);
    PartitionConfig cfg;
    cfg.k = c.k;
    cfg.seed = 7;
    cfg.order = StreamOrder::kNatural;  // the file's order
    const Partitioning twin = partitioner->Run(g, cfg);
    for (uint64_t chunk : {1ull, 7ull, 4096ull}) {
      EdgeListFileSource::Options opts;
      opts.chunk_size = chunk;
      EdgeListFileSource disk(file.path(), opts);
      ASSERT_TRUE(disk.ok()) << disk.error();
      StreamRunResult r = partitioner->RunOnSource(disk, cfg);
      ASSERT_TRUE(r.ok) << c.algo << ": " << r.error;
      EXPECT_EQ(r.num_vertices, g.num_vertices()) << c.algo;
      EXPECT_EQ(r.partitioning.edge_to_partition, twin.edge_to_partition)
          << c.algo << " k=" << c.k << " chunk=" << chunk;
      EXPECT_EQ(r.partitioning.vertex_to_partition, twin.vertex_to_partition)
          << c.algo << " k=" << c.k << " chunk=" << chunk;
    }
  }
}

TEST(StreamIngestTest, DiskSourceSkipsMalformedAndDropsSelfLoops) {
  TempFile file("source_equivalence_messy.txt");
  {
    std::ofstream out(file.path());
    out << "# comment\n"
        << "0 1\n"
        << "not numbers\n"
        << "2 2\n"   // self-loop: dropped silently
        << "1 2\n"
        << "\n"
        << "3\n";    // missing endpoint: skipped
  }
  EdgeListFileSource source(file.path());
  std::vector<StreamEdge> edges;
  ForEachStreamItem(source, [&](const StreamEdge& e) { edges.push_back(e); });
  ASSERT_TRUE(source.ok()) << source.error();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].src, 0u);
  EXPECT_EQ(edges[0].dst, 1u);
  EXPECT_EQ(edges[1].src, 1u);
  EXPECT_EQ(edges[1].dst, 2u);
  EXPECT_EQ(edges[0].id, 0u);
  EXPECT_EQ(edges[1].id, 1u);
  EXPECT_EQ(source.skipped_lines(), 2u);
  EXPECT_EQ(source.max_vertex_bound(), 3u);
}

TEST(StreamIngestTest, MissingFileReportsError) {
  EdgeListFileSource source("/nonexistent/sgp_no_such_file.txt");
  EXPECT_FALSE(source.ok());
  EXPECT_FALSE(source.error().empty());
  PartitionConfig cfg;
  cfg.k = 4;
  StreamRunResult r = CreatePartitioner("VCR")->RunOnSource(source, cfg);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

// --- Rewind contract (multi-pass partitioners over seekable sources) ---

// A second pass over a rewound disk source must be bit-identical to the
// in-memory replay: the clustering pass of 2PS, the degree pre-pass of
// HEP and DBH all rewind between passes, and neither the source type nor
// the chunk size may leak into the result.
TEST(RewindTest, RewoundDiskPassMatchesInMemory) {
  Graph g = MakeDataset("twitter", 10);
  TempFile file("rewind_equivalence_edges.txt");
  WriteEdgeListFile(g, file.path());
  for (const char* algo : {"2PS", "HEP", "DBH"}) {
    auto partitioner = CreatePartitioner(algo);
    PartitionConfig cfg;
    cfg.k = 8;
    cfg.seed = 42;
    cfg.order = StreamOrder::kNatural;
    InMemoryEdgeSource mem(g, StreamOrder::kNatural, cfg.seed);
    StreamRunResult expected = partitioner->RunOnSource(mem, cfg);
    ASSERT_TRUE(expected.ok) << algo << ": " << expected.error;
    for (uint64_t chunk : {1ull, 7ull, 4096ull}) {
      EdgeListFileSource::Options opts;
      opts.chunk_size = chunk;
      EdgeListFileSource disk(file.path(), opts);
      ASSERT_TRUE(disk.ok()) << disk.error();
      StreamRunResult r = partitioner->RunOnSource(disk, cfg);
      ASSERT_TRUE(r.ok) << algo << ": " << r.error;
      EXPECT_EQ(r.num_edges, expected.num_edges) << algo;
      EXPECT_EQ(r.num_vertices, expected.num_vertices) << algo;
      EXPECT_EQ(r.partitioning.edge_to_partition,
                expected.partitioning.edge_to_partition)
          << algo << " chunk=" << chunk;
      EXPECT_EQ(r.partitioning.vertex_to_partition,
                expected.partitioning.vertex_to_partition)
          << algo << " chunk=" << chunk;
    }
  }
}

// Multi-pass codes probe SupportsRewind() and fail as a regular
// StreamRunResult error on a pipe-like source — never an abort, never a
// silent wrong answer.
TEST(RewindTest, MultiPassCodesRejectSinglePassSource) {
  Graph g = MakeDataset("ldbc", 9);
  PartitionConfig cfg;
  cfg.k = 4;
  cfg.seed = 1;
  for (const char* algo : {"2PS", "HEP", "DBH"}) {
    InMemoryEdgeSource mem(g, StreamOrder::kNatural, cfg.seed);
    SinglePassEdgeSource pipe(mem);
    StreamRunResult r = CreatePartitioner(algo)->RunOnSource(pipe, cfg);
    EXPECT_FALSE(r.ok) << algo;
    EXPECT_FALSE(r.error.empty()) << algo;
  }
  // Single-pass codes are unaffected by the wrapper.
  for (const char* algo : {"VCR", "HDRF"}) {
    InMemoryEdgeSource baseline_src(g, StreamOrder::kNatural, cfg.seed);
    StreamRunResult baseline =
        CreatePartitioner(algo)->RunOnSource(baseline_src, cfg);
    ASSERT_TRUE(baseline.ok) << algo;
    InMemoryEdgeSource mem(g, StreamOrder::kNatural, cfg.seed);
    SinglePassEdgeSource pipe(mem);
    StreamRunResult r = CreatePartitioner(algo)->RunOnSource(pipe, cfg);
    ASSERT_TRUE(r.ok) << algo << ": " << r.error;
    EXPECT_EQ(r.partitioning.edge_to_partition,
              baseline.partitioning.edge_to_partition)
        << algo;
  }
}

// A failed Rewind() on the wrapper is sticky: subsequent chunks are empty
// and the error survives.
TEST(RewindTest, SinglePassSourceFailsSticky) {
  Graph g = MakeDataset("ldbc", 8);
  InMemoryEdgeSource mem(g, StreamOrder::kNatural, 1);
  SinglePassEdgeSource pipe(mem);
  EXPECT_FALSE(pipe.SupportsRewind());
  EXPECT_TRUE(pipe.ok());
  (void)pipe.NextChunk();
  pipe.Rewind();
  EXPECT_FALSE(pipe.ok());
  EXPECT_FALSE(pipe.error().empty());
  EXPECT_TRUE(pipe.NextChunk().empty());
}

// The two-phase family is deterministic: identical (seed, order) config
// reproduces the identical partitioning, run to run.
TEST(RewindTest, TwoPhaseFamilyDeterministic) {
  Graph g = MakeDataset("usaroad", 10);
  for (const char* algo : {"2PS", "HEP", "NE"}) {
    auto partitioner = CreatePartitioner(algo);
    for (uint64_t seed : {1ull, 99ull}) {
      for (StreamOrder order : {StreamOrder::kNatural, StreamOrder::kRandom}) {
        PartitionConfig cfg;
        cfg.k = 8;
        cfg.seed = seed;
        cfg.order = order;
        Partitioning a = partitioner->Run(g, cfg);
        Partitioning b = partitioner->Run(g, cfg);
        EXPECT_EQ(a.edge_to_partition, b.edge_to_partition)
            << algo << " seed=" << seed;
        EXPECT_EQ(a.vertex_to_partition, b.vertex_to_partition)
            << algo << " seed=" << seed;
      }
    }
  }
}

TEST(StreamIngestTest, OutOfRangeIdFailsStream) {
  TempFile file("source_equivalence_oob.txt");
  {
    std::ofstream out(file.path());
    out << "0 1\n"
        << "5 6\n";  // beyond the configured id space
  }
  EdgeListFileSource::Options opts;
  opts.num_vertices = 4;
  EdgeListFileSource source(file.path(), opts);
  PartitionConfig cfg;
  cfg.k = 2;
  StreamRunResult r = CreatePartitioner("VCR")->RunOnSource(source, cfg);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

}  // namespace
}  // namespace sgp
