// Differential suite for the block-scanning edge-list reader (graph/io.h).
// The getline + istringstream line parser the scanner replaced lives on
// here as the oracle: every input must give the same edges, skipped-line
// count, error text and error line number through the oracle, through
// EdgeListScanner, through TryReadEdgeList and through EdgeListFileSource.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "common/random.h"
#include "common/telemetry.h"
#include "graph/io.h"
#include "stream/source.h"

namespace sgp {
namespace {

// --- The oracle -----------------------------------------------------------

enum class EdgeLineStatus {
  kEdge,     // an edge was parsed into *edge
  kIgnored,  // blank line or '#'/'%' comment
  kSkipped,  // malformed (recoverable): callers count it and move on
  kError,    // out-of-range vertex id: *error carries the diagnostic
};

// One line of a whitespace-separated edge list ("src dst", extra columns
// ignored), parsed with std::istringstream.
EdgeLineStatus ParseEdgeListLine(const std::string& line,
                                 uint64_t line_number, VertexId id_limit,
                                 Edge* edge, std::string* error) {
  if (line.empty() || line[0] == '#' || line[0] == '%') {
    return EdgeLineStatus::kIgnored;
  }
  std::istringstream ls(line);
  uint64_t src = 0;
  uint64_t dst = 0;
  if (!(ls >> src >> dst)) return EdgeLineStatus::kSkipped;
  const uint64_t limit = id_limit;
  if (src >= limit || dst >= limit) {
    std::ostringstream msg;
    msg << "line " << line_number << ": vertex id " << std::max(src, dst)
        << " out of range (limit " << limit << ")";
    *error = msg.str();
    return EdgeLineStatus::kError;
  }
  edge->src = static_cast<VertexId>(src);
  edge->dst = static_cast<VertexId>(dst);
  return EdgeLineStatus::kEdge;
}

struct ReadOutcome {
  std::vector<Edge> edges;
  uint64_t skipped_lines = 0;
  std::string error;        // empty when the whole input was read
  uint64_t error_line = 0;  // the failing line, when `error` is set
};

ReadOutcome OracleRead(const std::string& text, VertexId limit) {
  ReadOutcome out;
  std::istringstream in(text);
  std::string line;
  uint64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    Edge edge;
    switch (ParseEdgeListLine(line, line_number, limit, &edge, &out.error)) {
      case EdgeLineStatus::kIgnored:
        break;
      case EdgeLineStatus::kSkipped:
        ++out.skipped_lines;
        break;
      case EdgeLineStatus::kError:
        out.error_line = line_number;
        return out;
      case EdgeLineStatus::kEdge:
        out.edges.push_back(edge);
        break;
    }
  }
  return out;
}

ReadOutcome ScannerRead(const std::string& text, VertexId limit) {
  ReadOutcome out;
  std::istringstream in(text);
  EdgeListScanner scanner(in, limit);
  Edge edge;
  while (scanner.Next(&edge)) out.edges.push_back(edge);
  out.skipped_lines = scanner.skipped_lines();
  if (!scanner.ok()) {
    out.error = scanner.error();
    out.error_line = scanner.line_number();
  }
  return out;
}

void ExpectSameOutcome(const ReadOutcome& expected, const ReadOutcome& actual,
                       const std::string& what) {
  EXPECT_EQ(actual.edges, expected.edges) << what;
  EXPECT_EQ(actual.skipped_lines, expected.skipped_lines) << what;
  EXPECT_EQ(actual.error, expected.error) << what;
  EXPECT_EQ(actual.error_line, expected.error_line) << what;
}

// A temp file removed on scope exit.
class TempFile {
 public:
  TempFile(const std::string& name, const std::string& text)
      : path_(::testing::TempDir() + "/" + name) {
    std::ofstream(path_, std::ios::binary) << text;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// What the file source shows after handing out one chunk: the chunk, and
// the skipped lines and id bound as of its last edge.
struct ChunkState {
  std::vector<StreamEdge> edges;
  uint64_t skipped_lines = 0;
  VertexId max_vertex_bound = 0;
};

struct ChunkedOutcome {
  std::vector<ChunkState> chunks;  // the non-empty chunks, in order
  ChunkState end;                  // state at the terminating empty chunk
  std::string error;
};

// The oracle cut into the file source's chunks: self-loops are dropped,
// the others numbered in arrival order, and a chunk ends at its
// `chunk_size`-th edge. A failing line drops the chunk it falls in, but
// the id bound still covers that chunk's edges.
ChunkedOutcome OracleChunks(const std::string& text, VertexId limit,
                            uint64_t chunk_size) {
  ChunkedOutcome out;
  ChunkState cur;
  std::istringstream in(text);
  std::string line;
  uint64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    Edge edge;
    switch (ParseEdgeListLine(line, line_number, limit, &edge, &out.error)) {
      case EdgeLineStatus::kIgnored:
        break;
      case EdgeLineStatus::kSkipped:
        ++cur.skipped_lines;
        break;
      case EdgeLineStatus::kError:
        out.end = cur;
        out.end.edges.clear();
        return out;
      case EdgeLineStatus::kEdge:
        if (edge.src == edge.dst) break;
        cur.edges.push_back(StreamEdge{out.chunks.size() * chunk_size +
                                           cur.edges.size(),
                                       edge.src, edge.dst});
        cur.max_vertex_bound = std::max(
            {cur.max_vertex_bound, edge.src + 1, edge.dst + 1});
        if (cur.edges.size() == chunk_size) {
          out.chunks.push_back(cur);
          cur.edges.clear();
        }
        break;
    }
  }
  if (!cur.edges.empty()) out.chunks.push_back(cur);
  out.end = cur;
  out.end.edges.clear();
  return out;
}

void ExpectSourceState(const EdgeListFileSource& source,
                       const ChunkState& want, const std::string& what) {
  EXPECT_EQ(source.skipped_lines(), want.skipped_lines) << what;
  EXPECT_EQ(source.max_vertex_bound(), want.max_vertex_bound) << what;
}

// Drains `source` chunk by chunk against the oracle: every chunk's ids and
// endpoints, and the accessors after every chunk and at the end.
void ExpectChunksMatchOracle(EdgeListFileSource& source,
                             const ChunkedOutcome& expected,
                             const std::string& what) {
  for (size_t c = 0; c < expected.chunks.size(); ++c) {
    const std::string at = what + " chunk " + std::to_string(c);
    const ChunkState& want = expected.chunks[c];
    const std::span<const StreamEdge> chunk = source.NextChunk();
    ASSERT_EQ(chunk.size(), want.edges.size()) << at;
    for (size_t i = 0; i < chunk.size(); ++i) {
      EXPECT_EQ(chunk[i].id, want.edges[i].id) << at;
      EXPECT_EQ(chunk[i].src, want.edges[i].src) << at;
      EXPECT_EQ(chunk[i].dst, want.edges[i].dst) << at;
    }
    EXPECT_TRUE(source.ok()) << at;
    ExpectSourceState(source, want, at);
  }
  // The end, failed or not, is sticky.
  for (int call = 0; call < 2; ++call) {
    EXPECT_TRUE(source.NextChunk().empty()) << what;
    EXPECT_EQ(source.ok(), expected.error.empty()) << what;
    EXPECT_EQ(source.error(), expected.error) << what;
    ExpectSourceState(source, expected.end, what + " end");
  }
}

// Compares every reader against the oracle on `text`: the scanner over an
// in-memory stream, TryReadEdgeList, and the read-ahead file source chunk
// by chunk at several chunk sizes, before and after a Rewind().
void ExpectAllReadersAgree(const std::string& text,
                           VertexId num_vertices = 0) {
  const VertexId limit = num_vertices != 0 ? num_vertices : kInvalidVertex;
  const ReadOutcome expected = OracleRead(text, limit);
  ExpectSameOutcome(expected, ScannerRead(text, limit), "scanner");

  std::istringstream in(text);
  EdgeListReadResult read = TryReadEdgeList(in, /*directed=*/true,
                                            num_vertices);
  EXPECT_EQ(read.ok, expected.error.empty());
  EXPECT_EQ(read.error, expected.error);
  EXPECT_EQ(read.skipped_lines, expected.skipped_lines);

  TempFile file("edge_list_scanner_input.txt", text);
  for (uint64_t chunk : {1ull, 7ull, 4096ull}) {
    EdgeListFileSource::Options opts;
    opts.chunk_size = chunk;
    opts.num_vertices = num_vertices;
    EdgeListFileSource source(file.path(), opts);
    const ChunkedOutcome chunks = OracleChunks(text, limit, chunk);
    const std::string what = "source chunk=" + std::to_string(chunk);
    ExpectChunksMatchOracle(source, chunks, what);
    source.Rewind();
    ExpectChunksMatchOracle(source, chunks, what + " rewound");
  }
}

// --- Pinned quirks of the istream semantics -------------------------------

struct QuirkCase {
  const char* line;
  EdgeLineStatus status;
};

const QuirkCase kQuirks[] = {
    {"+1 2", EdgeLineStatus::kEdge},
    {" 1 2", EdgeLineStatus::kEdge},
    {"\t1\t2", EdgeLineStatus::kEdge},
    {"1 2\r", EdgeLineStatus::kEdge},
    {"1 2abc", EdgeLineStatus::kEdge},
    {"01 002", EdgeLineStatus::kEdge},
    {"1 2 3", EdgeLineStatus::kEdge},
    {"1\v2", EdgeLineStatus::kEdge},
    {"1+2", EdgeLineStatus::kEdge},
    {"-0 2", EdgeLineStatus::kEdge},
    {"-18446744073709551615 2", EdgeLineStatus::kEdge},  // wraps to 1
    {"-1 2", EdgeLineStatus::kError},                    // wraps to 2^64-1
    {"4294967295 1", EdgeLineStatus::kError},            // == kInvalidVertex
    {"1 18446744073709551615", EdgeLineStatus::kError},
    {"1-2", EdgeLineStatus::kError},
    {"", EdgeLineStatus::kIgnored},
    {"# c", EdgeLineStatus::kIgnored},
    {"% c", EdgeLineStatus::kIgnored},
    {"#1 2", EdgeLineStatus::kIgnored},
    {"\r", EdgeLineStatus::kSkipped},
    {" ", EdgeLineStatus::kSkipped},
    {" # c", EdgeLineStatus::kSkipped},
    {"1", EdgeLineStatus::kSkipped},
    {"1 ", EdgeLineStatus::kSkipped},
    {"1abc 2", EdgeLineStatus::kSkipped},
    {"1.5 2", EdgeLineStatus::kSkipped},
    {"1,2", EdgeLineStatus::kSkipped},
    {"0x10 2", EdgeLineStatus::kSkipped},
    {"99999999999999999999 1", EdgeLineStatus::kSkipped},
    {"1 99999999999999999999", EdgeLineStatus::kSkipped},
    {"+ 1 2", EdgeLineStatus::kSkipped},
    {"- 1 2", EdgeLineStatus::kSkipped},
    {"+-1 2", EdgeLineStatus::kSkipped},
};

TEST(EdgeListScannerTest, QuirksMatchTheOracle) {
  for (const QuirkCase& q : kQuirks) {
    Edge edge;
    std::string error;
    EXPECT_EQ(ParseEdgeListLine(q.line, 1, kInvalidVertex, &edge, &error),
              q.status)
        << "oracle on '" << q.line << "'";
    const std::string line = q.line;
    ExpectAllReadersAgree(line);
    ExpectAllReadersAgree(line + "\n");
    ExpectAllReadersAgree("0 1\n" + line + "\n2 3\n");
  }
}

TEST(EdgeListScannerTest, OutOfRangeDiagnosticNamesLineAndLimit) {
  const std::string text = "# header\n0 1\n\n0 99\n1 2\n";
  const ReadOutcome r = ScannerRead(text, 10);
  EXPECT_EQ(r.error, "line 4: vertex id 99 out of range (limit 10)");
  EXPECT_EQ(r.error_line, 4u);
  ASSERT_EQ(r.edges.size(), 1u);
  ExpectAllReadersAgree(text, 10);
}

// --- Seeded random lines --------------------------------------------------

// Fragments that hit every branch of the id grammar: digits with leading
// zeros, the 32- and 64-bit edges, overflow, signs, every whitespace byte
// and the junk characters the old parser stopped at.
const char* const kFragments[] = {
    "0",  "1",  "7",  "42", "00", "0007", "65535", "4294967294",
    "4294967295", "18446744073709551615", "18446744073709551616",
    "99999999999999999999", "-", "+", " ", "  ", "\t", "\r", "\v", "\f",
    "#",  "%",  ".",  "x",  "a", ",", "0x1", "\0"};

std::string RandomLine(Rng& rng) {
  std::string line;
  const uint64_t pieces = rng.UniformInt(7);
  for (uint64_t i = 0; i < pieces; ++i) {
    const char* fragment =
        kFragments[rng.UniformInt(std::size(kFragments))];
    line += *fragment == '\0' ? std::string(1, '\0') : std::string(fragment);
  }
  return line;
}

// A well-formed edge line with random padding, extra columns and line
// ending; ids stay below `limit`.
std::string RandomEdgeLine(Rng& rng, uint64_t limit) {
  static const char* const kPad[] = {"", " ", "\t", "  \t", " \v"};
  std::string line = kPad[rng.UniformInt(std::size(kPad))];
  line += std::to_string(rng.UniformInt(limit));
  line += kPad[1 + rng.UniformInt(std::size(kPad) - 1)];
  line += std::to_string(rng.UniformInt(limit));
  if (rng.Bernoulli(0.2)) {
    line += ' ';
    line += std::to_string(rng.UniformInt(100));
  }
  if (rng.Bernoulli(0.1)) line += " weight=0.5";
  if (rng.Bernoulli(0.1)) line += "\r";
  return line;
}

TEST(EdgeListScannerTest, SeededRandomLinesMatchTheOracle) {
  Rng rng(20190630);
  // Short documents of pure junk: most stop at an error within a few
  // lines, so many of them cover the error path at varied line numbers.
  for (int doc = 0; doc < 300; ++doc) {
    std::string text;
    const uint64_t lines = 1 + rng.UniformInt(12);
    for (uint64_t i = 0; i < lines; ++i) text += RandomLine(rng) + "\n";
    if (rng.Bernoulli(0.5)) text.pop_back();
    const ReadOutcome expected = OracleRead(text, kInvalidVertex);
    ExpectSameOutcome(expected, ScannerRead(text, kInvalidVertex),
                      "doc " + std::to_string(doc));
    ExpectSameOutcome(OracleRead(text, 1000), ScannerRead(text, 1000),
                      "limited doc " + std::to_string(doc));
  }
  // One long document mixing edges, junk that cannot fail the read, and
  // comments, through every reader.
  std::string text;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t kind = rng.UniformInt(10);
    if (kind < 7) {
      text += RandomEdgeLine(rng, 1000);
    } else if (kind < 9) {
      std::string junk = RandomLine(rng);
      // Drop what could make a valid line out of range.
      if (OracleRead(junk, 1000).error.empty()) text += junk;
    } else {
      text += "# comment " + std::to_string(i);
    }
    text += "\n";
  }
  ExpectAllReadersAgree(text, 1000);
  ExpectAllReadersAgree(text);
}

// --- Block boundaries -----------------------------------------------------

// Random-length lines over more than three blocks, so hundreds of lines
// straddle a block boundary; then the same text with an out-of-range line
// deep inside the third block.
TEST(EdgeListScannerTest, LinesCrossingBlockBoundaries) {
  Rng rng(7);
  std::string text;
  while (text.size() < 3 * EdgeListScanner::kBlockSize + 12345) {
    std::string line = RandomEdgeLine(rng, 1 << 20);
    if (rng.Bernoulli(0.05)) line = "# " + std::string(rng.UniformInt(300), 'c');
    if (rng.Bernoulli(0.05)) line.append(rng.UniformInt(2000), ' ');
    if (rng.Bernoulli(0.02)) line = "junk " + line;
    text += line + (rng.Bernoulli(0.1) ? "\r\n" : "\n");
  }
  ExpectAllReadersAgree(text);
  ExpectAllReadersAgree(text, 1 << 20);

  const size_t at = text.find('\n', 2 * EdgeListScanner::kBlockSize +
                                        EdgeListScanner::kBlockSize / 2);
  std::string failing = text;
  failing.insert(at + 1, "3 4294967295\n");
  ExpectAllReadersAgree(failing);
}

// Inputs whose size sits right at one block, with and without a trailing
// newline: the last line ends exactly at the end of a full read, or the
// final read comes back empty.
TEST(EdgeListScannerTest, InputsEndingAtTheBlockSize) {
  const size_t block = EdgeListScanner::kBlockSize;
  for (size_t size : {block - 2, block - 1, block, block + 1, block + 2}) {
    for (bool trailing_newline : {true, false}) {
      std::string text;
      uint64_t id = 0;
      while (text.size() + 32 < size) {
        text += std::to_string(id) + " " + std::to_string(id + 1) + "\n";
        ++id;
      }
      std::string last = "5 6";
      const size_t body = size - text.size() - (trailing_newline ? 1 : 0);
      last.append(body - last.size(), ' ');
      text += last;
      if (trailing_newline) text += "\n";
      ASSERT_EQ(text.size(), size);
      ExpectAllReadersAgree(text);
    }
  }
}

TEST(EdgeListScannerTest, LineLongerThanOneBlock) {
  const size_t block = EdgeListScanner::kBlockSize;
  std::string columns;
  while (columns.size() < block + block / 2) columns += " 9";
  // An edge with a huge tail of extra columns, a huge comment, a huge
  // junk line, and ids behind a block and a half of whitespace.
  const std::string text = "0 1\n5 6" + columns + "\n# " +
                           std::string(block, 'c') + "\n" +
                           std::string(block + 3, 'x') + "\n" +
                           std::string(block + block / 2, ' ') + "3 4\n7 8";
  ExpectAllReadersAgree(text);
  // A single line of more than two blocks and no newline at all.
  ExpectAllReadersAgree("1 2" + std::string(2 * block + 5, ' '));
}

// --- Line endings ---------------------------------------------------------

TEST(EdgeListScannerTest, FileWithoutTrailingNewline) {
  ExpectAllReadersAgree("0 1\n2 3");
  ExpectAllReadersAgree("0 1\n2 3 extra");
  ExpectAllReadersAgree("2 3");
}

TEST(EdgeListScannerTest, FileEndingInPartialLine) {
  ExpectAllReadersAgree("0 1\n2 ");
  ExpectAllReadersAgree("0 1\n2");
  ExpectAllReadersAgree("0 1\n-");
  ExpectAllReadersAgree("0 1\n# trailing comment");
  ExpectAllReadersAgree("0 1\n4294967295");
  ExpectAllReadersAgree("0 1\n1 4294967295");
}

TEST(EdgeListScannerTest, CrlfFiles) {
  ExpectAllReadersAgree("0 1\r\n2 3\r\n\r\n# c\r\n4 5\r\n");
  ExpectAllReadersAgree("0 1\r\n2 3\r\n4 5");
  ExpectAllReadersAgree("0 1\r\n\r\n\r\n2 2\r\n");
  ExpectAllReadersAgree("0 1\r\n9 3\r\n", 5);
}

TEST(EdgeListScannerTest, OnlyComments) {
  const std::string text = "# a\n% b\n#c\n%\n";
  ExpectAllReadersAgree(text);
  ExpectAllReadersAgree("# no newline");
  ExpectAllReadersAgree("");
  EXPECT_TRUE(ScannerRead(text, kInvalidVertex).edges.empty());
  EXPECT_EQ(ScannerRead(text, kInvalidVertex).skipped_lines, 0u);
}

// --- Read-ahead lifecycle -------------------------------------------------

// A document of `edges` edge lines with a malformed line after every
// tenth, so skipped-line counts move between chunks.
std::string NumberedEdges(uint64_t edges) {
  std::string text;
  for (uint64_t i = 0; i < edges; ++i) {
    text += std::to_string(i) + " " + std::to_string(i + 1) + "\n";
    if (i % 10 == 9) text += "junk\n";
  }
  return text;
}

// Rewind after a partial pass, with the reader blocked on a full ring or
// still parsing: the next pass starts over at edge 0 with fresh counts.
TEST(EdgeListFileSourceTest, RewindAfterPartialPass) {
  const std::string text = NumberedEdges(5000);
  TempFile file("read_ahead_rewind.txt", text);
  for (uint64_t chunk : {1ull, 7ull, 4096ull}) {
    EdgeListFileSource::Options opts;
    opts.chunk_size = chunk;
    EdgeListFileSource source(file.path(), opts);
    const ChunkedOutcome expected = OracleChunks(text, kInvalidVertex, chunk);
    for (size_t taken : {size_t{1}, size_t{2}, size_t{0}}) {
      source.Rewind();
      for (size_t c = 0; c < taken; ++c) {
        ASSERT_FALSE(source.NextChunk().empty());
      }
      source.Rewind();
      EXPECT_TRUE(source.ok());
      EXPECT_EQ(source.skipped_lines(), 0u);
      EXPECT_EQ(source.max_vertex_bound(), 0u);
      ExpectChunksMatchOracle(source, expected,
                              "chunk=" + std::to_string(chunk) + " after " +
                                  std::to_string(taken));
    }
  }
}

// Destroying a source mid-stream stops and joins its reader, whether the
// reader is parked on a full ring, still parsing, or never started.
TEST(EdgeListFileSourceTest, DestroyedMidStreamDoesNotHang) {
  const std::string text = NumberedEdges(20000);
  TempFile file("read_ahead_destroy.txt", text);
  for (uint64_t chunk : {1ull, 7ull, 4096ull}) {
    EdgeListFileSource::Options opts;
    opts.chunk_size = chunk;
    for (int taken : {0, 1, 2}) {
      EdgeListFileSource source(file.path(), opts);
      for (int c = 0; c < taken; ++c) {
        ASSERT_FALSE(source.NextChunk().empty());
      }
    }
  }
}

// An out-of-range id fails the stream at the chunk holding its line, with
// the scanner's message, after the whole chunks before it arrived intact.
TEST(EdgeListFileSourceTest, OutOfRangeIdFailsAtItsChunk) {
  std::string text = NumberedEdges(20);
  text += "3 100\n4 5\n";
  TempFile file("read_ahead_range.txt", text);
  EdgeListFileSource::Options opts;
  opts.chunk_size = 7;
  opts.num_vertices = 50;
  EdgeListFileSource source(file.path(), opts);
  for (int c = 0; c < 2; ++c) {
    ASSERT_EQ(source.NextChunk().size(), 7u);
    EXPECT_TRUE(source.ok());
  }
  EXPECT_TRUE(source.NextChunk().empty());
  EXPECT_FALSE(source.ok());
  EXPECT_EQ(source.error(), "line 23: vertex id 100 out of range (limit 50)");
  EXPECT_EQ(source.skipped_lines(), 2u);
  EXPECT_EQ(source.max_vertex_bound(), 21u);
  ExpectAllReadersAgree(text, 50);
}

// The counters of a pass land in the registry current on the consumer's
// thread: the deterministic ones are counted at hand-out, and the reader
// thread installs that registry for its parse time.
TEST(EdgeListFileSourceTest, CountersLandInTheCallersRegistry) {
  TempFile file("read_ahead_metrics.txt", NumberedEdges(100));
  Counter* global_refill = MetricsRegistry::Global().GetCounter(
      "stream.refill_nanos", MetricOptions::WallClock());
  const uint64_t global_before = global_refill->value();
  MetricsRegistry registry;
  {
    ScopedMetricsRegistry scoped(&registry);
    EdgeListFileSource::Options opts;
    opts.chunk_size = 7;
    EdgeListFileSource source(file.path(), opts);
    ForEachStreamItem(source, [](const StreamEdge&) {});
  }
  EXPECT_EQ(registry.GetCounter("stream.chunks")->value(), 15u);
  EXPECT_EQ(registry.GetCounter("stream.disk.edges")->value(), 100u);
  EXPECT_EQ(registry.GetCounter("stream.disk.skipped_lines")->value(), 10u);
  EXPECT_GT(registry
                .GetCounter("stream.refill_nanos", MetricOptions::WallClock())
                ->value(),
            0u);
  EXPECT_EQ(global_refill->value(), global_before);
}

}  // namespace
}  // namespace sgp
