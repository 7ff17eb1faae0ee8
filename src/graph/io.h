#ifndef SGP_GRAPH_IO_H_
#define SGP_GRAPH_IO_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "graph/graph.h"

namespace sgp {

/// Outcome of a fault-tolerant edge-list read. Malformed lines (no two
/// integers parse) are skipped and counted; out-of-range vertex ids and
/// unopenable files are hard errors with a line-level diagnostic in
/// `error`. `graph` is meaningful only when `ok`.
struct EdgeListReadResult {
  bool ok = false;
  std::string error;
  uint64_t skipped_lines = 0;
  Graph graph;
};

/// Block-scanning edge-list reader: the single parser behind both the
/// materializing TryReadEdgeList and the bounded-memory EdgeListFileSource.
/// It reads the input in kBlockSize blocks through std::istream::read and
/// parses the whole lines of a block in place with std::from_chars;
/// memchr finds a line's end only past extra columns or junk. A partial
/// last line is carried over to the next block; a line longer than the
/// buffer grows it. Per line ("src dst", extra columns ignored):
///   - empty lines and lines starting with '#' or '%' are ignored;
///   - a line where two ids do not parse is skipped and counted;
///   - an id >= `id_limit` fails the scanner with a line-level diagnostic.
/// An id is what `std::istream >> uint64_t` reads in the classic locale:
/// leading whitespace, an optional sign, decimal digits up to the first
/// other character; overflow fails and '-' negates modulo 2^64.
class EdgeListScanner {
 public:
  /// Bytes per block read, and the initial buffer size.
  static constexpr size_t kBlockSize = size_t{1} << 20;

  /// Scans `in` from its current position. `id_limit` is the exclusive
  /// vertex-id bound (kInvalidVertex when the caller grows the id space
  /// from the data).
  EdgeListScanner(std::istream& in, VertexId id_limit);
  EdgeListScanner(const EdgeListScanner&) = delete;
  EdgeListScanner& operator=(const EdgeListScanner&) = delete;

  /// Parses the next edge line into *edge. False at end of input, or on an
  /// out-of-range id, which also sets ok() to false.
  bool Next(Edge* edge);

  /// Drops buffered input, counters and the error for a new pass. The
  /// caller repositions the stream first.
  void Reset();

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  /// Malformed lines skipped since construction or the last Reset().
  uint64_t skipped_lines() const { return skipped_lines_; }

  /// Lines read so far, comments and blank lines included; the failing
  /// line's number once !ok().
  uint64_t line_number() const { return line_number_; }

 private:
  // Reads the next block behind the carried partial line; false at end of
  // input. Afterwards [pos_, lines_end_) holds at least one whole line.
  bool Refill();

  std::istream& in_;
  uint64_t id_limit_;
  std::unique_ptr<char[]> buffer_;
  size_t capacity_ = kBlockSize;
  size_t pos_ = 0;        // first unscanned byte
  size_t lines_end_ = 0;  // one past the last buffered newline
  size_t end_ = 0;        // one past the last buffered byte
  bool eof_ = false;
  uint64_t line_number_ = 0;
  uint64_t skipped_lines_ = 0;
  std::string error_;
};

/// Reads a whitespace-separated edge list ("src dst" per line; lines
/// starting with '#' or '%' are comments, extra columns are ignored). The
/// vertex count is max id + 1 unless `num_vertices` is nonzero, in which
/// case ids >= num_vertices are rejected. Never aborts.
EdgeListReadResult TryReadEdgeList(std::istream& in, bool directed,
                                   VertexId num_vertices = 0);

/// Reads an edge list from a file. An unopenable file yields ok = false.
EdgeListReadResult TryReadEdgeListFile(const std::string& path, bool directed,
                                       VertexId num_vertices = 0);

/// Reads a whitespace-separated edge list; throws std::runtime_error with
/// the TryReadEdgeList diagnostic on invalid input.
Graph ReadEdgeList(std::istream& in, bool directed,
                   VertexId num_vertices = 0);

/// Reads an edge list from a file. Throws std::runtime_error if the file
/// cannot be opened or contains out-of-range vertex ids.
Graph ReadEdgeListFile(const std::string& path, bool directed,
                       VertexId num_vertices = 0);

/// Writes the canonical edge list, one "src dst" pair per line.
void WriteEdgeList(const Graph& graph, std::ostream& out);

/// Writes the canonical edge list to a file.
void WriteEdgeListFile(const Graph& graph, const std::string& path);

}  // namespace sgp

#endif  // SGP_GRAPH_IO_H_
