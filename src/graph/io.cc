#include "graph/io.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <stdexcept>
#include <vector>

#include "common/check.h"
#include "common/text_writer.h"

namespace sgp {

namespace {

// Whitespace as the classic locale's ctype sees it, minus the '\n' that
// ends a line.
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r';
}

// Reads one id the way `std::istream >> uint64_t` does: skip whitespace,
// take an optional sign, then at least one decimal digit. Overflow fails,
// and '-' negates modulo 2^64 ("-1" is 2^64 - 1). Returns the first byte
// after the digits, or nullptr when no id parses.
const char* ParseId(const char* p, const char* end, uint64_t* value) {
  while (p != end && IsSpace(*p)) ++p;
  const bool negative = p != end && *p == '-';
  if (p != end && (*p == '-' || *p == '+')) ++p;
  const auto [next, ec] = std::from_chars(p, end, *value);
  if (ec != std::errc()) return nullptr;
  if (negative) *value = 0 - *value;
  return next;
}

}  // namespace

EdgeListScanner::EdgeListScanner(std::istream& in, VertexId id_limit)
    : in_(in),
      id_limit_(id_limit),
      buffer_(std::make_unique_for_overwrite<char[]>(kBlockSize)) {}

void EdgeListScanner::Reset() {
  pos_ = 0;
  lines_end_ = 0;
  end_ = 0;
  eof_ = false;
  line_number_ = 0;
  skipped_lines_ = 0;
  error_.clear();
}

bool EdgeListScanner::Refill() {
  for (;;) {
    // Carry the partial last line to the front; a line that fills the
    // whole buffer doubles it.
    const size_t carry = end_ - pos_;
    if (carry == capacity_) {
      auto grown = std::make_unique_for_overwrite<char[]>(capacity_ * 2);
      std::memcpy(grown.get(), buffer_.get() + pos_, carry);
      buffer_ = std::move(grown);
      capacity_ *= 2;
    } else if (pos_ > 0) {
      std::memmove(buffer_.get(), buffer_.get() + pos_, carry);
    }
    pos_ = 0;
    lines_end_ = 0;
    end_ = carry;
    if (!eof_) {
      const size_t want = capacity_ - carry;
      in_.read(buffer_.get() + carry, static_cast<std::streamsize>(want));
      const auto got = static_cast<size_t>(in_.gcount());
      end_ += got;
      eof_ = got < want;
    }
    char* const data = buffer_.get();
    if (eof_) {
      // The last line may lack its newline; a sentinel supplies it. A
      // short read leaves room for it.
      if (end_ == 0) return false;
      if (data[end_ - 1] != '\n') data[end_++] = '\n';
      lines_end_ = end_;
      return true;
    }
    size_t lines_end = end_;
    while (lines_end > carry && data[lines_end - 1] != '\n') --lines_end;
    if (lines_end > carry) {
      lines_end_ = lines_end;
      return true;
    }
    // No newline in the new bytes yet: read on.
  }
}

bool EdgeListScanner::Next(Edge* edge) {
  if (!ok()) return false;
  for (;;) {
    if (pos_ == lines_end_ && !Refill()) return false;
    // [pos_, lines_end_) holds whole lines, each ending in '\n'. Neither
    // the whitespace skip nor a digit run crosses a newline, so the ids
    // parse against lines_end_ exactly as against the line's own end.
    const char* const line = buffer_.get() + pos_;
    const char* const bound = buffer_.get() + lines_end_;
    const char* line_end = line;
    ++line_number_;
    uint64_t src = 0;
    uint64_t dst = 0;
    const char* p = nullptr;
    if (*line != '\n' && *line != '#' && *line != '%') {
      p = ParseId(line, bound, &src);
      if (p != nullptr) p = ParseId(p, bound, &dst);
      if (p == nullptr) {
        // Truncated or garbage line: recoverable, the caller skips it but
        // keeps a count so a clean read can be told from a degraded one.
        ++skipped_lines_;
      } else {
        line_end = p;  // extra columns follow, if any
      }
    }
    if (*line_end != '\n') {
      line_end = static_cast<const char*>(
          std::memchr(line_end, '\n', bound - line_end));
    }
    pos_ = line_end + 1 - buffer_.get();
    if (p == nullptr) continue;
    if (src >= id_limit_ || dst >= id_limit_) {
      error_ = "line " + std::to_string(line_number_) + ": vertex id " +
               std::to_string(std::max(src, dst)) + " out of range (limit " +
               std::to_string(id_limit_) + ")";
      return false;
    }
    edge->src = static_cast<VertexId>(src);
    edge->dst = static_cast<VertexId>(dst);
    return true;
  }
}

EdgeListReadResult TryReadEdgeList(std::istream& in, bool directed,
                                   VertexId num_vertices) {
  EdgeListReadResult result;
  std::vector<Edge> edges;
  VertexId max_id = 0;
  EdgeListScanner scanner(in,
                          num_vertices != 0 ? num_vertices : kInvalidVertex);
  Edge edge;
  while (scanner.Next(&edge)) {
    edges.push_back(edge);
    max_id = std::max({max_id, edge.src, edge.dst});
  }
  result.skipped_lines = scanner.skipped_lines();
  if (!scanner.ok()) {
    result.error = scanner.error();
    return result;
  }
  VertexId n = num_vertices != 0 ? num_vertices
               : edges.empty()   ? 0
                                 : max_id + 1;
  GraphBuilder builder(n, directed);
  for (const Edge& e : edges) builder.AddEdge(e.src, e.dst);
  result.graph = std::move(builder).Finalize();
  result.ok = true;
  return result;
}

EdgeListReadResult TryReadEdgeListFile(const std::string& path, bool directed,
                                       VertexId num_vertices) {
  std::ifstream in(path);
  if (!in.good()) {
    EdgeListReadResult result;
    result.error = "cannot open edge list file: " + path;
    return result;
  }
  return TryReadEdgeList(in, directed, num_vertices);
}

Graph ReadEdgeList(std::istream& in, bool directed, VertexId num_vertices) {
  EdgeListReadResult result = TryReadEdgeList(in, directed, num_vertices);
  if (!result.ok) throw std::runtime_error(result.error);
  return std::move(result.graph);
}

Graph ReadEdgeListFile(const std::string& path, bool directed,
                       VertexId num_vertices) {
  EdgeListReadResult result =
      TryReadEdgeListFile(path, directed, num_vertices);
  if (!result.ok) throw std::runtime_error(result.error);
  return std::move(result.graph);
}

void WriteEdgeList(const Graph& graph, std::ostream& out) {
  BlockTextWriter writer(out);
  for (const Edge& e : graph.edges()) writer << e.src << ' ' << e.dst << '\n';
}

void WriteEdgeListFile(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  SGP_CHECK(out.good() && "cannot open output file");
  WriteEdgeList(graph, out);
}

}  // namespace sgp
