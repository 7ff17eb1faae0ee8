#include "partition/partition_io.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "partition/metrics.h"

namespace sgp {

namespace {

// Writes the "v <id> <p>" / "e <id> <p>" records of a partition file into
// 64 KiB blocks. The ids count up from 0, so their digits live in a
// decimal counter bumped in place, and the " <p>\n" tail of each
// partition below kTailTable comes from a table built once; a larger
// partition id (a file may be written from any vector, even one holding
// kInvalidPartition) is formatted on the spot. Lines are assembled with
// fixed-size copies that may run past the line end: the block keeps
// kSlack bytes beyond its flush mark for them, and the next line
// overwrites the excess. The bytes equal std::ostream's operator<< output
// for the same values.
class RecordWriter {
 public:
  RecordWriter(std::ostream& out, PartitionId k)
      : out_(out),
        buffer_(std::make_unique_for_overwrite<char[]>(kBlock + kSlack)),
        table_size_(std::min<PartitionId>(k, kTailTable)),
        tails_(static_cast<size_t>(table_size_) * kTailStride),
        tail_len_(table_size_) {
    for (PartitionId p = 0; p < table_size_; ++p) {
      char* t = tails_.data() + static_cast<size_t>(p) * kTailStride;
      t[0] = ' ';
      char* end = std::to_chars(t + 1, t + kTailStride, p).ptr;
      *end++ = '\n';
      tail_len_[p] = static_cast<uint8_t>(end - t);
    }
  }
  ~RecordWriter() { Flush(); }

  // One record per entry of `parts`, ids 0, 1, 2, ...
  void Records(char kind, const std::vector<PartitionId>& parts) {
    char digits[kDigitSpan] = {'0'};
    size_t num_digits = 1;
    for (PartitionId part : parts) {
      if (size_ > kBlock) Flush();
      char* p = buffer_.get() + size_;
      p[0] = kind;
      p[1] = ' ';
      std::memcpy(p + 2, digits, kDigitSpan);
      p += 2 + num_digits;
      if (part < table_size_) {
        std::memcpy(p, tails_.data() + static_cast<size_t>(part) * kTailStride,
                    kTailStride);
        p += tail_len_[part];
      } else {
        *p++ = ' ';
        p = std::to_chars(p, p + 10, part).ptr;
        *p++ = '\n';
      }
      size_ = static_cast<size_t>(p - buffer_.get());
      // id + 1: trailing 9s become 0s; all 9s grow a leading 1.
      size_t i = num_digits;
      while (i > 0 && digits[i - 1] == '9') digits[--i] = '0';
      if (i > 0) {
        ++digits[i - 1];
      } else {
        digits[0] = '1';
        digits[num_digits++] = '0';
      }
    }
  }

  void Flush() {
    out_.write(buffer_.get(), static_cast<std::streamsize>(size_));
    size_ = 0;
  }

 private:
  static constexpr size_t kBlock = size_t{1} << 16;
  static constexpr size_t kDigitSpan = 24;  // ≥ 20 digits of a 64-bit id
  static constexpr size_t kTailStride = 16;  // " " + ≤ 10 digits + "\n"
  static constexpr PartitionId kTailTable = PartitionId{1} << 16;
  // Longest over-copied line: kind, space, the digit span, a tail.
  static constexpr size_t kSlack = 2 + kDigitSpan + kTailStride;

  std::ostream& out_;
  std::unique_ptr<char[]> buffer_;
  size_t size_ = 0;
  PartitionId table_size_;
  std::vector<char> tails_;
  std::vector<uint8_t> tail_len_;
};

}  // namespace

void WritePartitioning(const Partitioning& partitioning, std::ostream& out) {
  const std::string header =
      "sgp-partitioning v1\nmodel " +
      std::string(CutModelName(partitioning.model)) + " k " +
      std::to_string(partitioning.k) + " vertices " +
      std::to_string(partitioning.vertex_to_partition.size()) + " edges " +
      std::to_string(partitioning.edge_to_partition.size()) + "\n";
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  RecordWriter writer(out, partitioning.k);
  writer.Records('v', partitioning.vertex_to_partition);
  writer.Records('e', partitioning.edge_to_partition);
}

void WritePartitioningFile(const Partitioning& partitioning,
                           const std::string& path) {
  std::ofstream out(path);
  SGP_CHECK(out.good() && "cannot open partitioning output file");
  WritePartitioning(partitioning, out);
}

Partitioning ReadPartitioning(const Graph& graph, std::istream& in) {
  std::string line;
  SGP_CHECK(std::getline(in, line) && line == "sgp-partitioning v1");

  SGP_CHECK(std::getline(in, line));
  std::istringstream header(line);
  std::string tok;
  std::string model_name;
  uint64_t k = 0;
  uint64_t n = 0;
  uint64_t m = 0;
  SGP_CHECK(header >> tok && tok == "model");
  SGP_CHECK(header >> model_name);
  SGP_CHECK(header >> tok && tok == "k");
  SGP_CHECK(header >> k);
  SGP_CHECK(header >> tok && tok == "vertices");
  SGP_CHECK(header >> n);
  SGP_CHECK(header >> tok && tok == "edges");
  SGP_CHECK(header >> m);
  SGP_CHECK(n == graph.num_vertices());
  SGP_CHECK(m == graph.num_edges());

  Partitioning p;
  p.k = static_cast<PartitionId>(k);
  if (model_name == "edge-cut") {
    p.model = CutModel::kEdgeCut;
  } else if (model_name == "vertex-cut") {
    p.model = CutModel::kVertexCut;
  } else if (model_name == "hybrid-cut") {
    p.model = CutModel::kHybrid;
  } else {
    SGP_CHECK(false && "unknown cut model in partitioning file");
  }
  p.vertex_to_partition.assign(n, kInvalidPartition);
  p.edge_to_partition.assign(m, kInvalidPartition);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    char kind = 0;
    uint64_t id = 0;
    uint64_t part = 0;
    SGP_CHECK(ls >> kind >> id >> part);
    if (kind == 'v') {
      SGP_CHECK(id < n);
      p.vertex_to_partition[id] = static_cast<PartitionId>(part);
    } else if (kind == 'e') {
      SGP_CHECK(id < m);
      p.edge_to_partition[id] = static_cast<PartitionId>(part);
    } else {
      SGP_CHECK(false && "unknown record kind in partitioning file");
    }
  }
  ValidatePartitioning(graph, p);
  return p;
}

Partitioning ReadPartitioningFile(const Graph& graph,
                                  const std::string& path) {
  std::ifstream in(path);
  SGP_CHECK(in.good() && "cannot open partitioning file");
  return ReadPartitioning(graph, in);
}

}  // namespace sgp
