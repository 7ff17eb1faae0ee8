#include "stream/source.h"

#include <algorithm>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/timer.h"

namespace sgp {

namespace {

// Chunk-refill instrumentation shared by every source. `stream.chunks` is
// deterministic (a function of stream length and chunk size);
// `stream.refill_nanos` is wall time and registered as such so
// deterministic exports exclude it (docs/OBSERVABILITY.md).
struct SourceMetrics {
  Counter* chunks = nullptr;
  Counter* refill_nanos = nullptr;
  Counter* disk_edges = nullptr;
  Counter* disk_skipped_lines = nullptr;

  SourceMetrics() = default;
  explicit SourceMetrics(MetricsRegistry& reg) {
    chunks = reg.GetCounter("stream.chunks");
    refill_nanos =
        reg.GetCounter("stream.refill_nanos", MetricOptions::WallClock());
    disk_edges = reg.GetCounter("stream.disk.edges");
    disk_skipped_lines = reg.GetCounter("stream.disk.skipped_lines");
  }

  static SourceMetrics& Get() {
    return CurrentRegistryMetrics<SourceMetrics>();
  }
};

}  // namespace

InMemoryVertexSource::InMemoryVertexSource(const Graph& graph,
                                           StreamOrder order, uint64_t seed,
                                           uint64_t chunk_size)
    : order_(MakeVertexStream(graph, order, seed)),
      chunk_size_(chunk_size == 0 ? order_.size() : chunk_size) {}

std::span<const VertexId> InMemoryVertexSource::NextChunk() {
  if (pos_ >= order_.size()) return {};
  Timer timer;
  const uint64_t len = std::min<uint64_t>(chunk_size_, order_.size() - pos_);
  std::span<const VertexId> chunk(order_.data() + pos_, len);
  pos_ += len;
  SourceMetrics& metrics = SourceMetrics::Get();
  metrics.chunks->Increment();
  metrics.refill_nanos->Increment(timer.ElapsedNanos());
  return chunk;
}

InMemoryEdgeSource::InMemoryEdgeSource(const Graph& graph, StreamOrder order,
                                       uint64_t seed, uint64_t chunk_size)
    : graph_(graph),
      order_(MakeEdgeStream(graph, order, seed)),
      chunk_size_(chunk_size == 0 ? order_.size() : chunk_size) {
  buffer_.resize(std::min<uint64_t>(
      std::max<uint64_t>(1, chunk_size_), order_.size()));
}

std::span<const StreamEdge> InMemoryEdgeSource::NextChunk() {
  if (pos_ >= order_.size()) return {};
  Timer timer;
  const uint64_t len = std::min<uint64_t>(chunk_size_, order_.size() - pos_);
  for (uint64_t i = 0; i < len; ++i) {
    const EdgeId e = order_[pos_ + i];
    const Edge& edge = graph_.edges()[e];
    buffer_[i] = StreamEdge{e, edge.src, edge.dst};
  }
  pos_ += len;
  SourceMetrics& metrics = SourceMetrics::Get();
  metrics.chunks->Increment();
  metrics.refill_nanos->Increment(timer.ElapsedNanos());
  return {buffer_.data(), len};
}

EdgeListFileSource::EdgeListFileSource(const std::string& path)
    : EdgeListFileSource(path, Options()) {}

EdgeListFileSource::EdgeListFileSource(const std::string& path,
                                       const Options& options)
    : path_(path),
      options_(options),
      in_(path, std::ios::binary),
      scanner_(in_, options.num_vertices != 0 ? options.num_vertices
                                              : kInvalidVertex) {
  SGP_CHECK(options_.chunk_size >= 1);
  buffer_.reserve(options_.chunk_size);
  if (!in_.good()) open_error_ = "cannot open edge list file: " + path_;
}

void EdgeListFileSource::Reset() {
  if (!in_.is_open()) return;
  in_.clear();
  in_.seekg(0);
  scanner_.Reset();
  next_edge_id_ = 0;
  max_vertex_bound_ = 0;
  open_error_ =
      in_.good() ? std::string() : "cannot rewind edge list file: " + path_;
}

std::span<const StreamEdge> EdgeListFileSource::NextChunk() {
  if (!ok()) return {};
  Timer timer;
  buffer_.clear();
  const uint64_t skipped_before = scanner_.skipped_lines();
  Edge edge;
  while (buffer_.size() < options_.chunk_size && scanner_.Next(&edge)) {
    // GraphBuilder drops self-loops during canonicalization; mirroring
    // that here keeps disk edge ids aligned with in-memory EdgeIds for
    // duplicate-free inputs.
    if (edge.src == edge.dst) continue;
    buffer_.push_back(StreamEdge{next_edge_id_++, edge.src, edge.dst});
    max_vertex_bound_ =
        std::max({max_vertex_bound_, edge.src + 1, edge.dst + 1});
  }
  SourceMetrics& metrics = SourceMetrics::Get();
  metrics.disk_skipped_lines->Increment(scanner_.skipped_lines() -
                                        skipped_before);
  if (!scanner_.ok() || buffer_.empty()) return {};
  metrics.chunks->Increment();
  metrics.disk_edges->Increment(buffer_.size());
  metrics.refill_nanos->Increment(timer.ElapsedNanos());
  return {buffer_.data(), buffer_.size()};
}

}  // namespace sgp
