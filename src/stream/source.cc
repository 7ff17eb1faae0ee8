#include "stream/source.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/timer.h"

namespace sgp {

namespace {

// Chunk-refill instrumentation shared by every source. `stream.chunks` is
// deterministic (a function of stream length and chunk size);
// `stream.refill_nanos` and `stream.wait_nanos` are wall time and
// registered as such so deterministic exports exclude them
// (docs/OBSERVABILITY.md).
struct SourceMetrics {
  Counter* chunks = nullptr;
  Counter* refill_nanos = nullptr;
  Counter* wait_nanos = nullptr;
  Counter* disk_edges = nullptr;
  Counter* disk_skipped_lines = nullptr;

  SourceMetrics() = default;
  explicit SourceMetrics(MetricsRegistry& reg) {
    chunks = reg.GetCounter("stream.chunks");
    refill_nanos =
        reg.GetCounter("stream.refill_nanos", MetricOptions::WallClock());
    wait_nanos =
        reg.GetCounter("stream.wait_nanos", MetricOptions::WallClock());
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
  if (!in_.good()) error_ = "cannot open edge list file: " + path_;
}

EdgeListFileSource::~EdgeListFileSource() { StopReader(); }

void EdgeListFileSource::StopReader() {
  if (reader_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    freed_cv_.notify_one();
    reader_.join();
  }
  stop_ = false;
  filled_ = 0;
  released_ = 0;
  reader_waiting_ = false;
  consumer_waiting_ = false;
  pass_read_ = false;
  holding_ = false;
  done_ = false;
}

void EdgeListFileSource::Reset() {
  StopReader();
  if (!in_.is_open()) return;
  in_.clear();
  in_.seekg(0);
  scanner_.Reset();
  skipped_lines_ = 0;
  max_vertex_bound_ = 0;
  error_ =
      in_.good() ? std::string() : "cannot rewind edge list file: " + path_;
}

void EdgeListFileSource::ReadAhead(MetricsRegistry* registry) {
  ScopedMetricsRegistry scoped(registry);
  Counter* refill_nanos = SourceMetrics::Get().refill_nanos;
  EdgeId next_edge_id = 0;
  VertexId max_bound = 0;
  for (uint64_t n = 0;; ++n) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (n - released_ == kReadAheadSlots) {
        reader_waiting_ = true;
        freed_cv_.wait(lock, [&] {
          return stop_ || n - released_ <= kReadAheadSlots - kWakeBatch;
        });
        reader_waiting_ = false;
      }
      if (stop_) return;
    }
    Timer timer;
    Slot& slot = ring_[n % kReadAheadSlots];
    slot.edges.clear();
    bool more = true;
    try {
      Edge edge;
      while (slot.edges.size() < options_.chunk_size &&
             (more = scanner_.Next(&edge))) {
        // GraphBuilder drops self-loops during canonicalization; mirroring
        // that here keeps disk edge ids aligned with in-memory EdgeIds for
        // duplicate-free inputs.
        if (edge.src == edge.dst) continue;
        slot.edges.push_back(StreamEdge{next_edge_id++, edge.src, edge.dst});
        max_bound = std::max({max_bound, edge.src + 1, edge.dst + 1});
      }
    } catch (...) {
      slot.failure = std::current_exception();
      more = false;
    }
    slot.skipped_lines = scanner_.skipped_lines();
    slot.max_vertex_bound = max_bound;
    slot.error = scanner_.error();
    slot.last = !more;
    refill_nanos->Increment(timer.ElapsedNanos());
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      filled_ = n + 1;
      pass_read_ = !more;
      wake = consumer_waiting_ &&
             (filled_ - released_ >= kWakeBatch || pass_read_);
      if (wake) consumer_waiting_ = false;
    }
    if (wake) filled_cv_.notify_one();
    if (!more) return;
  }
}

std::span<const StreamEdge> EdgeListFileSource::NextChunk() {
  if (holding_) {
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++released_;
      wake = reader_waiting_ &&
             filled_ - released_ <= kReadAheadSlots - kWakeBatch;
      if (wake) reader_waiting_ = false;
    }
    if (wake) freed_cv_.notify_one();
    holding_ = false;
  }
  if (!ok() || done_) return {};
  if (!reader_.joinable()) {
    reader_ = std::thread(&EdgeListFileSource::ReadAhead, this,
                          &MetricsRegistry::Current());
  }
  SourceMetrics& metrics = SourceMetrics::Get();
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (filled_ == released_) {
      Timer timer;
      consumer_waiting_ = true;
      filled_cv_.wait(lock, [&] {
        return filled_ - released_ >= kWakeBatch || pass_read_;
      });
      consumer_waiting_ = false;
      metrics.wait_nanos->Increment(timer.ElapsedNanos());
    }
  }
  Slot& slot = ring_[released_ % kReadAheadSlots];
  holding_ = true;
  done_ = slot.last;
  if (slot.failure) std::rethrow_exception(std::exchange(slot.failure, {}));
  metrics.disk_skipped_lines->Increment(slot.skipped_lines - skipped_lines_);
  skipped_lines_ = slot.skipped_lines;
  max_vertex_bound_ = slot.max_vertex_bound;
  error_ = slot.error;
  // A failing chunk is dropped whole, as the scanner stops at the bad line.
  if (!ok() || slot.edges.empty()) return {};
  metrics.chunks->Increment();
  metrics.disk_edges->Increment(slot.edges.size());
  return {slot.edges.data(), slot.edges.size()};
}

}  // namespace sgp
