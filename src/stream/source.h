#ifndef SGP_STREAM_SOURCE_H_
#define SGP_STREAM_SOURCE_H_

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <fstream>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph.h"
#include "graph/io.h"
#include "stream/stream.h"

namespace sgp {

class MetricsRegistry;

/// Pull-based, chunk-batched ingest layer (Section 2: a streaming
/// partitioner consumes the graph as it arrives and keeps only an O(n+k)
/// synopsis). Partitioners pull chunks from a source instead of receiving
/// a fully materialized arrival sequence, which lets the same algorithm
/// code run over in-memory replays of the four stream orders and over a
/// bounded-memory disk edge list. Chunk boundaries never change the
/// element sequence, so results are independent of chunk size.

/// One element of an edge stream: the edge id (the dense EdgeId for
/// in-memory graphs; the arrival index for disk streams) plus both
/// endpoints, so consumers need no random access into an edge array.
struct StreamEdge {
  EdgeId id = 0;
  VertexId src = kInvalidVertex;
  VertexId dst = kInvalidVertex;
};

/// Pull-based vertex stream: each element is a vertex id; consumers read
/// the adjacency N(u) from wherever they can (the in-memory adapters pair
/// with a Graph). An empty chunk signals end of stream.
class VertexStreamSource {
 public:
  virtual ~VertexStreamSource() = default;

  /// Next batch of vertices; empty exactly at end of stream. The returned
  /// span is valid until the next NextChunk()/Reset() call.
  virtual std::span<const VertexId> NextChunk() = 0;

  /// Rewinds to the beginning of the stream (multi-pass / re-streaming).
  virtual void Reset() = 0;

  /// True when the source can replay its stream from the beginning —
  /// the capability multi-pass algorithms (re-streaming, two-phase) probe
  /// before relying on Rewind(). Both provided sources can; a wrapper
  /// over a non-seekable input overrides this to false.
  virtual bool SupportsRewind() const { return true; }

  /// Rewinds to the beginning for another pass. Every pass replays the
  /// exact same element sequence. Call only when SupportsRewind().
  virtual void Rewind() { Reset(); }

  /// Total elements if known up front; 0 when the source cannot tell
  /// without consuming itself.
  virtual uint64_t size_hint() const = 0;
};

/// Pull-based edge stream. An empty chunk signals end of stream.
class EdgeStreamSource {
 public:
  virtual ~EdgeStreamSource() = default;
  virtual std::span<const StreamEdge> NextChunk() = 0;
  virtual void Reset() = 0;
  virtual uint64_t size_hint() const = 0;

  /// True when the source can replay its stream from the beginning (the
  /// multi-pass capability: a degree pre-pass, two-phase clustering, or
  /// re-streaming all need it). In-memory replays and seekable files can
  /// rewind; single-shot inputs (pipes) cannot and must override.
  virtual bool SupportsRewind() const { return true; }

  /// Rewinds to the beginning for another pass over the identical element
  /// sequence (ids included). Call only when SupportsRewind(); sources
  /// that cannot rewind enter the failed state (ok() == false) instead.
  virtual void Rewind() { Reset(); }

  /// False when the stream failed mid-way (I/O error, malformed input);
  /// an empty chunk then means "failed", not "done". In-memory sources
  /// never fail.
  virtual bool ok() const { return true; }
  virtual std::string error() const { return {}; }
};

/// Drains `source` from its current position, invoking `fn` per element.
template <typename Source, typename Fn>
void ForEachStreamItem(Source& source, Fn&& fn) {
  for (auto chunk = source.NextChunk(); !chunk.empty();
       chunk = source.NextChunk()) {
    for (const auto& item : chunk) fn(item);
  }
}

/// Largest endpoint id in `chunk` (0 for an empty chunk): one sweep, so a
/// vertex-discovering consumer grows its id space once per chunk.
inline VertexId MaxEndpoint(std::span<const StreamEdge> chunk) {
  VertexId hi = 0;
  for (const StreamEdge& e : chunk) hi = std::max({hi, e.src, e.dst});
  return hi;
}

/// In-memory vertex source: replays MakeVertexStream(graph, order, seed)
/// chunk by chunk, so the element sequence is bit-identical to the
/// materialized path for every seed. chunk_size 0 serves the whole stream
/// as one chunk (the fast path for in-core graphs).
class InMemoryVertexSource final : public VertexStreamSource {
 public:
  InMemoryVertexSource(const Graph& graph, StreamOrder order, uint64_t seed,
                       uint64_t chunk_size = 0);

  std::span<const VertexId> NextChunk() override;
  void Reset() override { pos_ = 0; }
  uint64_t size_hint() const override { return order_.size(); }

 private:
  std::vector<VertexId> order_;
  uint64_t chunk_size_;
  uint64_t pos_ = 0;
};

/// In-memory edge source: replays MakeEdgeStream(graph, order, seed),
/// materializing only one chunk of StreamEdge records at a time on top of
/// the edge-id order (the id order itself is O(m), exactly like the
/// pre-source materialized path).
class InMemoryEdgeSource final : public EdgeStreamSource {
 public:
  InMemoryEdgeSource(const Graph& graph, StreamOrder order, uint64_t seed,
                     uint64_t chunk_size = 0);

  std::span<const StreamEdge> NextChunk() override;
  void Reset() override { pos_ = 0; }
  uint64_t size_hint() const override { return order_.size(); }

 private:
  const Graph& graph_;
  std::vector<EdgeId> order_;
  std::vector<StreamEdge> buffer_;
  uint64_t chunk_size_;
  uint64_t pos_ = 0;
};

/// Bounded-memory disk edge source: streams a whitespace-separated edge
/// list ("src dst" per line) through the EdgeListScanner of graph/io.h.
/// Mirrors the GraphBuilder canonicalization it can afford statelessly:
/// self-loops are dropped (duplicate suppression would need O(m) state, so
/// inputs with duplicates simply stream them — ids then diverge from the
/// deduplicated in-memory Graph). Only natural order is possible without
/// materializing the file. Malformed lines are skipped and counted;
/// out-of-range ids put the source in a failed state (ok() == false).
///
/// Parsing runs ahead on a reader thread, started by the first NextChunk()
/// of a pass: it fills a ring of kReadAheadSlots chunk buffers while the
/// consumer works on the chunk it holds, and sleeps while the ring is
/// full. The memory bound is one scanner block plus kReadAheadSlots
/// chunks. Every filled slot records the source state as of its last
/// line, and ok(), error(), skipped_lines() and max_vertex_bound() report
/// the state of the chunk handed out last, so a consumer sees exactly
/// what a reader parsing inside NextChunk() would show it.
class EdgeListFileSource final : public EdgeStreamSource {
 public:
  struct Options {
    /// Edges per chunk; must be >= 1.
    uint64_t chunk_size = 4096;

    /// Exclusive vertex-id bound; 0 grows the id space from the data.
    VertexId num_vertices = 0;
  };

  /// Chunk buffers in the read-ahead ring, the one the consumer holds
  /// included.
  static constexpr size_t kReadAheadSlots = 4;

  /// Slots a blocked thread waits for before it resumes: a starved
  /// consumer sleeps until this many are filled (or the pass is read), a
  /// reader facing a full ring until this many are free. Waking once per
  /// batch rather than once per chunk halves the thread handoffs.
  static constexpr size_t kWakeBatch = kReadAheadSlots / 2;

  explicit EdgeListFileSource(const std::string& path);
  EdgeListFileSource(const std::string& path, const Options& options);

  /// Stops and joins the reader thread.
  ~EdgeListFileSource() override;

  EdgeListFileSource(const EdgeListFileSource&) = delete;
  EdgeListFileSource& operator=(const EdgeListFileSource&) = delete;

  /// False when the file cannot be opened or a line had an out-of-range
  /// id; `error()` carries the diagnostic. NextChunk() returns empty.
  bool ok() const override { return error_.empty(); }
  std::string error() const override { return error_; }

  /// The next filled slot of the ring. The slot handed out before it is
  /// recycled only now, so the span stays valid until the next
  /// NextChunk()/Reset() call.
  std::span<const StreamEdge> NextChunk() override;

  /// Stops the reader and seeks back to the start of the file (multi-pass,
  /// e.g. a degree-counting pre-pass). Skipped-line and id-space
  /// accounting restart with the pass.
  void Reset() override;

  uint64_t size_hint() const override { return 0; }

  /// Malformed lines skipped up to the last chunk handed out (this pass).
  uint64_t skipped_lines() const { return skipped_lines_; }

  /// Max vertex id accepted + 1 up to the last chunk handed out (this
  /// pass); the id space a consumer must have grown to after draining
  /// the stream.
  VertexId max_vertex_bound() const { return max_vertex_bound_; }

 private:
  // One chunk plus the source state after its last line.
  struct Slot {
    std::vector<StreamEdge> edges;
    uint64_t skipped_lines = 0;
    VertexId max_vertex_bound = 0;
    std::string error;  // the scanner failed inside this chunk
    // What the parse threw (memory exhaustion), rethrown at hand-out on
    // the consumer's thread.
    std::exception_ptr failure;
    bool last = false;  // end of the pass: no slot follows
  };

  // Reader thread body: parses the pass from the current file position,
  // one slot per chunk, publishing into `registry`.
  void ReadAhead(MetricsRegistry* registry);
  void StopReader();

  std::string path_;
  Options options_;
  // The file and the scanner belong to the reader while it runs.
  std::ifstream in_;
  EdgeListScanner scanner_;
  std::array<Slot, kReadAheadSlots> ring_;

  std::mutex mu_;
  std::condition_variable filled_cv_;  // the consumer waits for a chunk
  std::condition_variable freed_cv_;   // the reader waits for a free slot
  uint64_t filled_ = 0;    // slots published this pass; guarded by mu_
  uint64_t released_ = 0;  // slots recycled this pass; guarded by mu_
  bool stop_ = false;      // guarded by mu_
  bool pass_read_ = false;  // the pass's last slot is published; by mu_
  // A thread sleeps on its condition variable and wants a notify once
  // kWakeBatch slots are ready for it; guarded by mu_. The other thread
  // notifies only then, so neither wakes for nothing.
  bool reader_waiting_ = false;
  bool consumer_waiting_ = false;

  // Consumer state: what the chunks handed out so far have shown.
  bool holding_ = false;  // ring_[released_ % kReadAheadSlots] is out
  bool done_ = false;     // the pass's last slot was handed out
  std::string error_;
  uint64_t skipped_lines_ = 0;
  VertexId max_vertex_bound_ = 0;

  // Declared last: the reader uses every member above.
  std::thread reader_;
};

/// Models a non-seekable input (a pipe, a network feed) on top of any edge
/// source: chunks pass through unchanged, but the stream cannot be
/// replayed. Rewind()/Reset() put the source into the failed state instead
/// of aborting, so multi-pass partitioners can report "source does not
/// support rewind" as a regular StreamRunResult error. Used by tests and
/// tools to prove the single-pass algorithms never rely on a second pass.
class SinglePassEdgeSource final : public EdgeStreamSource {
 public:
  explicit SinglePassEdgeSource(EdgeStreamSource& inner) : inner_(inner) {}

  std::span<const StreamEdge> NextChunk() override {
    if (failed_) return {};
    return inner_.NextChunk();
  }
  bool SupportsRewind() const override { return false; }
  void Rewind() override { Fail(); }
  void Reset() override { Fail(); }
  uint64_t size_hint() const override { return inner_.size_hint(); }
  bool ok() const override { return !failed_ && inner_.ok(); }
  std::string error() const override {
    return failed_ ? "single-pass source cannot rewind" : inner_.error();
  }

 private:
  void Fail() { failed_ = true; }

  EdgeStreamSource& inner_;
  bool failed_ = false;
};

}  // namespace sgp

#endif  // SGP_STREAM_SOURCE_H_
