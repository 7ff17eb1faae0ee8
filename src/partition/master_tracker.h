#ifndef SGP_PARTITION_MASTER_TRACKER_H_
#define SGP_PARTITION_MASTER_TRACKER_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/types.h"
#include "stream/source.h"

namespace sgp {

/// Streaming master derivation: per-vertex (partition, incident edge
/// count) tallies. The winner rule (max count, ties toward the lower
/// partition id) is order-independent, so streaming arrival order yields
/// the same masters. The one master tally of the vertex-cut codes: the
/// stream bodies of VCR, DBH, HDRF, 2PS and HEP note each chunk as they
/// place it, and DeriveMasterPlacement feeds it a materialized graph's
/// edges.
///
/// Pipeline: NoteChunk() copies a chunk's endpoints and targets into one
/// of kQueueSlots queue buffers and returns; a tally thread, started by
/// the first NoteChunk(), folds the buffers in order. The partitioner
/// therefore only waits when every buffer is still queued. Derive() and
/// SynopsisBytes() join the tally thread first.
///
/// Layout: each vertex's first partition and its count sit inline in one
/// flat array. Only the tallies of a vertex's second and later partitions
/// go to an open-addressing overflow table keyed by (vertex, partition),
/// so noting an edge allocates nothing beyond the amortized growth of the
/// two arrays.
class MasterTracker {
 public:
  /// Queue buffers between the partitioner and the tally thread, the one
  /// being folded included.
  static constexpr size_t kQueueSlots = 4;

  /// Buffers a blocked thread waits for before it resumes: an idle tally
  /// thread sleeps until this many are queued (or Derive joins it),
  /// NoteChunk facing a full queue until this many are free. Waking once
  /// per batch rather than once per buffer halves the thread handoffs.
  static constexpr size_t kWakeBatch = kQueueSlots / 2;

  /// Notes per queue buffer: a longer chunk is queued in pieces, so the
  /// buffers stay bounded when a whole in-memory stream is one chunk.
  static constexpr size_t kBufferNotes = 4096;

  /// Notes ahead of the current one whose inline tally and overflow slot
  /// the fold prefetches.
  static constexpr size_t kPrefetchAhead = 16;

  MasterTracker() = default;

  /// Presizes the inline array for ids [0, n), for callers that know the
  /// id space up front (multi-pass codes after their first pass).
  explicit MasterTracker(VertexId n) : first_(n) {}

  /// Joins the tally thread.
  ~MasterTracker();

  MasterTracker(const MasterTracker&) = delete;
  MasterTracker& operator=(const MasterTracker&) = delete;

  /// Notes both endpoints of every chunk[i] on partition targets[i]
  /// (the spans have equal length). Time spent waiting for a free queue
  /// buffer is counted in `partition.masters.wait_nanos`.
  void NoteChunk(std::span<const StreamEdge> chunk,
                 std::span<const PartitionId> targets);

  /// Masters for [0, n): most incident edges, ties toward the lower
  /// partition id; ids with no edges are hashed. Joins the tally thread
  /// first.
  std::vector<PartitionId> Derive(VertexId n, PartitionId k);

  /// Allocated bytes of both tally arrays and the queue buffers. Joins the
  /// tally thread first. Both rethrow what a fold threw.
  uint64_t SynopsisBytes();

 private:
  struct Tally {
    PartitionId part = 0;
    uint32_t count = 0;  // 0: no edge noted
  };
  struct Entry {
    VertexId vertex = 0;
    PartitionId part = 0;
    uint32_t count = 0;  // 0: empty slot
  };
  // One queued edge: both endpoints go to `part`.
  struct Note {
    VertexId src = 0;
    VertexId dst = 0;
    PartitionId part = 0;
  };

  static constexpr size_t kMinOverflowSlots = 64;

  static bool Beats(Tally a, Tally b) {
    return a.count > b.count || (a.count == b.count && a.part < b.part);
  }

  // Copies one piece of at most kBufferNotes into the next free buffer.
  void Enqueue(std::span<const StreamEdge> chunk,
               std::span<const PartitionId> targets);

  // Tally thread body and its per-buffer fold.
  void FoldQueue();
  void Fold(std::span<const Note> notes);
  void Add(VertexId v, PartitionId part);
  void Prefetch(VertexId v, PartitionId part) const;

  // Folds what is queued, then joins the tally thread (a no-op when none
  // runs). Counted in `partition.masters.wait_nanos`. The destructor
  // joins; Finish() also rethrows a fold's failure.
  void Join();
  void Finish();

  // Where the probe for (v, part) starts in the power-of-two table.
  size_t HomeSlot(VertexId v, PartitionId part) const;

  // Index of the slot holding (v, part), or of the empty slot where it
  // belongs. The table is at most half full, so linear probing always
  // ends.
  size_t SlotIndex(VertexId v, PartitionId part) const;

  // Doubles the power-of-two overflow table and reinserts its entries.
  void GrowOverflow();

  // Tally state, owned by the tally thread while it runs.
  std::vector<Tally> first_;
  std::vector<Entry> overflow_;
  uint64_t overflow_used_ = 0;

  // What a fold threw (memory exhaustion). Set on the tally thread, which
  // then skips the rest of the queue; Derive rethrows it after the join.
  std::exception_ptr failure_;

  std::array<std::vector<Note>, kQueueSlots> queue_;
  std::mutex mu_;
  std::condition_variable queued_cv_;  // the tally thread waits for a buffer
  std::condition_variable folded_cv_;  // NoteChunk waits for a free buffer
  uint64_t queued_ = 0;  // buffers handed to the tally thread; guarded by mu_
  uint64_t folded_ = 0;  // buffers it has folded; guarded by mu_
  bool stop_ = false;    // guarded by mu_
  // A thread sleeps on its condition variable and wants a notify once
  // kWakeBatch buffers are ready for it; guarded by mu_. The other thread
  // notifies only then, so neither wakes for nothing.
  bool tally_waiting_ = false;
  bool noter_waiting_ = false;

  // Declared last: the tally thread uses every member above.
  std::thread tally_;
};

}  // namespace sgp

#endif  // SGP_PARTITION_MASTER_TRACKER_H_
