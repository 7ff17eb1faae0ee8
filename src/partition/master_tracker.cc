#include "partition/master_tracker.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/hashing.h"
#include "common/telemetry.h"
#include "common/timer.h"

namespace sgp {

namespace {

// Wall time the partitioner spends on the tracker beyond copying its
// chunks: waits for a free queue buffer plus the join before Derive.
struct MasterTrackerMetrics {
  Counter* wait_nanos = nullptr;

  MasterTrackerMetrics() = default;
  explicit MasterTrackerMetrics(MetricsRegistry& reg) {
    wait_nanos = reg.GetCounter("partition.masters.wait_nanos",
                                MetricOptions::WallClock());
  }

  static MasterTrackerMetrics& Get() {
    return CurrentRegistryMetrics<MasterTrackerMetrics>();
  }
};

}  // namespace

MasterTracker::~MasterTracker() { Join(); }

void MasterTracker::NoteChunk(std::span<const StreamEdge> chunk,
                              std::span<const PartitionId> targets) {
  SGP_CHECK(chunk.size() == targets.size());
  for (size_t begin = 0; begin < chunk.size(); begin += kBufferNotes) {
    const size_t len = std::min(kBufferNotes, chunk.size() - begin);
    Enqueue(chunk.subspan(begin, len), targets.subspan(begin, len));
  }
}

void MasterTracker::Enqueue(std::span<const StreamEdge> chunk,
                            std::span<const PartitionId> targets) {
  if (!tally_.joinable()) tally_ = std::thread(&MasterTracker::FoldQueue, this);
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (queued_ - folded_ == kQueueSlots) {
      Timer timer;
      noter_waiting_ = true;
      folded_cv_.wait(lock, [&] {
        return queued_ - folded_ <= kQueueSlots - kWakeBatch;
      });
      noter_waiting_ = false;
      MasterTrackerMetrics::Get().wait_nanos->Increment(timer.ElapsedNanos());
    }
  }
  // Only this thread advances queued_, so the buffer is ours until then.
  std::vector<Note>& notes = queue_[queued_ % kQueueSlots];
  notes.resize(chunk.size());
  for (size_t i = 0; i < chunk.size(); ++i) {
    notes[i] = Note{chunk[i].src, chunk[i].dst, targets[i]};
  }
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++queued_;
    wake = tally_waiting_ && queued_ - folded_ >= kWakeBatch;
    if (wake) tally_waiting_ = false;
  }
  if (wake) queued_cv_.notify_one();
}

void MasterTracker::FoldQueue() {
  for (uint64_t n = 0;; ++n) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (queued_ == n && !stop_) {
        tally_waiting_ = true;
        queued_cv_.wait(lock,
                        [&] { return stop_ || queued_ - n >= kWakeBatch; });
        tally_waiting_ = false;
      }
      if (queued_ == n) return;  // stopped and drained
    }
    if (!failure_) {
      try {
        Fold(queue_[n % kQueueSlots]);
      } catch (...) {
        failure_ = std::current_exception();
      }
    }
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      folded_ = n + 1;
      wake = noter_waiting_ && queued_ - folded_ <= kQueueSlots - kWakeBatch;
      if (wake) noter_waiting_ = false;
    }
    if (wake) folded_cv_.notify_one();
  }
}

void MasterTracker::Join() {
  if (!tally_.joinable()) return;
  Timer timer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  queued_cv_.notify_one();
  tally_.join();
  stop_ = false;
  queued_ = 0;
  folded_ = 0;
  tally_waiting_ = false;
  noter_waiting_ = false;
  MasterTrackerMetrics::Get().wait_nanos->Increment(timer.ElapsedNanos());
}

void MasterTracker::Finish() {
  Join();
  if (failure_) std::rethrow_exception(std::exchange(failure_, {}));
}

void MasterTracker::Fold(std::span<const Note> notes) {
  // Same order as noting edge by edge, so the arrays grow identically.
  for (size_t i = 0; i < notes.size(); ++i) {
    if (i + kPrefetchAhead < notes.size()) {
      const Note& ahead = notes[i + kPrefetchAhead];
      Prefetch(ahead.src, ahead.part);
      Prefetch(ahead.dst, ahead.part);
    }
    Add(notes[i].src, notes[i].part);
    Add(notes[i].dst, notes[i].part);
  }
}

// A prefetch is only a hint: the arrays may grow before the note it warms
// is folded, which leaves the warmed line unused but changes no tally.
void MasterTracker::Prefetch(VertexId v, PartitionId part) const {
  if (v < first_.size()) __builtin_prefetch(&first_[v], 1, 1);
  if (!overflow_.empty()) {
    __builtin_prefetch(&overflow_[HomeSlot(v, part)], 1, 1);
  }
}

void MasterTracker::Add(VertexId v, PartitionId part) {
  if (v >= first_.size()) first_.resize(static_cast<size_t>(v) + 1);
  Tally& first = first_[v];
  if (first.count == 0) first.part = part;
  if (first.part == part) {
    ++first.count;
    return;
  }
  if (2 * (overflow_used_ + 1) > overflow_.size()) GrowOverflow();
  Entry& e = overflow_[SlotIndex(v, part)];
  if (e.count == 0) {
    e.vertex = v;
    e.part = part;
    ++overflow_used_;
  }
  ++e.count;
}

std::vector<PartitionId> MasterTracker::Derive(VertexId n, PartitionId k) {
  Finish();
  // Fold every overflow tally into a copy of the inline ones. Beats() is
  // a strict order on a vertex's distinct partitions, so the fold order
  // (hash-table order) never matters.
  std::vector<Tally> best(n);
  std::copy_n(first_.begin(), std::min<size_t>(n, first_.size()),
              best.begin());
  for (const Entry& e : overflow_) {
    if (e.count == 0 || e.vertex >= n) continue;
    const Tally t{e.part, e.count};
    if (Beats(t, best[e.vertex])) best[e.vertex] = t;
  }
  std::vector<PartitionId> masters(n);
  for (VertexId u = 0; u < n; ++u) {
    masters[u] = best[u].count > 0
                     ? best[u].part
                     : static_cast<PartitionId>(HashU64(u) % k);
  }
  return masters;
}

uint64_t MasterTracker::SynopsisBytes() {
  Finish();
  uint64_t bytes = first_.capacity() * sizeof(Tally) +
                   overflow_.capacity() * sizeof(Entry);
  for (const std::vector<Note>& notes : queue_) {
    bytes += notes.capacity() * sizeof(Note);
  }
  return bytes;
}

size_t MasterTracker::HomeSlot(VertexId v, PartitionId part) const {
  return HashU64((uint64_t{v} << 32) | part) & (overflow_.size() - 1);
}

size_t MasterTracker::SlotIndex(VertexId v, PartitionId part) const {
  const size_t mask = overflow_.size() - 1;
  size_t i = HomeSlot(v, part);
  while (overflow_[i].count != 0 &&
         (overflow_[i].vertex != v || overflow_[i].part != part)) {
    i = (i + 1) & mask;
  }
  return i;
}

void MasterTracker::GrowOverflow() {
  std::vector<Entry> old = std::move(overflow_);
  overflow_.assign(std::max(kMinOverflowSlots, 2 * old.size()), Entry{});
  for (const Entry& e : old) {
    if (e.count != 0) overflow_[SlotIndex(e.vertex, e.part)] = e;
  }
}

}  // namespace sgp
