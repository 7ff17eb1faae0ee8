// Differential suite for the streaming master tracker
// (partition/master_tracker.h): the flat inline-plus-overflow layout,
// folded chunk by chunk on the tally thread, must derive exactly the
// masters of the straightforward vector-of-vectors tally it replaced,
// which lives on in tests/master_oracle.h as the oracle.
#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "common/hashing.h"
#include "common/types.h"
#include "partition/master_tracker.h"
#include "stream/source.h"
#include "tests/master_oracle.h"

namespace sgp {
namespace {

using oracle::ReferenceMasterTracker;

// One edge noted on both endpoints. The vertex-level cases below use
// self-loops {v, v, p}: they note v twice, which doubles every count of v
// and so keeps its winner and its ties.
struct EdgeNote {
  VertexId u = 0;
  VertexId v = 0;
  PartitionId p = 0;
};

// Chunk sizes every differential case runs at: one edge per handoff, odd
// sizes, one past a queue buffer (queued in two pieces), and the whole
// stream as one chunk (0).
constexpr size_t kChunkSizes[] = {1, 7, 33, MasterTracker::kBufferNotes + 1,
                                  0};

// Hands `notes` to `tracker` chunk by chunk, as RunOnSource does.
void NoteInChunks(MasterTracker& tracker, const std::vector<EdgeNote>& notes,
                  size_t chunk_size) {
  if (chunk_size == 0) chunk_size = std::max<size_t>(1, notes.size());
  std::vector<StreamEdge> chunk;
  std::vector<PartitionId> targets;
  for (size_t begin = 0; begin < notes.size(); begin += chunk_size) {
    chunk.clear();
    targets.clear();
    for (size_t i = begin; i < std::min(notes.size(), begin + chunk_size);
         ++i) {
      chunk.push_back(StreamEdge{i, notes[i].u, notes[i].v});
      targets.push_back(notes[i].p);
    }
    tracker.NoteChunk(chunk, targets);
  }
}

std::vector<PartitionId> TrackerMasters(const std::vector<EdgeNote>& notes,
                                        VertexId n, PartitionId k,
                                        size_t chunk_size = 0) {
  MasterTracker tracker;
  NoteInChunks(tracker, notes, chunk_size);
  return tracker.Derive(n, k);
}

std::vector<PartitionId> OracleMasters(const std::vector<EdgeNote>& notes,
                                       VertexId n, PartitionId k) {
  ReferenceMasterTracker oracle;
  for (const EdgeNote& note : notes) {
    oracle.Note(note.u, note.p);
    oracle.Note(note.v, note.p);
  }
  return oracle.Derive(n, k);
}

// Feeds `notes` to a fresh tracker (presized to `reserve` when nonzero) at
// every chunk size and to the oracle; all must derive the same masters for
// [0, n).
void ExpectMatchesOracle(const std::vector<EdgeNote>& notes, VertexId n,
                         PartitionId k, VertexId reserve = 0) {
  const std::vector<PartitionId> expected = OracleMasters(notes, n, k);
  for (size_t chunk_size : kChunkSizes) {
    MasterTracker tracker =
        reserve > 0 ? MasterTracker(reserve) : MasterTracker();
    NoteInChunks(tracker, notes, chunk_size);
    EXPECT_EQ(tracker.Derive(n, k), expected)
        << "k=" << k << " n=" << n << " notes=" << notes.size()
        << " chunk=" << chunk_size;
  }
}

std::vector<EdgeNote> RandomEdges(std::mt19937_64& rng, size_t count,
                                  VertexId num_ids, PartitionId k) {
  std::vector<EdgeNote> notes(count);
  for (EdgeNote& note : notes) {
    note = {static_cast<VertexId>(rng() % num_ids),
            static_cast<VertexId>(rng() % num_ids),
            static_cast<PartitionId>(rng() % k)};
  }
  return notes;
}

// Single-vertex notes as self-loops.
std::vector<EdgeNote> SelfLoops(
    const std::vector<std::pair<VertexId, PartitionId>>& notes) {
  std::vector<EdgeNote> edges;
  for (const auto& [v, p] : notes) edges.push_back({v, v, p});
  return edges;
}

TEST(MasterTrackerTest, RandomEdgesMatchOracle) {
  std::mt19937_64 rng(13);
  for (PartitionId k : {1u, 3u, 32u, 128u, 257u}) {
    for (VertexId num_ids : {1u, 17u, 500u, 4000u}) {
      const std::vector<EdgeNote> notes = RandomEdges(rng, 6000, num_ids, k);
      ExpectMatchesOracle(notes, num_ids, k);
      ExpectMatchesOracle(notes, num_ids, k, /*reserve=*/num_ids);
    }
  }
}

// Edge-shaped streams with a skewed (hub-heavy) endpoint choice.
TEST(MasterTrackerTest, SkewedEdgeStreamsMatchOracle) {
  std::mt19937_64 rng(29);
  for (PartitionId k : {1u, 3u, 32u, 128u, 257u}) {
    std::vector<EdgeNote> notes;
    for (int i = 0; i < 15000; ++i) {
      const double r = std::uniform_real_distribution<double>(0, 1)(rng);
      const VertexId u = static_cast<VertexId>(2000 * r * r * r);
      const VertexId v = static_cast<VertexId>(rng() % 2000);
      notes.push_back({u, v, static_cast<PartitionId>(rng() % k)});
    }
    ExpectMatchesOracle(notes, 2000, k);
  }
}

// A hub noted on every partition, far past the single inline tally, with
// counts that make the last partition win.
TEST(MasterTrackerTest, HubOnEveryPartition) {
  for (PartitionId k : {3u, 32u, 128u, 257u}) {
    std::vector<std::pair<VertexId, PartitionId>> vertex_notes;
    for (PartitionId p = 0; p < k; ++p) {
      for (PartitionId c = 0; c <= p % 5; ++c) vertex_notes.emplace_back(0, p);
    }
    for (int extra = 0; extra < 5; ++extra) vertex_notes.emplace_back(0, k - 1);
    vertex_notes.emplace_back(1, 0);
    const std::vector<EdgeNote> notes = SelfLoops(vertex_notes);
    ExpectMatchesOracle(notes, 2, k);
    EXPECT_EQ(TrackerMasters(notes, 1, k)[0], k - 1);
  }
}

// Exact count ties go to the lower partition id, whether the lower id is
// the inline tally or an overflow one.
TEST(MasterTrackerTest, ExactTiesGoToLowerPartition) {
  const PartitionId k = 8;
  const std::vector<EdgeNote> notes = SelfLoops({
      {0, 5}, {0, 2}, {0, 5}, {0, 2},          // inline 5 vs overflow 2
      {1, 2}, {1, 6}, {1, 6}, {1, 2},          // inline 2 vs overflow 6
      {2, 7}, {2, 4}, {2, 3}, {2, 3}, {2, 4},  // two overflow tallies tie
      {2, 7}});
  ExpectMatchesOracle(notes, 3, k);
  for (size_t chunk_size : kChunkSizes) {
    EXPECT_EQ(TrackerMasters(notes, 3, k, chunk_size),
              (std::vector<PartitionId>{2, 2, 3}));
  }
}

// Ids far apart with never-noted gaps in between: the gaps are hashed.
TEST(MasterTrackerTest, SparseIdsWithGaps) {
  const PartitionId k = 32;
  std::mt19937_64 rng(5);
  std::vector<std::pair<VertexId, PartitionId>> vertex_notes;
  for (VertexId v : {0u, 7u, 1000u, 65535u, 250000u}) {
    for (int i = 0; i < 40; ++i) {
      vertex_notes.emplace_back(v, static_cast<PartitionId>(rng() % 4));
    }
  }
  const std::vector<EdgeNote> notes = SelfLoops(vertex_notes);
  ExpectMatchesOracle(notes, 250001, k);
  const std::vector<PartitionId> masters = TrackerMasters(notes, 250001, k);
  EXPECT_EQ(masters[500], static_cast<PartitionId>(HashU64(500) % k));
  EXPECT_LT(masters[65535], 4u);
}

// Derive past the tracked range hashes the tail; a shorter range simply
// truncates, so overflow tallies of ids beyond it are ignored.
TEST(MasterTrackerTest, DeriveRangeDiffersFromTrackedRange) {
  const PartitionId k = 16;
  std::mt19937_64 rng(3);
  const std::vector<EdgeNote> notes = RandomEdges(rng, 2500, 100, k);
  for (VertexId n : {0u, 1u, 50u, 100u, 101u, 5000u}) {
    ExpectMatchesOracle(notes, n, k);
    ExpectMatchesOracle(notes, n, k, /*reserve=*/100);
  }
}

// No chunk at all, or only empty ones: every id is hashed, and no tally
// thread is left behind.
TEST(MasterTrackerTest, ZeroChunksHashEveryId) {
  for (PartitionId k : {1u, 16u, 257u}) {
    const std::vector<PartitionId> expected = {
        static_cast<PartitionId>(HashU64(0) % k),
        static_cast<PartitionId>(HashU64(1) % k),
        static_cast<PartitionId>(HashU64(2) % k)};
    MasterTracker untouched;
    EXPECT_EQ(untouched.Derive(3, k), expected);
    MasterTracker empty_chunks(3);
    empty_chunks.NoteChunk({}, {});
    empty_chunks.NoteChunk({}, {});
    EXPECT_EQ(empty_chunks.Derive(3, k), expected);
    EXPECT_EQ(OracleMasters({}, 3, k), expected);
  }
}

// Chunks noted after a Derive are folded on a fresh tally thread; the next
// Derive counts every note of both rounds.
TEST(MasterTrackerTest, NotesAfterDeriveAreCounted) {
  std::mt19937_64 rng(17);
  const PartitionId k = 257;
  const std::vector<EdgeNote> first = RandomEdges(rng, 3000, 300, k);
  const std::vector<EdgeNote> second = RandomEdges(rng, 3000, 300, k);
  std::vector<EdgeNote> both = first;
  both.insert(both.end(), second.begin(), second.end());
  MasterTracker tracker;
  NoteInChunks(tracker, first, 7);
  EXPECT_EQ(tracker.Derive(300, k), OracleMasters(first, 300, k));
  NoteInChunks(tracker, second, 33);
  EXPECT_EQ(tracker.Derive(300, k), OracleMasters(both, 300, k));
}

// A tracker dropped with chunks still queued (an early error return in a
// RunOnSource) folds them and joins its thread instead of hanging.
TEST(MasterTrackerTest, DestroyedWithQueuedChunks) {
  std::mt19937_64 rng(23);
  const std::vector<EdgeNote> notes = RandomEdges(rng, 20000, 5000, 32);
  for (size_t chunk_size : kChunkSizes) {
    MasterTracker tracker;
    NoteInChunks(tracker, notes, chunk_size);
  }
}

// The winner depends only on the multiset of notes: a permuted arrival
// order changes which partition sits inline, never the masters.
TEST(MasterTrackerTest, PermutedNotesGiveSameMasters) {
  std::mt19937_64 rng(41);
  for (PartitionId k : {3u, 32u, 128u, 257u}) {
    std::vector<EdgeNote> notes = RandomEdges(rng, 10000, 300, k);
    const std::vector<PartitionId> expected = TrackerMasters(notes, 300, k);
    for (size_t chunk_size : {size_t{1}, size_t{7}, size_t{0}}) {
      std::shuffle(notes.begin(), notes.end(), rng);
      EXPECT_EQ(TrackerMasters(notes, 300, k, chunk_size), expected)
          << "k=" << k << " chunk=" << chunk_size;
    }
  }
}

// SynopsisBytes reports the allocated arrays: a presized tracker counts
// its inline array before any note, and spilled tallies and the queue
// buffer a chunk was copied into add to it.
TEST(MasterTrackerTest, SynopsisBytesCountsAllocations) {
  EXPECT_EQ(MasterTracker().SynopsisBytes(), 0u);
  MasterTracker tracker(1000);
  const uint64_t presized = tracker.SynopsisBytes();
  EXPECT_GE(presized, 1000u * (sizeof(PartitionId) + sizeof(uint32_t)));
  std::vector<EdgeNote> notes;
  for (PartitionId p = 0; p < 100; ++p) notes.push_back({0, 1, p});
  NoteInChunks(tracker, notes, 0);
  EXPECT_GE(tracker.SynopsisBytes(),
            presized + 100 * (2 * sizeof(VertexId) + sizeof(PartitionId)));
}

}  // namespace
}  // namespace sgp
