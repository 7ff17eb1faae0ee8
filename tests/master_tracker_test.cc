// Differential suite for the streaming master tracker
// (partition/master_tracker.h): the flat inline-plus-overflow layout must
// derive exactly the masters of the straightforward vector-of-vectors
// tally it replaced, which lives on below as the oracle.
#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "common/hashing.h"
#include "common/types.h"
#include "partition/master_tracker.h"

namespace sgp {
namespace {

// The oracle: one heap vector of (partition, count) pairs per vertex and a
// linear find per note.
class ReferenceMasterTracker {
 public:
  void Note(VertexId v, PartitionId part) {
    if (v >= counts_.size()) counts_.resize(static_cast<size_t>(v) + 1);
    auto& vec = counts_[v];
    auto it = std::find_if(vec.begin(), vec.end(),
                           [part](const auto& pr) { return pr.first == part; });
    if (it == vec.end()) {
      vec.emplace_back(part, 1u);
    } else {
      ++it->second;
    }
  }

  std::vector<PartitionId> Derive(VertexId n, PartitionId k) const {
    std::vector<PartitionId> masters(n, kInvalidPartition);
    for (VertexId u = 0; u < n; ++u) {
      if (u >= counts_.size() || counts_[u].empty()) {
        masters[u] = static_cast<PartitionId>(HashU64(u) % k);
        continue;
      }
      auto best = counts_[u].front();
      for (const auto& pr : counts_[u]) {
        if (pr.second > best.second ||
            (pr.second == best.second && pr.first < best.first)) {
          best = pr;
        }
      }
      masters[u] = best.first;
    }
    return masters;
  }

 private:
  std::vector<std::vector<std::pair<PartitionId, uint32_t>>> counts_;
};

using Note = std::pair<VertexId, PartitionId>;

// Feeds `notes` to a fresh tracker (presized to `reserve` when nonzero)
// and to the oracle; both must derive the same masters for [0, n).
void ExpectMatchesOracle(const std::vector<Note>& notes, VertexId n,
                         PartitionId k, VertexId reserve = 0) {
  MasterTracker tracker = reserve > 0 ? MasterTracker(reserve) : MasterTracker();
  ReferenceMasterTracker oracle;
  for (const auto& [v, p] : notes) {
    tracker.Note(v, p);
    oracle.Note(v, p);
  }
  EXPECT_EQ(tracker.Derive(n, k), oracle.Derive(n, k))
      << "k=" << k << " n=" << n << " notes=" << notes.size();
}

std::vector<Note> RandomNotes(std::mt19937_64& rng, size_t count,
                              VertexId num_ids, PartitionId k) {
  std::vector<Note> notes(count);
  for (Note& note : notes) {
    note = {static_cast<VertexId>(rng() % num_ids),
            static_cast<PartitionId>(rng() % k)};
  }
  return notes;
}

TEST(MasterTrackerTest, RandomNotesMatchOracle) {
  std::mt19937_64 rng(13);
  for (PartitionId k : {1u, 3u, 32u, 128u}) {
    for (VertexId num_ids : {1u, 17u, 500u, 4000u}) {
      const std::vector<Note> notes = RandomNotes(rng, 20000, num_ids, k);
      ExpectMatchesOracle(notes, num_ids, k);
      ExpectMatchesOracle(notes, num_ids, k, /*reserve=*/num_ids);
    }
  }
}

// Edge-shaped streams: both endpoints of an edge are noted on the edge's
// partition, with a skewed (hub-heavy) vertex choice.
TEST(MasterTrackerTest, SkewedEdgeStreamsMatchOracle) {
  std::mt19937_64 rng(29);
  for (PartitionId k : {1u, 3u, 32u, 128u}) {
    std::vector<Note> notes;
    for (int i = 0; i < 30000; ++i) {
      const double r = std::uniform_real_distribution<double>(0, 1)(rng);
      const VertexId u = static_cast<VertexId>(2000 * r * r * r);
      const VertexId v = static_cast<VertexId>(rng() % 2000);
      const PartitionId p = static_cast<PartitionId>(rng() % k);
      notes.emplace_back(u, p);
      notes.emplace_back(v, p);
    }
    ExpectMatchesOracle(notes, 2000, k);
  }
}

// A hub noted on every partition, far past the single inline tally, with
// counts that make the last partition win.
TEST(MasterTrackerTest, HubOnEveryPartition) {
  for (PartitionId k : {3u, 32u, 128u}) {
    std::vector<Note> notes;
    for (PartitionId p = 0; p < k; ++p) {
      for (PartitionId c = 0; c <= p % 5; ++c) notes.emplace_back(0, p);
    }
    for (int extra = 0; extra < 5; ++extra) notes.emplace_back(0, k - 1);
    notes.emplace_back(1, 0);
    ExpectMatchesOracle(notes, 2, k);
    MasterTracker tracker;
    for (const auto& [v, p] : notes) tracker.Note(v, p);
    EXPECT_EQ(tracker.Derive(1, k)[0], k - 1);
  }
}

// Exact count ties go to the lower partition id, whether the lower id is
// the inline tally or an overflow one.
TEST(MasterTrackerTest, ExactTiesGoToLowerPartition) {
  const PartitionId k = 8;
  const std::vector<Note> notes = {
      {0, 5}, {0, 2}, {0, 5}, {0, 2},          // inline 5 vs overflow 2
      {1, 2}, {1, 6}, {1, 6}, {1, 2},          // inline 2 vs overflow 6
      {2, 7}, {2, 4}, {2, 3}, {2, 3}, {2, 4},  // two overflow tallies tie
      {2, 7}};
  ExpectMatchesOracle(notes, 3, k);
  MasterTracker tracker;
  for (const auto& [v, p] : notes) tracker.Note(v, p);
  EXPECT_EQ(tracker.Derive(3, k), (std::vector<PartitionId>{2, 2, 3}));
}

// Ids far apart with never-noted gaps in between: the gaps are hashed.
TEST(MasterTrackerTest, SparseIdsWithGaps) {
  const PartitionId k = 32;
  std::mt19937_64 rng(5);
  std::vector<Note> notes;
  for (VertexId v : {0u, 7u, 1000u, 65535u, 250000u}) {
    for (int i = 0; i < 40; ++i) {
      notes.emplace_back(v, static_cast<PartitionId>(rng() % 4));
    }
  }
  ExpectMatchesOracle(notes, 250001, k);
  MasterTracker tracker;
  for (const auto& [v, p] : notes) tracker.Note(v, p);
  const std::vector<PartitionId> masters = tracker.Derive(250001, k);
  EXPECT_EQ(masters[500], static_cast<PartitionId>(HashU64(500) % k));
  EXPECT_LT(masters[65535], 4u);
}

// Derive past the tracked range hashes the tail; a shorter range simply
// truncates, so overflow tallies of ids beyond it are ignored.
TEST(MasterTrackerTest, DeriveRangeDiffersFromTrackedRange) {
  const PartitionId k = 16;
  std::mt19937_64 rng(3);
  const std::vector<Note> notes = RandomNotes(rng, 5000, 100, k);
  for (VertexId n : {0u, 1u, 50u, 100u, 101u, 5000u}) {
    ExpectMatchesOracle(notes, n, k);
    ExpectMatchesOracle(notes, n, k, /*reserve=*/100);
  }
  MasterTracker empty;
  EXPECT_EQ(empty.Derive(3, k),
            (std::vector<PartitionId>{
                static_cast<PartitionId>(HashU64(0) % k),
                static_cast<PartitionId>(HashU64(1) % k),
                static_cast<PartitionId>(HashU64(2) % k)}));
}

// The winner depends only on the multiset of notes: a permuted arrival
// order changes which partition sits inline, never the masters.
TEST(MasterTrackerTest, PermutedNotesGiveSameMasters) {
  std::mt19937_64 rng(41);
  for (PartitionId k : {3u, 32u, 128u}) {
    std::vector<Note> notes = RandomNotes(rng, 20000, 300, k);
    MasterTracker first;
    for (const auto& [v, p] : notes) first.Note(v, p);
    const std::vector<PartitionId> expected = first.Derive(300, k);
    for (int trial = 0; trial < 3; ++trial) {
      std::shuffle(notes.begin(), notes.end(), rng);
      MasterTracker permuted;
      for (const auto& [v, p] : notes) permuted.Note(v, p);
      EXPECT_EQ(permuted.Derive(300, k), expected) << "k=" << k;
    }
  }
}

// SynopsisBytes reports the allocated arrays: a presized tracker counts
// its inline array before any note, and spilled tallies add to it.
TEST(MasterTrackerTest, SynopsisBytesCountsAllocations) {
  EXPECT_EQ(MasterTracker().SynopsisBytes(), 0u);
  MasterTracker tracker(1000);
  const uint64_t presized = tracker.SynopsisBytes();
  EXPECT_GE(presized, 1000u * (sizeof(PartitionId) + sizeof(uint32_t)));
  for (PartitionId p = 0; p < 100; ++p) tracker.Note(0, p);
  EXPECT_GT(tracker.SynopsisBytes(), presized);
}

}  // namespace
}  // namespace sgp
