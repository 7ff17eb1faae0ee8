// ScoreCore suite: the bit-packed membership structures, the batched and
// SIMD scoring kernels against their scalar references, and end-to-end
// scalar-vs-batched-vs-simd equivalence for every partitioner family —
// sequential, sharded parallel, and the vertex-discovering ingest path.
// The faster modes are only allowed to be faster, never different
// (DESIGN.md §Score core). The SIMD sweeps run on every ISA tier the
// host supports (the portable omp-simd twin always, AVX2 when present),
// so one test binary pins tier-vs-tier agreement too.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <vector>

#include <gtest/gtest.h>
#include "common/dense_bitset.h"
#include "graph/datasets.h"
#include "partition/edgecut/parallel_streaming.h"
#include "partition/partitioner.h"
#include "partition/score_core.h"
#include "partition/state.h"
#include "partition/stream_ingest.h"
#include "partition/vertexcut/replica_state.h"
#include "stream/source.h"

namespace sgp {
namespace {

// Every ISA tier the host can execute: kPortable always, kAvx2 when the
// CPU has it. Forcing an unavailable tier is also legal (the kernels
// degrade to portable), so the sweeps exercise both enumerated tiers.
std::vector<score::SimdTier> AvailableTiers() {
  std::vector<score::SimdTier> tiers = {score::SimdTier::kPortable};
  if (score::SimdTierAvailable(score::SimdTier::kAvx2)) {
    tiers.push_back(score::SimdTier::kAvx2);
  }
  return tiers;
}

TEST(DenseBitsetTest, SetTestResetPopcount) {
  DenseBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.num_words(), 3u);
  EXPECT_EQ(b.Popcount(), 0u);
  for (uint64_t i : {0u, 63u, 64u, 127u, 129u}) {
    EXPECT_FALSE(b.Test(i));
    b.Set(i);
    EXPECT_TRUE(b.Test(i));
  }
  EXPECT_EQ(b.Popcount(), 5u);
  b.Reset(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Popcount(), 4u);
  b.Clear();
  EXPECT_EQ(b.Popcount(), 0u);
}

TEST(DenseBitsetTest, ResizeExposesZeroBits) {
  DenseBitset b(10);
  b.Set(9);
  b.Resize(200);
  EXPECT_TRUE(b.Test(9));
  for (uint64_t i = 10; i < 200; ++i) EXPECT_FALSE(b.Test(i));
}

TEST(BitMatrixTest, RowsAreIndependentWordSpans) {
  BitMatrix m(3, 70);  // two words per row
  EXPECT_EQ(m.words_per_row(), 2u);
  m.Set(0, 0);
  m.Set(1, 69);
  m.Set(2, 64);
  EXPECT_TRUE(m.Test(0, 0));
  EXPECT_FALSE(m.Test(0, 69));
  EXPECT_TRUE(m.Test(1, 69));
  EXPECT_EQ(m.Row(1)[1], uint64_t{1} << 5);
  EXPECT_EQ(m.Row(0)[1], 0u);
  m.ClearRow(1);
  EXPECT_FALSE(m.Test(1, 69));
  EXPECT_TRUE(m.Test(2, 64));
}

TEST(BitMatrixTest, EnsureRowsGrowsZeroed) {
  BitMatrix m(1, 10);
  m.Set(0, 3);
  m.EnsureRows(5);
  EXPECT_EQ(m.rows(), 5u);
  EXPECT_TRUE(m.Test(0, 3));
  for (uint64_t r = 1; r < 5; ++r) {
    for (uint32_t c = 0; c < 10; ++c) EXPECT_FALSE(m.Test(r, c));
  }
}

TEST(BitMatrixTest, CacheBlockedLayout) {
  // Stride policy: power of two up to a full 8-word cache line, whole
  // lines beyond; words_per_row() stays the logical ceil(cols/64).
  const struct {
    uint32_t cols;
    uint64_t wpr;
    uint64_t stride;
  } cases[] = {{1, 1, 1},    {64, 1, 1},   {65, 2, 2},   {128, 2, 2},
               {129, 3, 4},  {256, 4, 4},  {257, 5, 8},  {512, 8, 8},
               {513, 9, 16}, {700, 11, 16}};
  for (const auto& c : cases) {
    BitMatrix m(5, c.cols);
    EXPECT_EQ(m.words_per_row(), c.wpr) << "cols=" << c.cols;
    EXPECT_EQ(m.row_stride(), c.stride) << "cols=" << c.cols;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.Row(0)) % 64, 0u)
        << "base must be cache-line aligned, cols=" << c.cols;
    // Bits survive growth and the realigned base stays aligned.
    m.Set(3, c.cols - 1);
    m.EnsureRows(100);
    EXPECT_TRUE(m.Test(3, c.cols - 1)) << "cols=" << c.cols;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.Row(0)) % 64, 0u)
        << "cols=" << c.cols;
    EXPECT_FALSE(m.Test(99, 0));
  }
}

// Growing one row at a time, the way a vertex-discovering stream grows its
// id space: bits survive, every new row (padding words included) reads
// zero, the base stays line-aligned, and the storage moves only
// O(log rows) times — the amortized-growth contract.
TEST(BitMatrixTest, RowAtATimeGrowthIsAmortized) {
  const uint64_t kRows = 100000;
  for (uint32_t cols : {10u, 65u, 129u, 257u, 700u}) {
    BitMatrix m(1, cols);
    const uint64_t* base = m.Row(0);
    uint64_t moves = 0;
    auto bit_of = [cols](uint64_t r) {
      return static_cast<uint32_t>((r * 7919) % cols);
    };
    m.Set(0, bit_of(0));
    for (uint64_t r = 1; r < kRows; ++r) {
      m.EnsureRows(r + 1);
      ASSERT_EQ(m.rows(), r + 1);
      if (m.Row(0) != base) {
        ++moves;
        base = m.Row(0);
        ASSERT_EQ(reinterpret_cast<uintptr_t>(base) % 64, 0u)
            << "cols=" << cols << " rows=" << r + 1;
      }
      const uint64_t* row = m.Row(r);
      for (uint64_t w = 0; w < m.row_stride(); ++w) {
        ASSERT_EQ(row[w], 0u) << "cols=" << cols << " new row " << r;
      }
      m.Set(r, bit_of(r));
    }
    for (uint64_t r = 0; r < kRows; ++r) {
      for (uint64_t w = 0; w < m.words_per_row(); ++w) {
        const uint32_t bit = bit_of(r);
        const uint64_t expected =
            w == bit / 64 ? uint64_t{1} << (bit % 64) : 0;
        ASSERT_EQ(m.Row(r)[w], expected) << "cols=" << cols << " row " << r;
      }
    }
    EXPECT_LE(moves, static_cast<uint64_t>(std::bit_width(kRows)) + 1)
        << "cols=" << cols;
  }
}

// A replica table grown vertex by vertex (the disk-ingest path) holds the
// same sets and the same bit-index rows as one presized to n.
TEST(ReplicaStateTest, GrownBitIndexMatchesPresized) {
  const VertexId n = 3000;
  for (PartitionId k : {10u, 65u, 257u}) {
    PartitionConfig cfg;
    cfg.k = k;
    PartitionState grown(cfg);
    grown.InitReplicas(0);
    grown.replicas().EnableBitIndex(k);
    PartitionState presized(cfg);
    presized.InitReplicas(n);
    presized.replicas().EnableBitIndex(k);
    std::mt19937_64 rng(k);
    for (VertexId u = 0; u < n; ++u) {
      grown.EnsureVertex(u);
      for (int i = 0; i < 3; ++i) {
        // Touch the new vertex and an earlier one, as an edge would.
        const VertexId w = static_cast<VertexId>(rng() % (u + 1));
        const PartitionId p = static_cast<PartitionId>(rng() % k);
        grown.replicas().Add(u, p);
        grown.replicas().Add(w, p);
        presized.replicas().Add(u, p);
        presized.replicas().Add(w, p);
      }
    }
    const ReplicaState& a = grown.replicas();
    const ReplicaState& b = presized.replicas();
    ASSERT_EQ(a.num_vertices(), b.num_vertices());
    ASSERT_EQ(a.words_per_row(), b.words_per_row());
    EXPECT_EQ(a.total_entries(), b.total_entries());
    for (VertexId u = 0; u < n; ++u) {
      const auto sa = a.Of(u);
      const auto sb = b.Of(u);
      ASSERT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin(), sb.end()))
          << "k=" << k << " u=" << u;
      ASSERT_TRUE(std::equal(a.RowWords(u), a.RowWords(u) + a.words_per_row(),
                             b.RowWords(u)))
          << "k=" << k << " u=" << u;
    }
  }
}

TEST(ReplicaStateTest, SpilledSetsAreSortedAndBinarySearchable) {
  ReplicaState rs(2);
  // Insert out of order, past the inline capacity.
  const std::vector<PartitionId> parts = {90, 3, 57, 120, 8, 41, 0};
  for (PartitionId p : parts) rs.Add(0, p);
  ASSERT_GT(parts.size(), ReplicaState::kInline);
  auto items = rs.Of(0);
  ASSERT_EQ(items.size(), parts.size());
  for (size_t i = 1; i < items.size(); ++i) {
    EXPECT_LT(items[i - 1], items[i]) << "spilled set must stay sorted";
  }
  for (PartitionId p : parts) EXPECT_TRUE(rs.Contains(0, p));
  for (PartitionId p : {1u, 58u, 127u}) EXPECT_FALSE(rs.Contains(0, p));
  // Idempotent re-adds don't grow the set.
  rs.Add(0, 57);
  EXPECT_EQ(rs.Of(0).size(), parts.size());
  EXPECT_TRUE(rs.Of(1).empty());
}

TEST(ReplicaStateTest, BitIndexMirrorsMembership) {
  const PartitionId k = 130;
  ReplicaState rs(3);
  rs.Add(0, 5);
  rs.Add(0, 129);
  rs.Add(1, 64);
  // Enabling on a populated table replays existing entries.
  rs.EnableBitIndex(k);
  auto row_matches = [&](VertexId u) {
    const uint64_t* row = rs.RowWords(u);
    for (PartitionId p = 0; p < k; ++p) {
      const bool bit = (row[p >> 6] >> (p & 63)) & 1u;
      if (bit != rs.Contains(u, p)) return false;
    }
    return true;
  };
  EXPECT_TRUE(row_matches(0));
  EXPECT_TRUE(row_matches(1));
  EXPECT_TRUE(row_matches(2));
  // Later adds and vertex growth keep both views in sync.
  rs.Add(2, 7);
  rs.EnsureVertex(10);
  rs.Add(10, 99);
  for (VertexId u : {0u, 1u, 2u, 10u}) EXPECT_TRUE(row_matches(u));
  // Spill vertex 0 past the inline capacity.
  for (PartitionId p : {20u, 40u, 60u, 80u, 100u}) rs.Add(0, p);
  EXPECT_TRUE(row_matches(0));
  rs.Clear(0);
  EXPECT_TRUE(row_matches(0));
  EXPECT_TRUE(rs.Of(0).empty());
}

// ---------------------------------------------------------------------
// Kernel properties: batched == scalar on randomized states, including
// capacity masking and tie-breaks.
// ---------------------------------------------------------------------

TEST(ScoreKernelTest, GreedyBatchedMatchesScalar) {
  std::mt19937_64 rng(7);
  for (PartitionId k : {1u, 3u, 64u, 65u, 128u, 130u}) {
    std::vector<uint32_t> counts(k);
    std::vector<uint64_t> loads(k);
    std::vector<double> weights(k), capacity(k), scores(k);
    for (int trial = 0; trial < 200; ++trial) {
      for (PartitionId i = 0; i < k; ++i) {
        counts[i] = rng() % 4;  // small range forces score ties
        loads[i] = rng() % 6;
        weights[i] = 1.0 + 0.5 * (rng() % 3);
        // Tight capacities force masked candidates (and sometimes all-full).
        capacity[i] = static_cast<double>(rng() % 8);
      }
      for (bool ldg : {true, false}) {
        score::GreedyObjective obj;
        obj.ldg = ldg;
        obj.alpha = 1.25;
        obj.gamma = 1.5;
        obj.sqrt_form = true;
        uint64_t ties_a = 0, ties_b = 0;
        const PartitionId a =
            score::GreedyPickScalar(k, counts.data(), loads.data(),
                                    weights.data(), capacity.data(), obj,
                                    &ties_a);
        const PartitionId b =
            score::GreedyPickBatched(k, counts.data(), loads.data(),
                                     weights.data(), capacity.data(), obj,
                                     scores.data(), &ties_b);
        ASSERT_EQ(a, b) << "k=" << k << " trial=" << trial << " ldg=" << ldg;
      }
    }
  }
}

TEST(ScoreKernelTest, GingerBatchedMatchesScalar) {
  std::mt19937_64 rng(11);
  for (PartitionId k : {1u, 3u, 64u, 130u}) {
    std::vector<uint32_t> counts(k);
    std::vector<double> combined(k), scores(k);
    for (int trial = 0; trial < 200; ++trial) {
      for (PartitionId i = 0; i < k; ++i) {
        counts[i] = rng() % 4;
        combined[i] = static_cast<double>(rng() % 10);
      }
      const double cap = static_cast<double>(rng() % 12);
      uint64_t ties_a = 0, ties_b = 0;
      const PartitionId a = score::GingerPickScalar(
          k, counts.data(), combined.data(), cap, 1.5, 1.5, &ties_a);
      const PartitionId b = score::GingerPickBatched(
          k, counts.data(), combined.data(), cap, 1.5, 1.5, scores.data(),
          &ties_b);
      ASSERT_EQ(a, b) << "k=" << k << " trial=" << trial;
    }
  }
}

TEST(ScoreKernelTest, HdrfBatchedMatchesContainsProbes) {
  std::mt19937_64 rng(13);
  for (PartitionId k : {1u, 3u, 64u, 65u, 130u}) {
    const uint64_t words = (static_cast<uint64_t>(k) + 63) / 64;
    std::vector<double> effective(k);
    std::vector<uint64_t> loads(k);
    std::vector<uint64_t> row_u(words), row_v(words);
    for (int trial = 0; trial < 200; ++trial) {
      for (PartitionId i = 0; i < k; ++i) {
        loads[i] = rng() % 5;
        effective[i] = static_cast<double>(loads[i]);
      }
      for (uint64_t w = 0; w < words; ++w) {
        row_u[w] = rng();
        row_v[w] = rng();
      }
      // Mask bits at or above k, as the BitMatrix guarantees.
      if (k % 64 != 0) {
        const uint64_t mask = (uint64_t{1} << (k % 64)) - 1;
        row_u[words - 1] &= mask;
        row_v[words - 1] &= mask;
      }
      const double theta_u = 0.25, theta_v = 0.75, lambda = 1.1;
      double max_load, spread;
      score::EffectiveSpread(effective.data(), k, &max_load, &spread);
      uint64_t ties = 0, hits = 0;
      const PartitionId got = score::HdrfPickBatched(
          k, effective.data(), loads.data(), {row_u.data(), nullptr},
          {row_v.data(), nullptr}, theta_u, theta_v, lambda, max_load,
          spread, &ties, &hits);
      // Reference: the pre-refactor per-candidate probe loop.
      PartitionId best = 0;
      double best_score = score::kNegInf;
      auto test = [](const std::vector<uint64_t>& row, PartitionId p) {
        return (row[p >> 6] >> (p & 63)) & 1u;
      };
      for (PartitionId i = 0; i < k; ++i) {
        double g = 0;
        if (test(row_u, i)) g += 1.0 + theta_v;
        if (test(row_v, i)) g += 1.0 + theta_u;
        const double sc = g + lambda * (max_load - effective[i]) / spread;
        if (sc > best_score) {
          best_score = sc;
          best = i;
        } else if (sc == best_score && loads[i] < loads[best]) {
          best = i;
        }
      }
      ASSERT_EQ(got, best) << "k=" << k << " trial=" << trial;
    }
  }
}

// ---------------------------------------------------------------------
// SIMD tier: randomized scalar-vs-batched-vs-simd sweeps at awkward k —
// below one lane group, one word ± one, and the multi-word regime —
// with and without heterogeneous capacities, on every available tier.
// ---------------------------------------------------------------------

TEST(ScoreKernelTest, GreedySimdMatchesScalarAtAwkwardK) {
  std::mt19937_64 rng(17);
  for (PartitionId k : {3u, 63u, 64u, 65u, 128u}) {
    std::vector<uint32_t> counts(k);
    std::vector<uint64_t> loads(k);
    std::vector<double> weights(k), capacity(k), scores(k);
    for (int trial = 0; trial < 200; ++trial) {
      const bool hetero = trial % 2 == 1;
      for (PartitionId i = 0; i < k; ++i) {
        counts[i] = rng() % 4;  // small range forces score ties
        loads[i] = rng() % 6;
        weights[i] = hetero ? 1.0 + 0.5 * (rng() % 3) : 1.0;
        // Tight capacities force masked candidates (and sometimes
        // all-full, where every mode must return kInvalidPartition).
        capacity[i] = 1.0 + static_cast<double>(rng() % 7);
      }
      for (bool ldg : {true, false}) {
        score::GreedyObjective obj;
        obj.ldg = ldg;
        obj.alpha = 1.25;
        obj.gamma = 1.5;
        obj.sqrt_form = true;
        uint64_t ties = 0;
        const PartitionId want =
            score::GreedyPickScalar(k, counts.data(), loads.data(),
                                    weights.data(), capacity.data(), obj,
                                    &ties);
        for (score::SimdTier tier : AvailableTiers()) {
          const PartitionId got = score::GreedyPickSimd(
              tier, k, counts.data(), loads.data(), weights.data(),
              capacity.data(), obj, scores.data());
          ASSERT_EQ(got, want)
              << "k=" << k << " trial=" << trial << " ldg=" << ldg
              << " tier=" << score::SimdTierName(tier);
        }
      }
    }
  }
}

TEST(ScoreKernelTest, GingerSimdMatchesScalarAtAwkwardK) {
  std::mt19937_64 rng(19);
  for (PartitionId k : {3u, 63u, 64u, 65u, 128u}) {
    std::vector<uint32_t> counts(k);
    std::vector<double> combined(k), scores(k);
    for (int trial = 0; trial < 200; ++trial) {
      for (PartitionId i = 0; i < k; ++i) {
        counts[i] = rng() % 4;
        combined[i] = static_cast<double>(rng() % 10);
      }
      const double cap = 1.0 + static_cast<double>(rng() % 11);
      uint64_t ties = 0;
      const PartitionId want = score::GingerPickScalar(
          k, counts.data(), combined.data(), cap, 1.5, 1.5, &ties);
      for (score::SimdTier tier : AvailableTiers()) {
        const PartitionId got = score::GingerPickSimd(
            tier, k, counts.data(), combined.data(), cap, 1.5, 1.5,
            scores.data());
        ASSERT_EQ(got, want) << "k=" << k << " trial=" << trial
                             << " tier=" << score::SimdTierName(tier);
      }
    }
  }
}

TEST(ScoreKernelTest, HdrfSimdMatchesBatchedAtAwkwardK) {
  std::mt19937_64 rng(23);
  for (PartitionId k : {3u, 63u, 64u, 65u, 128u}) {
    const uint64_t words = (static_cast<uint64_t>(k) + 63) / 64;
    std::vector<double> effective(k), scores(k);
    std::vector<uint64_t> loads(k);
    std::vector<uint64_t> row_u(words), row_v(words);
    for (int trial = 0; trial < 200; ++trial) {
      for (PartitionId i = 0; i < k; ++i) {
        loads[i] = rng() % 5;
        effective[i] = static_cast<double>(loads[i]);
      }
      for (uint64_t w = 0; w < words; ++w) {
        row_u[w] = rng();
        row_v[w] = rng();
      }
      if (k % 64 != 0) {
        const uint64_t mask = (uint64_t{1} << (k % 64)) - 1;
        row_u[words - 1] &= mask;
        row_v[words - 1] &= mask;
      }
      const double theta_u = 0.25, theta_v = 0.75, lambda = 1.1;
      double max_load, spread;
      score::EffectiveSpread(effective.data(), k, &max_load, &spread);
      uint64_t ties = 0, want_hits = 0;
      const PartitionId want = score::HdrfPickBatched(
          k, effective.data(), loads.data(), {row_u.data(), nullptr},
          {row_v.data(), nullptr}, theta_u, theta_v, lambda, max_load,
          spread, &ties, &want_hits);
      for (score::SimdTier tier : AvailableTiers()) {
        uint64_t got_hits = 0;
        const PartitionId got = score::HdrfPickSimd(
            tier, k, effective.data(), loads.data(), {row_u.data(), nullptr},
            {row_v.data(), nullptr}, theta_u, theta_v, lambda, max_load,
            spread, scores.data(), &got_hits);
        ASSERT_EQ(got, want) << "k=" << k << " trial=" << trial
                             << " tier=" << score::SimdTierName(tier);
        // The popcount accounting must be ISA-independent too.
        ASSERT_EQ(got_hits, want_hits)
            << "k=" << k << " trial=" << trial
            << " tier=" << score::SimdTierName(tier);
      }
    }
  }
}

TEST(ScoreKernelTest, LeastLoadedSimdMatchesScalarAtAwkwardK) {
  std::mt19937_64 rng(29);
  for (PartitionId k : {3u, 63u, 64u, 65u, 128u}) {
    std::vector<uint64_t> loads(k);
    std::vector<double> weights(k), capacity(k), scores(k);
    for (int trial = 0; trial < 200; ++trial) {
      const bool hetero = trial % 2 == 1;
      for (PartitionId i = 0; i < k; ++i) {
        loads[i] = rng() % 6;  // collisions force effective-load ties
        weights[i] = hetero ? 1.0 + 0.5 * (rng() % 3) : 1.0;
        capacity[i] = 1.0 + static_cast<double>(rng() % 7);
      }
      const PartitionId want_room = score::LeastLoadedWithRoom(
          k, loads.data(), weights.data(), capacity.data());
      const PartitionId want_all =
          score::LeastLoadedAll(k, loads.data(), weights.data());
      for (score::SimdTier tier : AvailableTiers()) {
        ASSERT_EQ(score::LeastLoadedWithRoomSimd(tier, k, loads.data(),
                                                 weights.data(),
                                                 capacity.data(),
                                                 scores.data()),
                  want_room)
            << "k=" << k << " trial=" << trial
            << " tier=" << score::SimdTierName(tier);
        ASSERT_EQ(score::LeastLoadedAllSimd(tier, k, loads.data(),
                                            weights.data(), scores.data()),
                  want_all)
            << "k=" << k << " trial=" << trial
            << " tier=" << score::SimdTierName(tier);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Runtime dispatch: the env override forces the portable tier, forcing
// an unavailable tier degrades gracefully, and the end-to-end result is
// tier-independent.
// ---------------------------------------------------------------------

TEST(SimdDispatchTest, EnvOverrideForcesPortableTier) {
  ASSERT_TRUE(score::SimdTierAvailable(score::SimdTier::kPortable));
  setenv("SGP_FORCE_SCALAR_DISPATCH", "1", 1);
  EXPECT_EQ(score::ActiveSimdTier(), score::SimdTier::kPortable);
  // "0" and empty mean "not forced".
  setenv("SGP_FORCE_SCALAR_DISPATCH", "0", 1);
  const score::SimdTier unforced = score::ActiveSimdTier();
  unsetenv("SGP_FORCE_SCALAR_DISPATCH");
  EXPECT_EQ(score::ActiveSimdTier(), unforced);
  // Unforced dispatch picks the widest available tier.
  if (score::SimdTierAvailable(score::SimdTier::kAvx2)) {
    EXPECT_EQ(unforced, score::SimdTier::kAvx2);
  } else {
    EXPECT_EQ(unforced, score::SimdTier::kPortable);
  }
}

TEST(SimdDispatchTest, ForcedTiersAgreeEndToEnd) {
  // Force each enumerated tier through a full partitioner run — including
  // kAvx2 on hosts without AVX2, where the kernels must fall back to the
  // portable twin rather than fault — and require identical assignments.
  const Graph g = MakeDataset("twitter", 9);
  for (const char* algo : {"HDRF", "FNL", "HG"}) {
    PartitionConfig cfg;
    cfg.k = 65;
    cfg.seed = 7;
    cfg.score_mode = ScoreMode::kBatched;
    const Partitioning want = CreatePartitioner(algo)->Run(g, cfg);
    cfg.score_mode = ScoreMode::kSimd;
    const char* forced_values[] = {"1", nullptr};
    for (const char* forced : forced_values) {
      if (forced != nullptr) {
        setenv("SGP_FORCE_SCALAR_DISPATCH", forced, 1);
      } else {
        unsetenv("SGP_FORCE_SCALAR_DISPATCH");
      }
      Partitioning got = CreatePartitioner(algo)->Run(g, cfg);
      EXPECT_EQ(got.vertex_to_partition, want.vertex_to_partition)
          << algo << " forced=" << (forced ? forced : "<unset>");
      EXPECT_EQ(got.edge_to_partition, want.edge_to_partition)
          << algo << " forced=" << (forced ? forced : "<unset>");
    }
    unsetenv("SGP_FORCE_SCALAR_DISPATCH");
  }
}

TEST(ScoreKernelTest, LeastLoadedOverBitsTiesTowardLowerId) {
  const PartitionId k = 130;
  std::vector<uint64_t> loads(k, 5);
  std::vector<double> weights(k, 1.0);
  std::vector<uint64_t> row((k + 63) / 64, 0);
  auto set = [&](PartitionId p) { row[p >> 6] |= uint64_t{1} << (p & 63); };
  set(7);
  set(65);
  set(129);
  loads[65] = 2;
  loads[129] = 2;  // tie with 65 — lower id must win
  uint64_t hits = 0;
  EXPECT_EQ(score::LeastLoadedOverBits(k, loads.data(), weights.data(),
                                       {row.data(), nullptr}, &hits),
            65u);
  EXPECT_EQ(hits, 3u);
}

// ---------------------------------------------------------------------
// End-to-end: kScalar, kBatched and kSimd must produce byte-identical
// partitionings for every registered partitioner.
// ---------------------------------------------------------------------

TEST(ScoreModeEquivalenceTest, SequentialPartitioners) {
  const Graph g = MakeDataset("twitter", 10);
  for (const std::string& algo : PartitionerNames()) {
    for (PartitionId k : {3u, 65u}) {
      PartitionConfig cfg;
      cfg.k = k;
      cfg.seed = 42;
      cfg.score_mode = ScoreMode::kScalar;
      Partitioning scalar = CreatePartitioner(algo)->Run(g, cfg);
      for (ScoreMode mode : {ScoreMode::kBatched, ScoreMode::kSimd}) {
        cfg.score_mode = mode;
        Partitioning fast = CreatePartitioner(algo)->Run(g, cfg);
        EXPECT_EQ(scalar.vertex_to_partition, fast.vertex_to_partition)
            << algo << " k=" << k << " mode=" << ScoreModeName(mode);
        EXPECT_EQ(scalar.edge_to_partition, fast.edge_to_partition)
            << algo << " k=" << k << " mode=" << ScoreModeName(mode);
      }
    }
  }
}

TEST(ScoreModeEquivalenceTest, ShardedParallelDrivers) {
  const Graph g = MakeDataset("twitter", 10);
  for (ParallelAlgo algo : {ParallelAlgo::kLdg, ParallelAlgo::kFennel,
                            ParallelAlgo::kHdrf, ParallelAlgo::kPgg}) {
    for (uint32_t workers : {1u, 3u}) {
      for (PartitionId k : {8u, 65u}) {
        PartitionConfig cfg;
        cfg.k = k;
        cfg.seed = 42;
        ParallelStreamOptions options;
        options.num_streams = workers;
        options.sync_interval = 32;
        cfg.score_mode = ScoreMode::kScalar;
        ParallelStreamResult scalar =
            RunParallelStreaming(g, cfg, options, algo);
        for (ScoreMode mode : {ScoreMode::kBatched, ScoreMode::kSimd}) {
          cfg.score_mode = mode;
          ParallelStreamResult fast =
              RunParallelStreaming(g, cfg, options, algo);
          EXPECT_EQ(scalar.partitioning.vertex_to_partition,
                    fast.partitioning.vertex_to_partition)
              << ParallelAlgoName(algo) << " w=" << workers << " k=" << k
              << " mode=" << ScoreModeName(mode);
          EXPECT_EQ(scalar.partitioning.edge_to_partition,
                    fast.partitioning.edge_to_partition)
              << ParallelAlgoName(algo) << " w=" << workers << " k=" << k
              << " mode=" << ScoreModeName(mode);
        }
      }
    }
  }
}

TEST(ScoreModeEquivalenceTest, VertexDiscoveringIngest) {
  // The ingest path grows the id space (and the bit-index rows) as edges
  // arrive; both modes must still agree.
  const Graph g = MakeDataset("twitter", 10);
  for (PartitionId k : {3u, 65u}) {
    PartitionConfig cfg;
    cfg.k = k;
    cfg.seed = 42;
    cfg.ingest_chunk_size = 64;
    cfg.score_mode = ScoreMode::kScalar;
    InMemoryEdgeSource source_a(g, StreamOrder::kRandom, cfg.seed,
                                cfg.ingest_chunk_size);
    StreamIngestResult scalar =
        PartitionEdgeStream(source_a, StreamIngestAlgo::kHdrf, cfg);
    ASSERT_TRUE(scalar.ok);
    for (ScoreMode mode : {ScoreMode::kBatched, ScoreMode::kSimd}) {
      cfg.score_mode = mode;
      InMemoryEdgeSource source_b(g, StreamOrder::kRandom, cfg.seed,
                                  cfg.ingest_chunk_size);
      StreamIngestResult fast =
          PartitionEdgeStream(source_b, StreamIngestAlgo::kHdrf, cfg);
      ASSERT_TRUE(fast.ok);
      EXPECT_EQ(scalar.partitioning.edge_to_partition,
                fast.partitioning.edge_to_partition)
          << "k=" << k << " mode=" << ScoreModeName(mode);
      EXPECT_EQ(scalar.partitioning.vertex_to_partition,
                fast.partitioning.vertex_to_partition)
          << "k=" << k << " mode=" << ScoreModeName(mode);
    }
  }
}

}  // namespace
}  // namespace sgp
