// ScoreCore suite: the bit-packed membership structures, a differential
// suite of every production scoring kernel — the portable batched kernels
// on every host, the AVX2 kernels where the CPU has them — against the
// scalar oracles of tests/score_oracle.h, whole-stream HDRF and PGG runs
// against the oracle transitions, and fingerprint pins of every
// partitioner family (sequential, sharded parallel, vertex-discovering
// ingest) recorded when the scalar, batched and SIMD paths still ran side
// by side (DESIGN.md §6).
#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "common/dense_bitset.h"
#include "graph/datasets.h"
#include "partition/edgecut/parallel_streaming.h"
#include "partition/partitioner.h"
#include "partition/score_core.h"
#include "partition/state.h"
#include "partition/vertexcut/replica_state.h"
#include "stream/source.h"
#include "tests/score_oracle.h"
#include "tests/test_util.h"

namespace sgp {
namespace {

using testing::FingerprintHex;
using testing::PinnedFingerprint;

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
// Kernel differential suite: every production kernel against its oracle
// on seeded random inputs at k below one AVX2 lane group, around one and
// two membership words, and in the multi-word regime. Small value ranges
// force exact (score, load) ties; capacities mix "full", "load + 1
// exactly at capacity" (still has room) and slack, with whole trials
// where every partition is full.
// ---------------------------------------------------------------------

constexpr PartitionId kKernelKs[] = {1,  2,  3,   4,   5,   7,  63,
                                     64, 65, 127, 128, 129, 257};
constexpr int kTrials = 300;

enum class CapacityCase { kMixed, kAllFull, kExactlyAtCapacity };

CapacityCase CaseOf(int trial) {
  switch (trial % 5) {
    case 3:
      return CapacityCase::kAllFull;
    case 4:
      return CapacityCase::kExactlyAtCapacity;
    default:
      return CapacityCase::kMixed;
  }
}

// Per-partition capacity for load `load`: full (load + 1 exceeds it), room
// for exactly one more (load + 1 == capacity), or slack.
double CapacityFor(CapacityCase c, uint64_t load, std::mt19937_64& rng) {
  const double size = static_cast<double>(load);
  switch (c) {
    case CapacityCase::kAllFull:
      return size + 0.5;
    case CapacityCase::kExactlyAtCapacity:
      return size + 1.0;
    case CapacityCase::kMixed:
      break;
  }
  switch (rng() % 3) {
    case 0:
      return size + 0.5;
    case 1:
      return size + 1.0;
    default:
      return size + 1.0 + static_cast<double>(rng() % 4);
  }
}

// One endpoint's membership: a base bit row, an optional delta row, and
// the per-candidate truth the oracle probes. Bits at or above k stay
// clear, as the BitMatrix guarantees.
struct RandomRow {
  std::vector<uint64_t> base, delta;
  std::vector<bool> member;
  bool has_delta = false;

  RandomRow(PartitionId k, bool with_delta, std::mt19937_64& rng)
      : base((k + 63) / 64, 0), delta((k + 63) / 64, 0), member(k, false),
        has_delta(with_delta) {
    const uint64_t density = rng() % 4;  // 0: empty row … 3: dense
    for (PartitionId i = 0; i < k; ++i) {
      if (rng() % 4 < density) {
        base[i >> 6] |= uint64_t{1} << (i & 63);
        member[i] = true;
      }
      if (with_delta && rng() % 8 == 0) {
        delta[i >> 6] |= uint64_t{1} << (i & 63);
        member[i] = true;
      }
    }
  }

  score::MembershipRow Row() const {
    return {base.data(), has_delta ? delta.data() : nullptr};
  }
};

TEST(ScoreKernelTest, HdrfKernelsMatchOracle) {
  std::mt19937_64 rng(13);
  for (PartitionId k : kKernelKs) {
    std::vector<double> weights(k), effective(k);
    std::vector<uint64_t> loads(k);
    for (int trial = 0; trial < kTrials; ++trial) {
      const bool hetero = trial % 2 == 1;
      for (PartitionId i = 0; i < k; ++i) {
        loads[i] = rng() % 4;
        weights[i] = hetero ? 0.5 + 0.25 * static_cast<double>(rng() % 4) : 1;
        effective[i] = static_cast<double>(loads[i]) / weights[i];
      }
      const bool with_delta = trial % 3 == 0;
      const RandomRow ru(k, with_delta, rng), rv(k, with_delta, rng);
      const double du = 1.0 + static_cast<double>(rng() % 5);
      const double dv = 1.0 + static_cast<double>(rng() % 5);
      const double theta_u = du / (du + dv);
      const double theta_v = 1.0 - theta_u;
      const double lambda = trial % 4 == 0 ? 1.0 : 1.1;
      double max_load, spread;
      score::EffectiveSpread(effective.data(), k, &max_load, &spread);

      uint64_t want_hits = 0;
      const PartitionId want = oracle::HdrfPickScalar(
          k, effective.data(), loads.data(),
          [&](PartitionId i) { return ru.member[i]; },
          [&](PartitionId i) { return rv.member[i]; }, theta_u, theta_v,
          lambda, max_load, spread, &want_hits);

      uint64_t hits = 0;
      EXPECT_EQ(score::HdrfPickBatched(k, effective.data(), loads.data(),
                                       ru.Row(), rv.Row(), theta_u, theta_v,
                                       lambda, max_load, spread, &hits),
                want)
          << "batched k=" << k << " trial=" << trial;
      EXPECT_EQ(hits, want_hits) << "batched k=" << k << " trial=" << trial;
      if (score::avx2::Available()) {
        hits = 0;
        EXPECT_EQ(score::avx2::HdrfPick(k, effective.data(), loads.data(),
                                        ru.Row(), rv.Row(), theta_u, theta_v,
                                        lambda, max_load, spread, &hits),
                  want)
            << "avx2 k=" << k << " trial=" << trial;
        EXPECT_EQ(hits, want_hits) << "avx2 k=" << k << " trial=" << trial;
      }
    }
  }
}

TEST(ScoreKernelTest, GreedyKernelsMatchOracle) {
  std::mt19937_64 rng(7);
  for (PartitionId k : kKernelKs) {
    std::vector<uint32_t> counts(k);
    std::vector<uint64_t> loads(k);
    std::vector<double> weights(k), capacity(k), scores(k);
    for (int trial = 0; trial < kTrials; ++trial) {
      const bool hetero = trial % 2 == 1;
      const CapacityCase cap_case = CaseOf(trial);
      for (PartitionId i = 0; i < k; ++i) {
        counts[i] = rng() % 4;  // small range forces score ties
        loads[i] = rng() % 6;
        weights[i] = hetero ? 1.0 + 0.5 * static_cast<double>(rng() % 3) : 1;
        capacity[i] = CapacityFor(cap_case, loads[i], rng);
      }
      // LDG, sqrt-form FENNEL (γ = 1.5) and pow-form FENNEL (γ = 2).
      for (int form = 0; form < 3; ++form) {
        score::GreedyObjective obj;
        obj.ldg = form == 0;
        obj.alpha = 1.25;
        obj.gamma = form == 2 ? 2.0 : 1.5;
        obj.sqrt_form = form != 2;
        const PartitionId want = oracle::GreedyPickScalar(
            k, counts.data(), loads.data(), weights.data(), capacity.data(),
            obj);
        if (cap_case == CapacityCase::kAllFull) {
          ASSERT_EQ(want, kInvalidPartition);
        }
        EXPECT_EQ(score::GreedyPickBatched(k, counts.data(), loads.data(),
                                           weights.data(), capacity.data(),
                                           obj, scores.data()),
                  want)
            << "batched k=" << k << " trial=" << trial << " form=" << form;
        // Pow-form FENNEL has no AVX2 kernel; ScoreCore keeps it batched.
        if (score::avx2::Available() && obj.sqrt_form) {
          EXPECT_EQ(score::avx2::GreedyPick(k, counts.data(), loads.data(),
                                            weights.data(), capacity.data(),
                                            obj),
                    want)
              << "avx2 k=" << k << " trial=" << trial << " form=" << form;
        }
      }
    }
  }
}

TEST(ScoreKernelTest, GingerKernelsMatchOracle) {
  std::mt19937_64 rng(11);
  for (PartitionId k : kKernelKs) {
    std::vector<uint32_t> counts(k);
    std::vector<double> combined(k), scores(k);
    for (int trial = 0; trial < kTrials; ++trial) {
      const CapacityCase cap_case = CaseOf(trial);
      for (PartitionId i = 0; i < k; ++i) {
        counts[i] = rng() % 4;
        combined[i] = 0.5 * static_cast<double>(rng() % 10);
      }
      // The cap is compared with >=: a load exactly at it is full.
      double cap = 0.5 * static_cast<double>(rng() % 12);
      if (cap_case == CapacityCase::kAllFull) {
        cap = *std::min_element(combined.begin(), combined.end());
      } else if (cap_case == CapacityCase::kExactlyAtCapacity) {
        cap = combined[rng() % k];
      }
      const double alpha = 1.5, gamma = 1.5;
      const PartitionId want = oracle::GingerPickScalar(
          k, counts.data(), combined.data(), cap, alpha, gamma);
      if (cap_case == CapacityCase::kAllFull) {
        ASSERT_EQ(want, kInvalidPartition);
      }
      EXPECT_EQ(score::GingerPickBatched(k, counts.data(), combined.data(),
                                         cap, alpha, gamma, scores.data()),
                want)
          << "batched k=" << k << " trial=" << trial;
      if (score::avx2::Available()) {
        EXPECT_EQ(score::avx2::GingerPick(k, counts.data(), combined.data(),
                                          cap, alpha, gamma),
                  want)
            << "avx2 k=" << k << " trial=" << trial;
      }
    }
  }
}

TEST(ScoreKernelTest, LeastLoadedScansMatchOracle) {
  std::mt19937_64 rng(29);
  for (PartitionId k : kKernelKs) {
    std::vector<uint64_t> loads(k);
    std::vector<double> weights(k), capacity(k);
    for (int trial = 0; trial < kTrials; ++trial) {
      const bool hetero = trial % 2 == 1;
      const CapacityCase cap_case = CaseOf(trial);
      for (PartitionId i = 0; i < k; ++i) {
        loads[i] = rng() % 6;  // collisions force effective-load ties
        weights[i] = hetero ? 1.0 + 0.5 * static_cast<double>(rng() % 3) : 1;
        capacity[i] = CapacityFor(cap_case, loads[i], rng);
      }
      EXPECT_EQ(score::LeastLoadedWithRoom(k, loads.data(), weights.data(),
                                           capacity.data()),
                oracle::LeastLoadedWithRoomScalar(k, loads.data(),
                                                  weights.data(),
                                                  capacity.data()))
          << "k=" << k << " trial=" << trial;
      EXPECT_EQ(score::LeastLoadedAll(k, loads.data(), weights.data()),
                oracle::LeastLoadedAllScalar(k, loads.data(), weights.data()))
          << "k=" << k << " trial=" << trial;
    }
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
// Whole streams: the production HDRF and PGG partitioners against the
// oracle transitions of tests/score_oracle.h, edge for edge.
// ---------------------------------------------------------------------

TEST(ScoreOracleStreamTest, HdrfMatchesOracleTransition) {
  const Graph g = MakeDataset("twitter", 10);
  for (PartitionId k : {3u, 65u}) {
    PartitionConfig cfg;
    cfg.k = k;
    cfg.seed = 42;
    PartitionState state(cfg);
    state.InitDegreeTable(g.num_vertices());
    state.InitEffectiveLoads();
    state.InitReplicas(g.num_vertices());
    std::vector<PartitionId> want(g.num_edges(), kInvalidPartition);
    InMemoryEdgeSource source(g, cfg.order, cfg.seed);
    ForEachStreamItem(source, [&](const StreamEdge& e) {
      want[e.id] =
          oracle::PlaceHdrfEdgeScalar(state, e.src, e.dst, cfg.hdrf_lambda);
    });
    EXPECT_EQ(CreatePartitioner("HDRF")->Run(g, cfg).edge_to_partition, want)
        << "k=" << k;
  }
}

TEST(ScoreOracleStreamTest, PggMatchesOracleTransition) {
  const Graph g = MakeDataset("twitter", 10);
  for (PartitionId k : {3u, 65u}) {
    PartitionConfig cfg;
    cfg.k = k;
    cfg.seed = 42;
    PartitionState state(cfg);
    state.InitReplicas(g.num_vertices());
    state.InitDegreeTable(g.num_vertices());
    std::vector<PartitionId> want(g.num_edges(), kInvalidPartition);
    InMemoryEdgeSource source(g, cfg.order, cfg.seed);
    ForEachStreamItem(source, [&](const StreamEdge& e) {
      const PartitionId t = oracle::PickPggScalar(
          state, e.src, e.dst, g.Degree(e.src), g.Degree(e.dst));
      state.AddLoad(t);
      state.IncrementDegree(e.src);
      state.IncrementDegree(e.dst);
      state.replicas().Add(e.src, t);
      state.replicas().Add(e.dst, t);
      want[e.id] = t;
    });
    EXPECT_EQ(CreatePartitioner("PGG")->Run(g, cfg).edge_to_partition, want)
        << "k=" << k;
  }
}

// ---------------------------------------------------------------------
// Fingerprint pins (tests/golden/score_fingerprints.txt): the cells of
// the former scalar-vs-batched-vs-simd equivalence suite, each pinned to
// the assignment all three paths produced.
// ---------------------------------------------------------------------

TEST(ScoreFingerprintTest, SequentialPartitioners) {
  const Graph g = MakeDataset("twitter", 10);
  for (const std::string& algo : PartitionerNames()) {
    for (PartitionId k : {3u, 65u}) {
      PartitionConfig cfg;
      cfg.k = k;
      cfg.seed = 42;
      const std::string cell =
          "sequential " + algo + " k=" + std::to_string(k);
      EXPECT_EQ(FingerprintHex(CreatePartitioner(algo)->Run(g, cfg)),
                PinnedFingerprint(cell))
          << cell;
    }
  }
}

TEST(ScoreFingerprintTest, ShardedParallelDrivers) {
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
        const std::string cell = "parallel " +
                                 std::string(ParallelAlgoName(algo)) +
                                 " w=" + std::to_string(workers) +
                                 " k=" + std::to_string(k);
        EXPECT_EQ(FingerprintHex(
                      RunParallelStreaming(g, cfg, options, algo).partitioning),
                  PinnedFingerprint(cell))
            << cell;
      }
    }
  }
}

TEST(ScoreFingerprintTest, VertexDiscoveringIngest) {
  // The ingest path grows the id space (and the bit-index rows) as edges
  // arrive.
  const Graph g = MakeDataset("twitter", 10);
  for (PartitionId k : {3u, 65u}) {
    PartitionConfig cfg;
    cfg.k = k;
    cfg.seed = 42;
    cfg.ingest_chunk_size = 64;
    InMemoryEdgeSource source(g, StreamOrder::kRandom, cfg.seed,
                              cfg.ingest_chunk_size);
    const StreamRunResult r =
        CreatePartitioner("HDRF")->RunOnSource(source, cfg);
    ASSERT_TRUE(r.ok);
    const std::string cell = "ingest HDRF k=" + std::to_string(k);
    EXPECT_EQ(FingerprintHex(r.partitioning), PinnedFingerprint(cell)) << cell;
  }
}

}  // namespace
}  // namespace sgp
