// ScoreCore suite: the bit-packed membership structures, the memoised
// HDRF balance row against a fresh sweep, a differential suite of every
// production scoring kernel — the portable batched kernels on every
// host, the AVX2 kernels where the CPU has them — against the scalar
// oracles of tests/score_oracle.h, whole-stream HDRF and PGG runs
// against the oracle transitions, and fingerprint pins of every
// partitioner family (sequential, sharded parallel, vertex-discovering
// ingest) recorded when the scalar, batched and SIMD paths still ran side
// by side (DESIGN.md §6).
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "common/dense_bitset.h"
#include "common/telemetry.h"
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
// same rows as one presized to n.
TEST(ReplicaStateTest, GrownBitIndexMatchesPresized) {
  const VertexId n = 3000;
  for (PartitionId k : {10u, 65u, 257u}) {
    PartitionConfig cfg;
    cfg.k = k;
    PartitionState grown(cfg);
    grown.InitReplicas(0);
    PartitionState presized(cfg);
    presized.InitReplicas(n);
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
    const uint64_t wpr = (k + 63) / 64;
    for (VertexId u = 0; u < n; ++u) {
      ASSERT_TRUE(std::equal(a.RowWords(u), a.RowWords(u) + wpr,
                             b.RowWords(u)))
          << "k=" << k << " u=" << u;
    }
  }
}

// Differential test of the bit-row replica table against one
// std::set<PartitionId> per vertex, under seeded random Add / Clear /
// EnsureVertex sequences at k around the one-, two- and multi-word row
// widths (stride 1, 2, 4 and 8 words).
TEST(ReplicaStateTest, MatchesSetOracle) {
  for (PartitionId k : {1u, 63u, 64u, 65u, 128u, 129u, 257u}) {
    std::mt19937_64 rng(0x5eed0000u + k);
    ReplicaState rs(4, k);
    std::vector<std::set<PartitionId>> oracle(4);
    const uint64_t wpr = (k + 63) / 64;

    auto check_all = [&](int step) {
      for (VertexId u = 0; u < oracle.size(); ++u) {
        const std::set<PartitionId>& want = oracle[u];
        ASSERT_EQ(rs.Empty(u), want.empty())
            << "k=" << k << " step=" << step << " u=" << u;
        std::vector<PartitionId> got;
        rs.ForEach(u, [&](PartitionId p) { got.push_back(p); });
        ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                               want.end()))
            << "k=" << k << " step=" << step << " u=" << u;
        for (PartitionId p = 0; p < k; ++p) {
          ASSERT_EQ(rs.Contains(u, p), want.count(p) == 1)
              << "k=" << k << " step=" << step << " u=" << u << " p=" << p;
        }
        // Bits past k in the last logical word stay zero.
        const uint64_t* row = rs.RowWords(u);
        if (k % 64 != 0) {
          ASSERT_EQ(row[wpr - 1] >> (k % 64), 0u)
              << "k=" << k << " step=" << step << " u=" << u;
        }
        // Stride padding words between this row and the next stay zero.
        if (u + 1 < oracle.size()) {
          for (const uint64_t* w = row + wpr; w < rs.RowWords(u + 1); ++w) {
            ASSERT_EQ(*w, 0u) << "k=" << k << " step=" << step << " u=" << u;
          }
        }
      }
    };

    for (int step = 0; step < 3000; ++step) {
      const uint64_t op = rng() % 100;
      const VertexId n = static_cast<VertexId>(oracle.size());
      if (op < 80) {
        const VertexId u = static_cast<VertexId>(rng() % n);
        // Half the adds hit the row's edge bits (0, 63, 64, k - 1).
        const PartitionId edges[] = {0, 63, 64, k - 1};
        PartitionId p = (rng() & 1) ? edges[rng() % 4]
                                    : static_cast<PartitionId>(rng() % k);
        if (p >= k) p = k - 1;
        rs.Add(u, p);
        oracle[u].insert(p);
      } else if (op < 92) {
        const VertexId u = static_cast<VertexId>(rng() % n);
        rs.Clear(u);
        oracle[u].clear();
      } else {
        // Grow by one row most of the time, sometimes by a jump; a
        // request at or below the current size is a no-op.
        const uint64_t jump = rng() % 4 == 0 ? rng() % 64 : rng() % 2;
        const VertexId u = static_cast<VertexId>(n - 1 + jump);
        rs.EnsureVertex(u);
        if (u >= oracle.size()) oracle.resize(static_cast<size_t>(u) + 1);
        // Fresh rows start empty, whatever their storage held before.
        for (VertexId w = n; w < oracle.size(); ++w) {
          ASSERT_TRUE(rs.Empty(w)) << "k=" << k << " step=" << step;
          for (uint64_t i = 0; i < wpr; ++i) {
            ASSERT_EQ(rs.RowWords(w)[i], 0u) << "k=" << k << " step=" << step;
          }
        }
      }
      if (step % 100 == 0) check_all(step);
    }
    check_all(-1);
  }
}

// ---------------------------------------------------------------------
// The memoised HDRF balance row (BalanceRow, partition/state.h) against a
// fresh sweep: after every placement, the effective loads, row, max, min
// and spread must equal a recompute from the loads bit for bit.
// ---------------------------------------------------------------------

enum class LoadPattern {
  kHomogeneous,     // uniform random winners
  kHetero,          // the grid's weights 1 + 0.5·(i mod 4)
  kOneTakesAll,     // one partition takes every edge (depth-first road)
  kAllEqualStart,   // every partition starts at the same nonzero load
};

TEST(BalanceRowTest, MatchesFreshSweepAfterEveryPlacement) {
  for (LoadPattern pattern :
       {LoadPattern::kHomogeneous, LoadPattern::kHetero,
        LoadPattern::kOneTakesAll, LoadPattern::kAllEqualStart}) {
    for (PartitionId k : {1u, 2u, 3u, 64u, 65u, 257u}) {
      for (double lambda : {0.0, 1.1, 4.0}) {
        PartitionConfig cfg;
        cfg.k = k;
        cfg.hdrf_lambda = lambda;
        if (pattern == LoadPattern::kHetero) {
          cfg.capacity_weights.resize(k);
          for (PartitionId i = 0; i < k; ++i) {
            cfg.capacity_weights[i] = 1.0 + 0.5 * (i % 4);
          }
        }
        PartitionState state(cfg);
        if (pattern == LoadPattern::kAllEqualStart) {
          for (PartitionId p = 0; p < k; ++p) {
            for (int i = 0; i < 3; ++i) state.AddLoad(p);
          }
        }
        state.InitEffectiveLoads();
        std::mt19937_64 rng(k * 7 + static_cast<uint64_t>(pattern));
        const PartitionId hog = static_cast<PartitionId>(rng() % k);
        const std::string cell =
            "pattern=" + std::to_string(static_cast<int>(pattern)) +
            " k=" + std::to_string(k) + " lambda=" + std::to_string(lambda);

        auto check = [&](int step) {
          std::vector<double> eff(k), row(k);
          for (PartitionId i = 0; i < k; ++i) {
            eff[i] = static_cast<double>(state.load(i)) / state.weights()[i];
          }
          double max_load, spread;
          oracle::EffectiveSpread(eff.data(), k, &max_load, &spread);
          const double min_load = *std::min_element(eff.begin(), eff.end());
          for (PartitionId i = 0; i < k; ++i) {
            row[i] = lambda * (max_load - eff[i]) / spread;
          }
          const BalanceRow& b = state.balance();
          const size_t bytes = k * sizeof(double);
          ASSERT_EQ(std::memcmp(b.effective().data(), eff.data(), bytes), 0)
              << cell << " step=" << step;
          ASSERT_EQ(std::memcmp(b.row(), row.data(), bytes), 0)
              << cell << " step=" << step;
          const double got[] = {b.max_load(), b.min_load(), b.spread()};
          const double want[] = {max_load, min_load, spread};
          ASSERT_EQ(std::memcmp(got, want, sizeof(got)), 0)
              << cell << " step=" << step << " max " << got[0] << "/"
              << want[0] << " min " << got[1] << "/" << want[1];
          // The min mask exists only for unit weights.
          const std::vector<double>& weights = state.weights();
          if (std::any_of(weights.begin(), weights.end(),
                          [](double x) { return x != 1.0; })) {
            ASSERT_EQ(b.unit_min_mask(), nullptr) << cell;
            return;
          }
          ASSERT_NE(b.unit_min_mask(), nullptr) << cell;
          for (PartitionId w = 0; w < (k + 63) / 64; ++w) {
            uint64_t want_word = 0;
            for (PartitionId i = w * 64; i < std::min(k, w * 64 + 64); ++i) {
              if (eff[i] == min_load) want_word |= uint64_t{1} << (i & 63);
            }
            ASSERT_EQ(b.unit_min_mask()[w], want_word)
                << cell << " step=" << step << " word=" << w;
          }
        };

        check(-1);
        const int steps = 6 * static_cast<int>(k) + 64;
        for (int step = 0; step < steps; ++step) {
          const PartitionId p = pattern == LoadPattern::kOneTakesAll
                                    ? hog
                                    : static_cast<PartitionId>(rng() % k);
          state.AddLoadUpdatingEffective(p);
          check(step);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

// The greedy objectives the term row serves: LDG, and FENNEL at γ = 1
// (a flat penalty), 1.5 (the square-root form) and 2 (the pow form).
std::vector<GreedyObjective> GreedyObjectives(double alpha) {
  std::vector<GreedyObjective> out;
  out.push_back({/*ldg=*/true, alpha, 1.5});
  for (double gamma : {1.0, 1.5, 2.0}) {
    out.push_back({/*ldg=*/false, alpha, gamma});
  }
  return out;
}

std::string ObjectiveName(const GreedyObjective& obj) {
  return obj.ldg ? "LDG" : "FNL(gamma=" + std::to_string(obj.gamma) + ")";
}

// The greedy term row against scores recomputed from scratch
// (oracle::GreedyScore) after every placement and removal: LDG and FENNEL
// at γ ∈ {1, 1.5, 2}, homogeneous and heterogeneous weights, and
// capacities small enough that partitions fill up and pass them.
TEST(GreedyTermRowTest, MatchesFreshScoresAfterEveryLoadChange) {
  for (PartitionId k : {1u, 2u, 3u, 5u, 64u, 65u, 257u}) {
    for (bool hetero : {false, true}) {
      for (const GreedyObjective& obj : GreedyObjectives(0.7)) {
        PartitionConfig cfg;
        cfg.k = k;
        if (hetero) {
          cfg.capacity_weights.resize(k);
          for (PartitionId i = 0; i < k; ++i) {
            cfg.capacity_weights[i] = 1.0 + 0.5 * (i % 4);
          }
        }
        PartitionState state(cfg);
        // C_i = max(1, 2·w_i): a partition is full after two or three
        // placements, and random placements carry many past it.
        state.InitCapacities(2 * static_cast<uint64_t>(k), 1.0);
        state.InitGreedyTerms(obj);
        std::mt19937_64 rng(k * 13 + (hetero ? 1 : 0));
        const std::string cell = "k=" + std::to_string(k) +
                                 (hetero ? " hetero " : " uniform ") +
                                 ObjectiveName(obj);

        uint64_t full_seen = 0;
        auto check = [&](int step) {
          const GreedyTermRow& row = state.greedy_terms();
          for (PartitionId i = 0; i < k; ++i) {
            const double size = static_cast<double>(state.load(i));
            const double cap = state.capacity(i);
            const bool full = size + 1.0 > cap;
            full_seen += full;
            ASSERT_EQ(row.room()[i], full ? score::kNegInf : 0.0)
                << cell << " step=" << step << " i=" << i;
            for (uint32_t count : {0u, 1u, 5u}) {
              const double want =
                  full ? score::kNegInf
                       : oracle::GreedyScore(obj, count, size, cap,
                                             state.weights()[i]);
              const double c = static_cast<double>(count);
              const double got =
                  (obj.ldg ? c * row.terms()[i] : c - row.terms()[i]) +
                  row.room()[i];
              ASSERT_EQ(got, want) << cell << " step=" << step << " i=" << i
                                   << " count=" << count;
            }
          }
        };

        check(-1);
        const int steps = 6 * static_cast<int>(k) + 64;
        for (int step = 0; step < steps; ++step) {
          const PartitionId p = static_cast<PartitionId>(rng() % k);
          // Two placements for each removal, so loads climb past C_i.
          if (rng() % 3 == 0 && state.load(p) > 0) {
            state.RemoveLoadUpdatingTerms(p);
          } else {
            state.AddLoadUpdatingTerms(p);
          }
          check(step);
          if (HasFatalFailure()) return;
        }
        EXPECT_GT(full_seen, 0u) << cell;
      }
    }
  }
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

  // The empty row.
  explicit RandomRow(PartitionId k)
      : base((k + 63) / 64, 0), delta((k + 63) / 64, 0), member(k, false) {}

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

  void Set(PartitionId i) {
    base[i >> 6] |= uint64_t{1} << (i & 63);
    member[i] = true;
  }

  score::MembershipRow Row() const {
    return {base.data(), has_delta ? delta.data() : nullptr};
  }
};

// HDRF input patterns of the kernel differential suite.
enum class HdrfCase {
  kRandom,       // random loads and rows
  kAllEqual,     // equal effective loads, random rows: whole-row ties
  kAllTie,       // equal effective loads, empty rows: every score ties
  kInterleaved,  // equal loads, a few equal-g winners spread over lanes
};

HdrfCase HdrfCaseOf(int trial) {
  switch (trial % 6) {
    case 1:
      return HdrfCase::kAllEqual;
    case 2:
      return HdrfCase::kAllTie;
    case 4:
      return HdrfCase::kInterleaved;
    default:
      return HdrfCase::kRandom;
  }
}

// ScoreCore::PickHdrf over a caller's balance row, on the kernel the CPU
// selects: the production pick, sparse path and fallbacks included.
// `*hits` gets the bitset hits it counted.
PartitionId CorePickHdrf(PartitionId k, const BalanceRow& balance,
                         const uint64_t* loads, score::MembershipRow u_row,
                         score::MembershipRow v_row, double theta_u,
                         double theta_v, uint64_t* hits) {
  MetricsRegistry scratch;
  ScopedMetricsRegistry scoped(&scratch);
  PartitionConfig cfg;
  cfg.k = k;
  PartitionState state(cfg);
  ScoreCore core(state);
  const PartitionId best =
      core.PickHdrf(balance, loads, u_row, v_row, theta_u, theta_v);
  EXPECT_EQ(core.stats().candidates, k);
  *hits = core.stats().bitset_hits;
  return best;
}

TEST(ScoreKernelTest, HdrfKernelsMatchOracle) {
  std::mt19937_64 rng(13);
  for (PartitionId k : kKernelKs) {
    std::vector<double> weights(k), scores(k);
    std::vector<uint64_t> loads(k);
    for (int trial = 0; trial < kTrials; ++trial) {
      const HdrfCase hcase = HdrfCaseOf(trial);
      const bool hetero = hcase == HdrfCase::kRandom && trial % 2 == 1;
      const uint64_t common = rng() % 4;
      for (PartitionId i = 0; i < k; ++i) {
        loads[i] = hcase == HdrfCase::kRandom ? rng() % 4 : common;
        weights[i] = hetero ? 0.5 + 0.25 * static_cast<double>(rng() % 4) : 1;
      }
      const bool with_delta = trial % 3 == 0;
      RandomRow ru(k, with_delta, rng), rv(k, with_delta, rng);
      if (hcase == HdrfCase::kAllTie) {
        ru = RandomRow(k);
        rv = RandomRow(k);
      } else if (hcase == HdrfCase::kInterleaved) {
        // Two to five u-only members, at random ids and so in random
        // lanes: equal g, and equal load except where one is lightened.
        ru = RandomRow(k);
        rv = RandomRow(k);
        const uint64_t members = 2 + rng() % 4;
        for (uint64_t m = 0; m < members; ++m) {
          const PartitionId p = static_cast<PartitionId>(rng() % k);
          ru.Set(p);
          if (rng() % 3 == 0 && loads[p] > 0) --loads[p];
        }
      }
      const double du = 1.0 + static_cast<double>(rng() % 5);
      const double dv = 1.0 + static_cast<double>(rng() % 5);
      const double theta_u = du / (du + dv);
      const double theta_v = 1.0 - theta_u;
      for (double lambda : {0.0, 1.1, 4.0}) {
        // The kernels read the row the production helper builds; the
        // oracle scores from the effective loads with a fresh sweep.
        BalanceRow balance(lambda);
        balance.Reset(k, loads.data(), weights.data());
        const std::vector<double>& effective = balance.effective();
        double max_load, spread;
        oracle::EffectiveSpread(effective.data(), k, &max_load, &spread);

        uint64_t want_hits = 0;
        const PartitionId want = oracle::HdrfPickScalar(
            k, effective.data(), loads.data(),
            [&](PartitionId i) { return ru.member[i]; },
            [&](PartitionId i) { return rv.member[i]; }, theta_u, theta_v,
            lambda, max_load, spread, &want_hits);
        const std::string cell = "k=" + std::to_string(k) +
                                 " trial=" + std::to_string(trial) +
                                 " lambda=" + std::to_string(lambda);
        if (hcase == HdrfCase::kAllTie) {
          ASSERT_EQ(want, 0u) << cell;
        }

        uint64_t hits = 0;
        EXPECT_EQ(score::HdrfPickBatched(k, balance.row(), loads.data(),
                                         ru.Row(), rv.Row(), theta_u, theta_v,
                                         &hits),
                  want)
            << "batched " << cell;
        EXPECT_EQ(hits, want_hits) << "batched " << cell;
        if (score::avx2::Available()) {
          hits = 0;
          EXPECT_EQ(score::avx2::HdrfPick(k, balance.row(), loads.data(),
                                          ru.Row(), rv.Row(), theta_u,
                                          theta_v, scores.data(), &hits),
                    want)
              << "avx2 " << cell;
          EXPECT_EQ(hits, want_hits) << "avx2 " << cell;
        }
        EXPECT_EQ(CorePickHdrf(k, balance, loads.data(), ru.Row(), rv.Row(),
                               theta_u, theta_v, &hits),
                  want)
            << "core " << cell;
        EXPECT_EQ(hits, want_hits) << "core " << cell;
      }
    }
  }
}

// The sparse HDRF pick (score::HdrfPickSparse) against the oracle sweep
// on random states whose union A(u) ∪ A(v) holds 0..kSparseUnionMax
// partitions, or one more, which must not take the sparse path. Members
// come from base rows, from cluster-home delta rows, or from both. Loads
// in a narrow range tie the balance terms; λ = 0 ties every score outside
// the union, and λ = 1e17 makes b[i] absorb the g-term, so union members
// and outside partitions tie on score too. Two shapes must fall back to
// the sweep: every minimum-load partition inside the union, and non-unit
// weights, whose effective loads order the partitions against their raw
// loads (eff = 1/load), so the raw-load tie rule at λ = 0 disagrees with
// the minimum-effective-load candidate. The test (SparseOutside), the
// sparse pick and ScoreCore::PickHdrf, which joins them to the kernels,
// are each checked.
TEST(ScoreKernelTest, HdrfSparsePickMatchesSweep) {
  enum class Shape { kSparse, kMinInsideUnion, kNonUnitWeights };
  std::mt19937_64 rng(29);
  uint64_t sparse_picks = 0;
  for (PartitionId k : {1u, 3u, 64u, 65u, 128u, 257u}) {
    const PartitionId words = (k + 63) / 64;
    std::vector<uint64_t> loads(k);
    std::vector<double> weights(k);
    for (int trial = 0; trial < 240; ++trial) {
      const Shape shape = trial % 4 == 2   ? Shape::kMinInsideUnion
                          : trial % 4 == 3 ? Shape::kNonUnitWeights
                                           : Shape::kSparse;
      // Up to one member more than the sparse pick takes, for every shape.
      const PartitionId union_size = std::min<PartitionId>(
          k,
          static_cast<PartitionId>(trial / 4 % (score::kSparseUnionMax + 2)));
      // Distinct union members, each a replica of u, of v or of both,
      // from the base row, the delta row or both.
      std::vector<uint64_t> base_u(words, 0), delta_u(words, 0);
      std::vector<uint64_t> base_v(words, 0), delta_v(words, 0);
      std::vector<bool> in_u(k, false), in_v(k, false), member(k, false);
      auto set = [](std::vector<uint64_t>& row, PartitionId p) {
        row[p >> 6] |= uint64_t{1} << (p & 63);
      };
      for (PartitionId m = 0; m < union_size;) {
        const PartitionId p = static_cast<PartitionId>(rng() % k);
        if (member[p]) continue;
        member[p] = true;
        ++m;
        const uint64_t side = rng() % 3;  // u, v or both
        for (bool is_u : {true, false}) {
          if (side == (is_u ? 1u : 0u)) continue;
          const uint64_t from = rng() % 3;  // base, delta or both
          if (from != 1) set(is_u ? base_u : base_v, p);
          if (from != 0) set(is_u ? delta_u : delta_v, p);
          (is_u ? in_u : in_v)[p] = true;
        }
      }
      const bool with_delta = trial % 3 != 0;
      if (!with_delta) {
        // No delta rows: fold their bits into the base rows.
        for (PartitionId w = 0; w < words; ++w) {
          base_u[w] |= delta_u[w];
          base_v[w] |= delta_v[w];
        }
      }
      const score::MembershipRow row_u{base_u.data(),
                                       with_delta ? delta_u.data() : nullptr};
      const score::MembershipRow row_v{base_v.data(),
                                       with_delta ? delta_v.data() : nullptr};

      for (PartitionId i = 0; i < k; ++i) {
        loads[i] = 1 + rng() % 3;
        weights[i] = 1.0;
      }
      if (shape == Shape::kSparse && union_size < k) {
        // At least one minimum-load partition outside the union; members
        // and other outside partitions may share its load.
        PartitionId p;
        do {
          p = static_cast<PartitionId>(rng() % k);
        } while (member[p]);
        loads[p] = 0;
        for (PartitionId i = 0; i < k; ++i) {
          if (rng() % (member[i] ? 2 : 4) == 0) loads[i] = 0;
        }
      } else if (shape == Shape::kMinInsideUnion && union_size > 0) {
        // Every minimum-load partition is a union member: the first one
        // and, at random, the others.
        bool first = true;
        for (PartitionId i = 0; i < k; ++i) {
          if (member[i] && (first || rng() % 2 == 0)) loads[i] = 0;
          first = first && !member[i];
        }
      } else if (shape == Shape::kNonUnitWeights) {
        for (PartitionId i = 0; i < k; ++i) {
          weights[i] = static_cast<double>(loads[i] * loads[i]);
        }
      }
      const double du = 1.0 + static_cast<double>(rng() % 5);
      const double dv = 1.0 + static_cast<double>(rng() % 5);
      const double theta_u = du / (du + dv);
      const double theta_v = 1.0 - theta_u;

      for (double lambda : {0.0, 1.1, 1e6, 1e17}) {
        BalanceRow balance(lambda);
        balance.Reset(k, loads.data(), weights.data());
        const std::vector<double>& effective = balance.effective();
        double max_load, spread;
        oracle::EffectiveSpread(effective.data(), k, &max_load, &spread);
        uint64_t want_hits = 0;
        const PartitionId want = oracle::HdrfPickScalar(
            k, effective.data(), loads.data(),
            [&](PartitionId i) { return bool(in_u[i]); },
            [&](PartitionId i) { return bool(in_v[i]); }, theta_u, theta_v,
            lambda, max_load, spread, &want_hits);
        // The lowest-id minimum-load partition outside the union, if any.
        const uint64_t min_load = *std::min_element(loads.begin(), loads.end());
        PartitionId outside = kInvalidPartition;
        for (PartitionId i = 0; i < k && outside == kInvalidPartition; ++i) {
          if (!member[i] && loads[i] == min_load) outside = i;
        }
        const bool unit_weights =
            std::all_of(weights.begin(), weights.end(),
                        [](double w) { return w == 1.0; });
        const bool small = union_size <= score::kSparseUnionMax;
        const bool sparse =
            unit_weights && small && outside != kInvalidPartition;
        const std::string cell =
            "k=" + std::to_string(k) + " trial=" + std::to_string(trial) +
            " union=" + std::to_string(union_size) +
            " lambda=" + std::to_string(lambda);
        ASSERT_EQ(unit_weights, balance.unit_min_mask() != nullptr) << cell;
        if (shape != Shape::kNonUnitWeights) {
          ASSERT_EQ((shape == Shape::kMinInsideUnion && union_size > 0) ||
                        union_size == k,
                    outside == kInvalidPartition)
              << cell;
        }
        if (unit_weights) {
          EXPECT_EQ(score::SparseOutside(k, balance.unit_min_mask(), row_u,
                                         row_v),
                    small ? outside : kInvalidPartition)
              << "outside " << cell;
        }
        if (sparse) {
          ++sparse_picks;
          uint64_t hits = 0;
          EXPECT_EQ(score::HdrfPickSparse(k, balance.row(), loads.data(),
                                          row_u, row_v, theta_u, theta_v,
                                          outside, &hits),
                    want)
              << "sparse " << cell;
          EXPECT_EQ(hits, want_hits) << "sparse " << cell;
        }
        uint64_t hits = 0;
        EXPECT_EQ(CorePickHdrf(k, balance, loads.data(), row_u, row_v, theta_u,
                               theta_v, &hits),
                  want)
            << "core " << cell;
        EXPECT_EQ(hits, want_hits) << "core " << cell;
      }
    }
  }
  EXPECT_GT(sparse_picks, 0u);
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
      // Every sixth trial gives every candidate the same count and load
      // (on homogeneous weights), so score and load both tie everywhere
      // and the lowest id must win.
      const bool all_tie = trial % 6 == 0 && cap_case != CapacityCase::kAllFull;
      const uint32_t tie_count = rng() % 4;
      const uint64_t tie_load = rng() % 6;
      for (PartitionId i = 0; i < k; ++i) {
        counts[i] = all_tie ? tie_count : rng() % 4;  // small: score ties
        loads[i] = all_tie ? tie_load : rng() % 6;
        weights[i] = hetero && !all_tie
                         ? 1.0 + 0.5 * static_cast<double>(rng() % 3)
                         : 1;
        capacity[i] = all_tie ? static_cast<double>(tie_load) + 2.0
                              : CapacityFor(cap_case, loads[i], rng);
      }
      for (const GreedyObjective& obj : GreedyObjectives(1.25)) {
        // The kernels read the row the production state keeps; the
        // oracle scores every candidate from its load.
        GreedyTermRow terms;
        terms.Reset(obj, k, loads.data(), weights.data(), capacity.data());
        const PartitionId want = oracle::GreedyPickScalar(
            k, counts.data(), loads.data(), weights.data(), capacity.data(),
            obj);
        const std::string cell = "k=" + std::to_string(k) + " trial=" +
                                 std::to_string(trial) + " " +
                                 ObjectiveName(obj);
        if (cap_case == CapacityCase::kAllFull) {
          ASSERT_EQ(want, kInvalidPartition) << cell;
        }
        if (all_tie) {
          ASSERT_EQ(want, 0u) << cell;
        }
        EXPECT_EQ(score::GreedyPickBatched(k, counts.data(), terms.terms(),
                                           terms.room(), loads.data(),
                                           terms.ldg(), scores.data()),
                  want)
            << "batched " << cell;
        if (score::avx2::Available()) {
          EXPECT_EQ(score::avx2::GreedyPick(k, counts.data(), terms.terms(),
                                            terms.room(), loads.data(),
                                            terms.ldg(), scores.data()),
                    want)
              << "avx2 " << cell;
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
  // The ingest path grows the id space (and the replica rows) as edges
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
    // The pin covers the placements in arrival order; the stream body
    // records them by edge id.
    Partitioning arrival = r.partitioning;
    const std::vector<EdgeId> order =
        MakeEdgeStream(g, StreamOrder::kRandom, cfg.seed);
    for (size_t i = 0; i < order.size(); ++i) {
      arrival.edge_to_partition[i] = r.partitioning.edge_to_partition[order[i]];
    }
    const std::string cell = "ingest HDRF k=" + std::to_string(k);
    EXPECT_EQ(FingerprintHex(arrival), PinnedFingerprint(cell)) << cell;
  }
}

}  // namespace
}  // namespace sgp
