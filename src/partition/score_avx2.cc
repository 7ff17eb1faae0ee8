#include "partition/score_core.h"

// AVX2 kernels of the scoring core. Compiled with -mavx2 only (no -mfma,
// so a*b+c cannot contract into FMA) plus -ffp-contract=off; every
// arithmetic op below maps 1:1 onto an IEEE-exact instruction in the
// exact order of the batched kernels, which is what makes the selections
// bit-identical:
//   - membership bit → {0.0, 1.0} multiply becomes an AND against an
//     all-ones mask (x & ~0 == x, x & 0 == +0.0 == 0.0·x for the strictly
//     positive gains), from a 16-entry nibble table,
//   - neighbor counts ride signed i32→double lanes, exact below 2^31,
//   - vsqrtpd is correctly rounded per element.
// The HDRF and LDG/FENNEL argmaxes take two passes: the max score, then
// the tie rule over the candidates equal to it in ascending id order,
// which needs no cross-lane merge. The Ginger argmax runs lane-wise with
// the incumbent-keeping rule (indices ascend within a lane, so full ties
// keep the lower id), then the four lane winners and the scalar tail
// merge through the full lexicographic rule (score desc, load asc, index
// asc) — a plain lane-order reduction would mis-rank equal (score, load)
// pairs whose indices interleave across lanes.
//
// This unit calls none of the inline helpers of score_core.h: any
// COMDAT-inline function it emitted with AVX2 flags could be picked by
// the linker for every other caller, leaking VEX-encoded code into builds
// that must run on pre-AVX hardware. The few scalar expressions it needs
// (tail elements, membership words) are re-derived here with internal
// linkage, kept textually identical to their score_core.h originals.

#if defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

#include <cmath>

namespace sgp::score::avx2 {

namespace {

// Running lexicographic argmax over (score desc, load asc, index asc) —
// the canonical tie-break. Used for the cross-lane/tail merges, where the
// within-lane "keep the incumbent on full ties" shortcut is wrong because
// lane winners' indices interleave.
struct LexBest {
  double score = kNegInf;
  double load = 0;
  PartitionId index = kInvalidPartition;

  void Merge(double s, double l, PartitionId i) {
    if (s > score || (s == score && (l < load || (l == load && i < index)))) {
      score = s;
      load = l;
      index = i;
    }
  }
};

// Lane masks of a 4-bit membership nibble: lane l is all-ones when bit l
// of the nibble is set, else zero.
struct NibbleLaneTable {
  alignas(32) uint64_t lanes[16][4];
};

constexpr NibbleLaneTable MakeNibbleLaneTable() {
  NibbleLaneTable t{};
  for (unsigned n = 0; n < 16; ++n) {
    for (unsigned l = 0; l < 4; ++l) {
      t.lanes[n][l] = ((n >> l) & 1u) != 0 ? ~uint64_t{0} : 0;
    }
  }
  return t;
}

constexpr NibbleLaneTable kNibbleLanes = MakeNibbleLaneTable();

// Keep in sync with MembershipRow::Word (score_core.h).
inline uint64_t RowWord(const MembershipRow& row, uint64_t w) {
  return row.delta == nullptr ? row.base[w] : row.base[w] | row.delta[w];
}

inline __m256d BlendPd(__m256d keep, __m256d take, __m256d mask) {
  return _mm256_blendv_pd(keep, take, mask);
}

inline __m256i BlendI64(__m256i keep, __m256i take, __m256d mask) {
  return _mm256_castpd_si256(_mm256_blendv_pd(
      _mm256_castsi256_pd(keep), _mm256_castsi256_pd(take), mask));
}

// Horizontal max of four lanes.
inline double MaxLane(__m256d v) {
  __m128d max2 = _mm_max_pd(_mm256_castpd256_pd128(v),
                            _mm256_extractf128_pd(v, 1));
  max2 = _mm_max_sd(max2, _mm_unpackhi_pd(max2, max2));
  return _mm_cvtsd_f64(max2);
}

// Pass 2 of the two-pass picks: the canonical tie rule over the
// candidates scoring exactly best_score — lighter load, then lower id.
// They are visited in ascending id order, so a strict compare keeps the
// lower id. Per 64-candidate block, the lanes equal to best_score are
// gathered into one bit mask first, so the scan takes no branch per group.
// Inlined into both picks, as HdrfPick's own second pass was.
[[gnu::always_inline]] inline PartitionId LightestAtMax(
    PartitionId k, const double* scores, const uint64_t* loads,
    double best_score) {
  PartitionId best = kInvalidPartition;
  uint64_t best_load = 0;
  auto consider = [&](PartitionId i) {
    if (best == kInvalidPartition || loads[i] < best_load) {
      best = i;
      best_load = loads[i];
    }
  };
  const PartitionId vec_end = k & ~PartitionId{3};
  const __m256d v_best = _mm256_set1_pd(best_score);
  for (PartitionId blk = 0; blk < vec_end; blk += 64) {
    const PartitionId lim = vec_end < blk + 64 ? vec_end : blk + 64;
    uint64_t eq = 0;
    for (PartitionId i = blk; i < lim; i += 4) {
      const int lanes = _mm256_movemask_pd(
          _mm256_cmp_pd(_mm256_loadu_pd(scores + i), v_best, _CMP_EQ_OQ));
      eq |= static_cast<uint64_t>(lanes) << (i - blk);
    }
    for (; eq != 0; eq &= eq - 1) {
      consider(blk + static_cast<PartitionId>(__builtin_ctzll(eq)));
    }
  }
  for (PartitionId i = vec_end; i < k; ++i) {
    if (scores[i] == best_score) consider(i);
  }
  return best;
}

// Pass 1 of GreedyPick: every score cnt·t[i] (LDG) or cnt − t[i]
// (FENNEL), plus room[i], into `scores`, and their max seeded from −∞.
// Two running maxima, one per group of four in a pair, halve the chain of
// dependent vmaxpd; a max does not depend on the order it is taken in.
// vmaxpd returns its second operand when either is NaN, so with the
// running max second a NaN score (possible only from a degenerate α·γ)
// never becomes the max — as it never wins the batched kernel's strict >.
template <bool kLdg>
double GreedyScores(PartitionId k, const uint32_t* neighbor_counts,
                    const double* terms, const double* room, double* scores) {
  auto score4 = [&](PartitionId i) {
    const __m256d cnt = _mm256_cvtepi32_pd(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(neighbor_counts + i)));
    const __m256d t = _mm256_loadu_pd(terms + i);
    const __m256d base =
        kLdg ? _mm256_mul_pd(cnt, t) : _mm256_sub_pd(cnt, t);
    const __m256d sc = _mm256_add_pd(base, _mm256_loadu_pd(room + i));
    _mm256_storeu_pd(scores + i, sc);
    return sc;
  };
  const PartitionId vec_end = k & ~PartitionId{3};
  __m256d max_a = _mm256_set1_pd(kNegInf);
  __m256d max_b = max_a;
  PartitionId i = 0;
  for (; i + 8 <= vec_end; i += 8) {
    max_a = _mm256_max_pd(score4(i), max_a);
    max_b = _mm256_max_pd(score4(i + 4), max_b);
  }
  if (i < vec_end) max_a = _mm256_max_pd(score4(i), max_a);
  double best_score = MaxLane(_mm256_max_pd(max_a, max_b));
  for (i = vec_end; i < k; ++i) {
    // Keep in sync with GreedyPickBatched's per-candidate score.
    const double cnt = static_cast<double>(neighbor_counts[i]);
    scores[i] = (kLdg ? cnt * terms[i] : cnt - terms[i]) + room[i];
    if (scores[i] > best_score) best_score = scores[i];
  }
  return best_score;
}

}  // namespace

bool Available() { return __builtin_cpu_supports("avx2"); }

PartitionId HdrfPick(PartitionId k, const double* balance,
                     const uint64_t* loads, MembershipRow u_row,
                     MembershipRow v_row, double theta_u, double theta_v,
                     double* scores, uint64_t* bitset_hits) {
  const double gain_u = 1.0 + theta_v;  // g of replicating endpoint u
  const double gain_v = 1.0 + theta_u;
  // Bitset-hit audit, identical to the HdrfPickBatched popcount loop so
  // the counter stays ISA-independent.
  uint64_t hits = 0;
  for (PartitionId blk = 0; blk < k; blk += 64) {
    const uint64_t wu = RowWord(u_row, blk >> 6);
    const uint64_t wv = RowWord(v_row, blk >> 6);
    const PartitionId lim = k < blk + 64 ? k : blk + 64;
    const uint64_t mask = lim - blk == 64
                              ? ~uint64_t{0}
                              : (uint64_t{1} << (lim - blk)) - 1;
    hits += static_cast<uint64_t>(__builtin_popcountll(wu & mask)) +
            static_cast<uint64_t>(__builtin_popcountll(wv & mask));
  }
  *bitset_hits += hits;

  // Pass 1: every score into `scores`, and their max, seeded from −∞.
  // A 4-aligned group of candidates shares one membership word per
  // endpoint: g = bu·gain_u + bv·gain_v with bu, bv ∈ {0.0, 1.0} (the AND
  // against the nibble's lane masks reproduces the multiply bit for bit),
  // then g + b[i]. Scores are never NaN, so vmaxpd is an exact max.
  const __m256d v_gain_u = _mm256_set1_pd(gain_u);
  const __m256d v_gain_v = _mm256_set1_pd(gain_v);
  const PartitionId vec_end = k & ~PartitionId{3};
  __m256d max4 = _mm256_set1_pd(kNegInf);
  for (PartitionId blk = 0; blk < vec_end; blk += 64) {
    uint64_t wu = RowWord(u_row, blk >> 6);
    uint64_t wv = RowWord(v_row, blk >> 6);
    const PartitionId lim = vec_end < blk + 64 ? vec_end : blk + 64;
    for (PartitionId i = blk; i < lim; i += 4, wu >>= 4, wv >>= 4) {
      const __m256d mu = _mm256_castsi256_pd(_mm256_load_si256(
          reinterpret_cast<const __m256i*>(kNibbleLanes.lanes[wu & 15])));
      const __m256d mv = _mm256_castsi256_pd(_mm256_load_si256(
          reinterpret_cast<const __m256i*>(kNibbleLanes.lanes[wv & 15])));
      const __m256d g = _mm256_add_pd(_mm256_and_pd(mu, v_gain_u),
                                      _mm256_and_pd(mv, v_gain_v));
      const __m256d sc = _mm256_add_pd(g, _mm256_loadu_pd(balance + i));
      _mm256_storeu_pd(scores + i, sc);
      max4 = _mm256_max_pd(max4, sc);
    }
  }
  double best_score = MaxLane(max4);
  for (PartitionId i = vec_end; i < k; ++i) {
    // Keep in sync with HdrfPickBatched's per-candidate score.
    const uint64_t wu = RowWord(u_row, i >> 6);
    const uint64_t wv = RowWord(v_row, i >> 6);
    const double bu = static_cast<double>((wu >> (i & 63)) & 1u);
    const double bv = static_cast<double>((wv >> (i & 63)) & 1u);
    const double g = bu * gain_u + bv * gain_v;
    scores[i] = g + balance[i];
    if (scores[i] > best_score) best_score = scores[i];
  }

  // Pass 2: the tie rule over the candidates scoring exactly best_score.
  return LightestAtMax(k, scores, loads, best_score);
}

PartitionId GreedyPick(PartitionId k, const uint32_t* neighbor_counts,
                       const double* terms, const double* room,
                       const uint64_t* loads, bool ldg, double* scores) {
  const double best_score =
      ldg ? GreedyScores<true>(k, neighbor_counts, terms, room, scores)
          : GreedyScores<false>(k, neighbor_counts, terms, room, scores);
  // Every partition full: no score rose above −∞.
  if (best_score == kNegInf) return kInvalidPartition;
  return LightestAtMax(k, scores, loads, best_score);
}

PartitionId GingerPick(PartitionId k, const uint32_t* neighbor_counts,
                       const double* combined_loads, double combined_capacity,
                       double alpha, double gamma) {
  const double ag = alpha * gamma;
  const __m256d v_neg_inf = _mm256_set1_pd(kNegInf);
  const __m256d v_ag = _mm256_set1_pd(ag);
  const __m256d v_cap = _mm256_set1_pd(combined_capacity);
  const __m256i v_four = _mm256_set1_epi64x(4);
  const __m256i lane_off = _mm256_setr_epi64x(0, 1, 2, 3);

  __m256d best_sc = _mm256_set1_pd(kNegInf);
  __m256d best_ld = _mm256_setzero_pd();
  __m256i best_ix = _mm256_setzero_si256();
  __m256i cur_ix = lane_off;

  const PartitionId vec_end = k & ~PartitionId{3};
  PartitionId i = 0;
  for (; i < vec_end; i += 4) {
    const __m256d ld = _mm256_loadu_pd(combined_loads + i);
    const __m256d cnt = _mm256_cvtepi32_pd(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(neighbor_counts + i)));
    // count − (αγ)·√load
    __m256d sc = _mm256_sub_pd(cnt, _mm256_mul_pd(v_ag, _mm256_sqrt_pd(ld)));
    const __m256d over = _mm256_cmp_pd(ld, v_cap, _CMP_GE_OQ);
    sc = BlendPd(sc, v_neg_inf, over);
    const __m256d gt = _mm256_cmp_pd(sc, best_sc, _CMP_GT_OQ);
    const __m256d eq = _mm256_cmp_pd(sc, best_sc, _CMP_EQ_OQ);
    const __m256d lighter = _mm256_cmp_pd(ld, best_ld, _CMP_LT_OQ);
    const __m256d take = _mm256_or_pd(gt, _mm256_and_pd(eq, lighter));
    best_sc = BlendPd(best_sc, sc, take);
    best_ld = BlendPd(best_ld, ld, take);
    best_ix = BlendI64(best_ix, cur_ix, take);
    cur_ix = _mm256_add_epi64(cur_ix, v_four);
  }

  LexBest best;
  if (vec_end > 0) {
    alignas(32) double lane_sc[4];
    alignas(32) double lane_ld[4];
    alignas(32) uint64_t lane_ix[4];
    _mm256_store_pd(lane_sc, best_sc);
    _mm256_store_pd(lane_ld, best_ld);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_ix), best_ix);
    for (int l = 0; l < 4; ++l) {
      best.Merge(lane_sc[l], lane_ld[l],
               static_cast<PartitionId>(lane_ix[l]));
    }
  }
  for (; i < k; ++i) {
    const double load = combined_loads[i];
    const double sc =
        static_cast<double>(neighbor_counts[i]) - alpha * gamma *
        std::sqrt(load);
    best.Merge(load >= combined_capacity ? kNegInf : sc, load, i);
  }
  return best.score == kNegInf ? kInvalidPartition : best.index;
}

}  // namespace sgp::score::avx2

#else  // !(defined(__x86_64__) && defined(__AVX2__))

// Non-x86-64 (or a toolchain without AVX2 support): Available() is false,
// so ScoreCore runs the batched kernels and these stubs are unreachable.

namespace sgp::score::avx2 {

bool Available() { return false; }

PartitionId HdrfPick(PartitionId, const double*, const uint64_t*,
                     MembershipRow, MembershipRow, double, double, double*,
                     uint64_t*) {
  SGP_CHECK(false);
  return kInvalidPartition;
}

PartitionId GreedyPick(PartitionId, const uint32_t*, const double*,
                       const double*, const uint64_t*, bool, double*) {
  SGP_CHECK(false);
  return kInvalidPartition;
}

PartitionId GingerPick(PartitionId, const uint32_t*, const double*, double,
                       double, double) {
  SGP_CHECK(false);
  return kInvalidPartition;
}

}  // namespace sgp::score::avx2

#endif  // defined(__x86_64__) && defined(__AVX2__)
