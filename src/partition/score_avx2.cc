#include "partition/score_core.h"

// AVX2 kernels of the scoring core. Compiled with -mavx2 only (no -mfma,
// so a*b+c cannot contract into FMA) plus -ffp-contract=off; every
// arithmetic op below maps 1:1 onto an IEEE-exact instruction in the
// exact order of the batched kernels, which is what makes the selections
// bit-identical:
//   - membership bit → {0.0, 1.0} multiply becomes an AND against an
//     all-ones mask (x & ~0 == x, x & 0 == +0.0 == 0.0·x for the strictly
//     positive gains), from cmpeq for the greedy kernels and from a
//     16-entry nibble table for HDRF,
//   - u64 loads become doubles via the 2^52 magic-number trick, exact for
//     values < 2^52 (partition loads are element counts),
//   - neighbor counts ride signed i32→double lanes, exact below 2^31,
//   - vdivpd / vsqrtpd are correctly rounded per element.
// The greedy and Ginger argmaxes run lane-wise with the incumbent-keeping
// rule (indices ascend within a lane, so full ties keep the lower id),
// then the four lane winners and the scalar tail merge through the full
// lexicographic rule (score desc, load asc, index asc) — a plain
// lane-order reduction would mis-rank equal (score, load) pairs whose
// indices interleave across lanes. The HDRF argmax takes two passes
// instead: the max score, then the tie rule over the candidates equal to
// it in ascending id order, which needs no cross-lane merge.
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
template <typename Load>
struct LexBest {
  double score = kNegInf;
  Load load = 0;
  PartitionId index = kInvalidPartition;

  void Merge(double s, Load l, PartitionId i) {
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

// u64 → double, exact for values < 2^52: OR the value into the mantissa
// of 2^52 and subtract 2^52.
inline __m256d U64ToDouble(__m256i v) {
  const __m256i magic_i = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256d magic_d = _mm256_set1_pd(4503599627370496.0);  // 2^52
  return _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(v, magic_i)), magic_d);
}

inline __m256d BlendPd(__m256d keep, __m256d take, __m256d mask) {
  return _mm256_blendv_pd(keep, take, mask);
}

inline __m256i BlendI64(__m256i keep, __m256i take, __m256d mask) {
  return _mm256_castpd_si256(_mm256_blendv_pd(
      _mm256_castsi256_pd(keep), _mm256_castsi256_pd(take), mask));
}

// Keep in sync with score::GreedyScore (score_core.h). ScoreCore only
// routes LDG and sqrt-form FENNEL here.
inline double GreedyScoreTail(const GreedyObjective& obj, uint32_t count,
                              double size, double capacity, double weight) {
  if (obj.ldg) {
    return static_cast<double>(count) * (1.0 - size / capacity);
  }
  const double eff = size / weight;
  const double load = std::sqrt(eff);
  return static_cast<double>(count) - obj.alpha * obj.gamma * load;
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
  __m128d max2 = _mm_max_pd(_mm256_castpd256_pd128(max4),
                            _mm256_extractf128_pd(max4, 1));
  max2 = _mm_max_sd(max2, _mm_unpackhi_pd(max2, max2));
  double best_score = _mm_cvtsd_f64(max2);
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

  // Pass 2: the canonical tie rule over the candidates scoring exactly
  // best_score — lighter load, then lower id. They are visited in
  // ascending id order, so a strict compare keeps the lower id.
  PartitionId best = kInvalidPartition;
  uint64_t best_load = 0;
  auto consider = [&](PartitionId i) {
    if (best == kInvalidPartition || loads[i] < best_load) {
      best = i;
      best_load = loads[i];
    }
  };
  // Per 64-candidate block, the lanes equal to best_score are gathered
  // into one bit mask first, so the scan takes no branch per group.
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

PartitionId GreedyPick(PartitionId k, const uint32_t* neighbor_counts,
                       const uint64_t* loads, const double* weights,
                       const double* capacity, const GreedyObjective& obj) {
  const double ag = obj.alpha * obj.gamma;
  const __m256d v_one = _mm256_set1_pd(1.0);
  const __m256d v_neg_inf = _mm256_set1_pd(kNegInf);
  const __m256d v_ag = _mm256_set1_pd(ag);
  const __m256i v_four = _mm256_set1_epi64x(4);
  const __m256i lane_off = _mm256_setr_epi64x(0, 1, 2, 3);

  __m256d best_sc = _mm256_set1_pd(kNegInf);
  __m256i best_ld = _mm256_setzero_si256();
  __m256i best_ix = _mm256_setzero_si256();
  __m256i cur_ix = lane_off;

  const PartitionId vec_end = k & ~PartitionId{3};
  PartitionId i = 0;
  for (; i < vec_end; i += 4) {
    const __m256i ld = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(loads + i));
    const __m256d size = U64ToDouble(ld);
    const __m256d cap = _mm256_loadu_pd(capacity + i);
    const __m256d cnt = _mm256_cvtepi32_pd(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(neighbor_counts + i)));
    __m256d sc;
    if (obj.ldg) {
      // count · (1 − size/capacity)
      sc = _mm256_mul_pd(cnt,
                         _mm256_sub_pd(v_one, _mm256_div_pd(size, cap)));
    } else {
      // count − (αγ)·√(size/weight)
      const __m256d wgt = _mm256_loadu_pd(weights + i);
      sc = _mm256_sub_pd(
          cnt, _mm256_mul_pd(v_ag,
                             _mm256_sqrt_pd(_mm256_div_pd(size, wgt))));
    }
    const __m256d over =
        _mm256_cmp_pd(_mm256_add_pd(size, v_one), cap, _CMP_GT_OQ);
    sc = BlendPd(sc, v_neg_inf, over);
    const __m256d gt = _mm256_cmp_pd(sc, best_sc, _CMP_GT_OQ);
    const __m256d eq = _mm256_cmp_pd(sc, best_sc, _CMP_EQ_OQ);
    const __m256d lighter =
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(best_ld, ld));
    const __m256d take = _mm256_or_pd(gt, _mm256_and_pd(eq, lighter));
    best_sc = BlendPd(best_sc, sc, take);
    best_ld = BlendI64(best_ld, ld, take);
    best_ix = BlendI64(best_ix, cur_ix, take);
    cur_ix = _mm256_add_epi64(cur_ix, v_four);
  }

  LexBest<uint64_t> best;
  if (vec_end > 0) {
    alignas(32) double lane_sc[4];
    alignas(32) uint64_t lane_ld[4];
    alignas(32) uint64_t lane_ix[4];
    _mm256_store_pd(lane_sc, best_sc);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_ld), best_ld);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_ix), best_ix);
    for (int l = 0; l < 4; ++l) {
      best.Merge(lane_sc[l], lane_ld[l],
               static_cast<PartitionId>(lane_ix[l]));
    }
  }
  for (; i < k; ++i) {
    const double size = static_cast<double>(loads[i]);
    const double sc =
        GreedyScoreTail(obj, neighbor_counts[i], size, capacity[i],
                        weights[i]);
    best.Merge(size + 1.0 > capacity[i] ? kNegInf : sc, loads[i], i);
  }
  return best.score == kNegInf ? kInvalidPartition : best.index;
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

  LexBest<double> best;
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

PartitionId GreedyPick(PartitionId, const uint32_t*, const uint64_t*,
                       const double*, const double*, const GreedyObjective&) {
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
