#ifndef SGP_PARTITION_SCORE_CORE_H_
#define SGP_PARTITION_SCORE_CORE_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "partition/state.h"
#include "stream/source.h"

namespace sgp {

/// Shared k-way candidate-evaluation core (the "score core"): every
/// streaming partitioner evaluates all k candidate partitions per stream
/// element, and this layer owns that loop for the whole roster — LDG and
/// FENNEL (Equations 4/5), HDRF (Equation 7), PowerGraph greedy, Ginger
/// (Equation 8) and the edge-stream greedy family — instead of each
/// algorithm hand-rolling its own copy over `partition/state`.
///
/// Layering: PartitionState (flat SoA synopsis: loads, the HDRF balance
/// row, the LDG/FENNEL term row, capacities, degrees, replica sets) →
/// ScoreCore (candidate scoring + argmax with the canonical tie-break:
/// equal score → lighter load → lower id) → partitioner (stream order,
/// neighbour tally, placement recording).
///
/// One production path per kernel: a portable batched kernel (SoA loops,
/// replica membership read one 64-candidate word at a time from the bit
/// index) that every host runs, plus an AVX2 kernel for the HDRF/cluster,
/// LDG/FENNEL and Ginger picks, chosen once per ScoreCore from
/// score::avx2::Available(). Both produce the same selection to the last
/// tie-break; the scalar per-candidate loops they replace live on as the
/// oracles of tests/score_oracle.h. Builds must not let the compiler
/// contract a*b+c into FMA (see SGP_NATIVE in CMakeLists.txt) or the
/// kernels could round differently.

/// Decision counters of the scoring core, accumulated in plain locals and
/// flushed once per run (partition.score.*, docs/OBSERVABILITY.md).
struct ScoreCoreStats {
  uint64_t batches = 0;      // chunk-level scorer invocations
  uint64_t candidates = 0;   // candidate partitions evaluated
  uint64_t bitset_hits = 0;  // replica-membership bits found set
};

/// Flushes `stats` into the current registry's
/// partition.score.{batches,candidates,bitset_hits} counters.
void FlushScoreCoreStats(const ScoreCoreStats& stats);

namespace score {

inline constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Replica-membership row of one vertex: the published (or sequential)
/// word span, plus an optional unpublished worker-delta span that is OR-ed
/// in word-wise (the sharded ingest drivers' combined view).
struct MembershipRow {
  const uint64_t* base = nullptr;
  const uint64_t* delta = nullptr;  // may be null

  uint64_t Word(uint64_t w) const {
    return delta == nullptr ? base[w] : base[w] | delta[w];
  }
  bool Test(PartitionId p) const { return (Word(p >> 6) >> (p & 63)) & 1u; }
};

/// Largest |A(u) ∪ A(v)| for which ScoreCore::PickHdrf picks through
/// HdrfPickSparse instead of sweeping all k candidates.
inline constexpr int kSparseUnionMax = 2;

/// Smallest k for which ScoreCore::PickHdrf tries the sparse pick: at
/// k = 8 the AVX2 sweep is two groups of four candidates, no dearer than
/// the sparse test and pick, and a path that flips from edge to edge
/// costs a mispredicted branch.
inline constexpr PartitionId kSparseMinK = 16;

/// The partition HdrfPickSparse scores besides A(u) ∪ A(v): the lowest-id
/// partition of `min_mask` (BalanceRow::unit_min_mask) outside the union,
/// or kInvalidPartition when the union holds more than kSparseUnionMax
/// partitions or covers the whole mask. Counts at most
/// kSparseUnionMax + 1 members per word, with no branch per bit.
inline PartitionId SparseOutside(PartitionId k, const uint64_t* min_mask,
                                 MembershipRow u_row, MembershipRow v_row) {
  int union_size = 0;
  PartitionId outside = kInvalidPartition;
  for (PartitionId blk = 0; blk < k; blk += 64) {
    const PartitionId lim = std::min<PartitionId>(k, blk + 64);
    const uint64_t mask = lim - blk == 64
                              ? ~uint64_t{0}
                              : (uint64_t{1} << (lim - blk)) - 1;
    const uint64_t members =
        (u_row.Word(blk >> 6) | v_row.Word(blk >> 6)) & mask;
    uint64_t bits = members;
    for (int j = 0; j <= kSparseUnionMax; ++j, bits &= bits - 1) {
      union_size += bits != 0;
    }
    const uint64_t free = min_mask[blk >> 6] & ~members;
    if (outside == kInvalidPartition && free != 0) {
      outside = blk + static_cast<PartitionId>(std::countr_zero(free));
    }
  }
  return union_size <= kSparseUnionMax ? outside : kInvalidPartition;
}

/// Exact HDRF pick over A(u) ∪ A(v) (the set bits of either membership
/// row, at most kSparseUnionMax of them) plus `outside`, the lowest-id
/// partition at the minimum load outside the union (SparseOutside), for
/// unit weights. Outside the union every score is the balance term
/// alone, which does not increase with the load, and equal scores go to
/// the lighter load, then the lower id; so no partition outside the union
/// beats `outside`, and scoring the union plus `outside` with the sweep's
/// operations (g = bu·gain_u + bv·gain_v, then g + b[i]) and its tie rule
/// returns the sweep's selection. Adds |A(u)| + |A(v)| to `*bitset_hits`,
/// as the kernels do.
PartitionId HdrfPickSparse(PartitionId k, const double* balance,
                           const uint64_t* loads, MembershipRow u_row,
                           MembershipRow v_row, double theta_u,
                           double theta_v, PartitionId outside,
                           uint64_t* bitset_hits);

/// Batched HDRF candidate evaluation: one membership word per endpoint
/// per 64-candidate block, branch-free g-term plus the memoised balance
/// term `balance[i]` (BalanceRow, partition/state.h), argmax with the
/// canonical tie-break. The g accumulation order (u-term then v-term) and
/// the final g + b[i] match the per-candidate probe loop of the oracle,
/// so scores are bit-identical.
inline PartitionId HdrfPickBatched(PartitionId k, const double* balance,
                                   const uint64_t* loads, MembershipRow u_row,
                                   MembershipRow v_row, double theta_u,
                                   double theta_v, uint64_t* bitset_hits) {
  const double gain_u = 1.0 + theta_v;  // g of replicating endpoint u
  const double gain_v = 1.0 + theta_u;
  PartitionId best = 0;
  double best_score = kNegInf;
  uint64_t hits = 0;
  for (PartitionId blk = 0; blk < k; blk += 64) {
    const uint64_t wu = u_row.Word(blk >> 6);
    const uint64_t wv = v_row.Word(blk >> 6);
    const PartitionId lim = std::min<PartitionId>(k, blk + 64);
    const uint64_t mask = lim - blk == 64
                              ? ~uint64_t{0}
                              : (uint64_t{1} << (lim - blk)) - 1;
    hits += static_cast<uint64_t>(std::popcount(wu & mask)) +
            static_cast<uint64_t>(std::popcount(wv & mask));
    for (PartitionId i = blk; i < lim; ++i) {
      const double bu = static_cast<double>((wu >> (i - blk)) & 1u);
      const double bv = static_cast<double>((wv >> (i - blk)) & 1u);
      const double g = bu * gain_u + bv * gain_v;
      const double sc = g + balance[i];
      if (sc > best_score) {
        best_score = sc;
        best = i;
      } else if (sc == best_score && loads[i] < loads[best]) {
        best = i;
      }
    }
  }
  *bitset_hits += hits;
  return best;
}

/// Batched LDG/FENNEL pick over the memoised term row (GreedyTermRow,
/// partition/state.h): phase 1 materializes every candidate score,
/// cnt·t[i] (LDG) or cnt − t[i] (FENNEL), plus room[i], which is 0 or −∞
/// for a full partition; phase 2 is the argmax with the canonical
/// tie-break. A −∞ can never win (> is strict and the tie-break needs
/// loads[i] < best_load, which starts at 0 with unsigned loads), so
/// selection matches a hard capacity skip exactly; kInvalidPartition when
/// every partition is at capacity.
inline PartitionId GreedyPickBatched(PartitionId k,
                                     const uint32_t* neighbor_counts,
                                     const double* terms, const double* room,
                                     const uint64_t* loads, bool ldg,
                                     double* scores) {
  if (ldg) {
    for (PartitionId i = 0; i < k; ++i) {
      scores[i] = static_cast<double>(neighbor_counts[i]) * terms[i] + room[i];
    }
  } else {
    for (PartitionId i = 0; i < k; ++i) {
      scores[i] = static_cast<double>(neighbor_counts[i]) - terms[i] + room[i];
    }
  }
  PartitionId best = kInvalidPartition;
  double best_score = kNegInf;
  uint64_t best_load = 0;
  for (PartitionId i = 0; i < k; ++i) {
    if (scores[i] > best_score) {
      best_score = scores[i];
      best = i;
      best_load = loads[i];
    } else if (scores[i] == best_score && best != kInvalidPartition &&
               loads[i] < best_load) {
      best = i;
      best_load = loads[i];
    }
  }
  return best;
}

/// Ginger pick over caller-materialized combined loads ½(|P_v| +
/// (n/m)|P_e|)/w (Equation 8 through FENNEL's γ = 1.5 marginal-cost
/// form): masked score materialization, then the argmax with ties toward
/// the smaller combined load. Candidates at or above the combined
/// capacity are masked to −inf, which never wins: > is strict against the
/// −inf start, and the tie-break needs load < best_load, which starts at
/// 0 with non-negative combined loads.
inline PartitionId GingerPickBatched(PartitionId k,
                                     const uint32_t* neighbor_counts,
                                     const double* combined_loads,
                                     double combined_capacity, double alpha,
                                     double gamma, double* scores) {
  for (PartitionId i = 0; i < k; ++i) {
    const double load = combined_loads[i];
    const double sc = static_cast<double>(neighbor_counts[i]) -
                      alpha * gamma * std::sqrt(load);
    scores[i] = load >= combined_capacity ? kNegInf : sc;
  }
  PartitionId best = kInvalidPartition;
  double best_score = kNegInf;
  double best_load = 0;
  for (PartitionId i = 0; i < k; ++i) {
    const double load = combined_loads[i];
    if (scores[i] > best_score ||
        (scores[i] == best_score && best != kInvalidPartition &&
         load < best_load)) {
      best_score = scores[i];
      best = i;
      best_load = load;
    }
  }
  return best;
}

/// Least effectively-loaded partition with room for one more element
/// (ties toward the lower id); 0 when every partition is at capacity —
/// the edge-stream greedy family's placement rule.
inline PartitionId LeastLoadedWithRoom(PartitionId k, const uint64_t* loads,
                                       const double* weights,
                                       const double* capacity) {
  PartitionId best = kInvalidPartition;
  double best_load = 0;
  for (PartitionId i = 0; i < k; ++i) {
    const double size = static_cast<double>(loads[i]);
    if (size + 1.0 > capacity[i]) continue;
    const double load = size / weights[i];
    if (best == kInvalidPartition || load < best_load) {
      best = i;
      best_load = load;
    }
  }
  return best == kInvalidPartition ? 0 : best;
}

/// Least effectively-loaded partition over all k, no capacity check (the
/// all-at-capacity fallback of the greedy edge-cut family).
inline PartitionId LeastLoadedAll(PartitionId k, const uint64_t* loads,
                                  const double* weights) {
  PartitionId best = 0;
  double best_load = static_cast<double>(loads[0]) / weights[0];
  for (PartitionId i = 1; i < k; ++i) {
    const double load = static_cast<double>(loads[i]) / weights[i];
    if (load < best_load) {
      best = i;
      best_load = load;
    }
  }
  return best;
}

/// Least effectively-loaded partition among the set bits of `row` (ties
/// toward the lower id — ascending bit order plus a strict compare). The
/// caller guarantees at least one bit is set below k.
inline PartitionId LeastLoadedOverBits(PartitionId k, const uint64_t* loads,
                                       const double* weights,
                                       MembershipRow row,
                                       uint64_t* bitset_hits) {
  PartitionId best = kInvalidPartition;
  double best_load = 0;
  uint64_t hits = 0;
  const uint64_t num_words = (static_cast<uint64_t>(k) + 63) / 64;
  for (uint64_t w = 0; w < num_words; ++w) {
    uint64_t bits = row.Word(w);
    hits += static_cast<uint64_t>(std::popcount(bits));
    while (bits != 0) {
      const PartitionId p = static_cast<PartitionId>(
          w * 64 + static_cast<uint32_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      const double load = static_cast<double>(loads[p]) / weights[p];
      if (best == kInvalidPartition || load < best_load) {
        best = p;
        best_load = load;
      }
    }
  }
  *bitset_hits += hits;
  return best;
}

/// Word-wise intersection of two combined membership rows.
inline void IntersectRows(PartitionId k, MembershipRow a, MembershipRow b,
                          uint64_t* out, bool* any) {
  const uint64_t num_words = (static_cast<uint64_t>(k) + 63) / 64;
  uint64_t nonzero = 0;
  for (uint64_t w = 0; w < num_words; ++w) {
    out[w] = a.Word(w) & b.Word(w);
    nonzero |= out[w];
  }
  *any = nonzero != 0;
}

// AVX2 kernels (score_avx2.cc) for the picks where they measured a win:
// HDRF/cluster, LDG/FENNEL and Ginger. Each returns the same selection as
// its batched kernel above — and HdrfPick the same bitset hits — because
// every floating-point operation keeps the batched kernel's order (the
// unit is built with -mavx2 only plus -ffp-contract=off) and every argmax
// applies the full canonical rule. Preconditions (hold for every caller):
// neighbor counts < 2^31 and no NaN balance term (BalanceRow rejects a
// NaN λ). On hosts or toolchains without AVX2, Available() is false and
// ScoreCore never calls the kernels.
namespace avx2 {

bool Available();

/// Two passes over `scores` (k doubles of scratch): every score and their
/// max, then the tie rule over the candidates equal to it.
PartitionId HdrfPick(PartitionId k, const double* balance,
                     const uint64_t* loads, MembershipRow u_row,
                     MembershipRow v_row, double theta_u, double theta_v,
                     double* scores, uint64_t* bitset_hits);

/// Two passes over `scores` (k doubles of scratch), as HdrfPick.
PartitionId GreedyPick(PartitionId k, const uint32_t* neighbor_counts,
                       const double* terms, const double* room,
                       const uint64_t* loads, bool ldg, double* scores);

PartitionId GingerPick(PartitionId k, const uint32_t* neighbor_counts,
                       const double* combined_loads, double combined_capacity,
                       double alpha, double gamma);

}  // namespace avx2

}  // namespace score

/// |P_i ∩ N(u)| for the vertex-greedy picks (LDG, FENNEL, restreaming,
/// their parallel drivers and Ginger's phase 1), tallied without a branch
/// per neighbour: an unplaced neighbour counts into a sentinel slot k, and
/// every slot's first touch is appended to a list
/// (touched[nt] = p; nt += count[p] == 0), so Clear() resets only the
/// min(deg, k + 1) slots the vertex touched, never all k.
class NeighborTally {
 public:
  explicit NeighborTally(PartitionId k)
      : k_(k), counts_(static_cast<size_t>(k) + 1, 0),
        touched_(static_cast<size_t>(k) + 2) {}

  /// Counts each of `nbrs` into the slot of its partition `part_of(v)`,
  /// kInvalidPartition (unplaced) into slot k. Returns nbrs.size().
  template <typename PartOf>
  uint64_t Add(std::span<const VertexId> nbrs, PartOf&& part_of) {
    uint32_t* counts = counts_.data();
    PartitionId* touched = touched_.data();
    size_t nt = num_touched_;
    for (VertexId v : nbrs) {
      const PartitionId p = std::min<PartitionId>(part_of(v), k_);
      touched[nt] = p;
      nt += counts[p] == 0;
      ++counts[p];
    }
    num_touched_ = nt;
    return nbrs.size();
  }

  /// Neighbours per partition; entries [0, k) are what the picks read.
  const uint32_t* counts() const { return counts_.data(); }

  void Clear() {
    for (size_t j = 0; j < num_touched_; ++j) counts_[touched_[j]] = 0;
    num_touched_ = 0;
  }

  /// Bytes of the count slots and the first-touch list.
  uint64_t MemoryBytes() const {
    return counts_.capacity() * sizeof(uint32_t) +
           touched_.capacity() * sizeof(PartitionId);
  }

 private:
  PartitionId k_;
  std::vector<uint32_t> counts_;      // k + 1 slots, the last for unplaced
  std::vector<PartitionId> touched_;  // first touches, + 1 spare write slot
  size_t num_touched_ = 0;
};

/// Edges of lookahead in the chunked scoring loops: while edge i is being
/// scored, the degree entries and bit-matrix rows of edge i+8 are pulled
/// toward the cache, far enough ahead that a DRAM miss on those rows
/// resolves before the edge is reached even when the k-way pick is short.
inline constexpr size_t kScorePrefetchAhead = 8;

/// Per-run scoring context: binds a PartitionState, the kernel choice
/// (AVX2 when the CPU has it, else batched), the scratch buffers
/// (candidate scores, intersection words) and the decision counters.
/// Flushes partition.score.* on destruction.
class ScoreCore {
 public:
  explicit ScoreCore(PartitionState& state);
  ~ScoreCore() { FlushScoreCoreStats(stats_); }

  ScoreCore(const ScoreCore&) = delete;
  ScoreCore& operator=(const ScoreCore&) = delete;

  ScoreCoreStats& stats() { return stats_; }

  /// Bytes of the scratch rows (candidate scores, intersection words).
  uint64_t MemoryBytes() const {
    return scores_.capacity() * sizeof(double) +
           inter_words_.capacity() * sizeof(uint64_t);
  }

  /// Marks one batch of stream elements entering the scorer (callers that
  /// drive per-element picks, e.g. the vertex-greedy gather loop, call it
  /// once per source chunk).
  void NoteBatch() { ++stats_.batches; }

  /// HDRF-shaped k-way pick (Equation 7 g-term + normalized λ balance
  /// term) over a caller-provided balance row and the raw loads it was
  /// built from — the state's own or a sharded driver's combined view —
  /// and membership rows. The balance term has the normalized form of the
  /// HDRF paper, λ · (maxsize − |Pi|)/(ε + maxsize − minsize), memoised per
  /// partition by BalanceRow. Equation (7) of the survey abbreviates it as
  /// λ(1 − |e(Pi)|/C); the normalized form is what keeps the algorithm
  /// balanced under adversarial (BFS) orders.
  ///
  /// Two paths, one selection: the kernel sweeps all k candidates, unless
  /// k ≥ kSparseMinK, every weight is 1, |A(u) ∪ A(v)| ≤ kSparseUnionMax
  /// and some minimum-load partition lies outside the union
  /// (SparseOutside); then HdrfPickSparse scores only the union and the
  /// lowest-id such partition. Either way the pick counts k candidates
  /// and |A(u)| + |A(v)| bitset hits.
  PartitionId PickHdrf(const BalanceRow& balance, const uint64_t* loads,
                       score::MembershipRow u_row, score::MembershipRow v_row,
                       double theta_u, double theta_v) {
    const PartitionId k = state_.k();
    stats_.candidates += k;
    if (k >= score::kSparseMinK && balance.unit_min_mask() != nullptr) {
      const PartitionId outside =
          score::SparseOutside(k, balance.unit_min_mask(), u_row, v_row);
      if (outside != kInvalidPartition) {
        return score::HdrfPickSparse(k, balance.row(), loads, u_row, v_row,
                                     theta_u, theta_v, outside,
                                     &stats_.bitset_hits);
      }
    }
    if (avx2_) {
      return score::avx2::HdrfPick(k, balance.row(), loads, u_row, v_row,
                                   theta_u, theta_v, scores_.data(),
                                   &stats_.bitset_hits);
    }
    return score::HdrfPickBatched(k, balance.row(), loads, u_row, v_row,
                                  theta_u, theta_v, &stats_.bitset_hits);
  }

  // ---------------------------------------------------------------------
  // HDRF (Section 4.2.2): full state transition per edge — partial-degree
  // updates, scoring, load + balance-row update, replica adds. The
  // state must have degree table, effective loads and replica sets
  // initialized and covering every endpoint of `chunk`. Shared by
  // HdrfPartitioner's in-memory and streaming entry points, so both place
  // edges identically. `degree_hits` counts endpoints the synopsis
  // already held.
  // ---------------------------------------------------------------------
  template <typename PlaceFn>
  void PlaceHdrfChunk(std::span<const StreamEdge> chunk,
                      uint64_t& degree_hits, PlaceFn&& place) {
    ++stats_.batches;
    ReplicaState& replicas = state_.replicas();
    const BalanceRow& balance = state_.balance();
    const uint64_t* loads = state_.loads().data();
    // Every endpoint of the chunk is covered (callers EnsureVertex the
    // whole chunk up front), so degree entries and bit-matrix rows are
    // stable addresses we can pull in ahead of their edge.
    const uint32_t* degrees = state_.degrees().data();
    for (size_t idx = 0; idx < chunk.size(); ++idx) {
      if (idx + kScorePrefetchAhead < chunk.size()) {
        const StreamEdge& f = chunk[idx + kScorePrefetchAhead];
        __builtin_prefetch(&degrees[f.src], 1, 1);
        __builtin_prefetch(&degrees[f.dst], 1, 1);
        __builtin_prefetch(replicas.RowWords(f.src), 1, 1);
        __builtin_prefetch(replicas.RowWords(f.dst), 1, 1);
      }
      const StreamEdge& e = chunk[idx];
      const VertexId u = e.src;
      const VertexId v = e.dst;
      degree_hits += (state_.degree(u) > 0) + (state_.degree(v) > 0);
      state_.IncrementDegree(u);
      state_.IncrementDegree(v);
      // Partial degrees observed so far, normalized: replicating the
      // higher-degree endpoint scores lower, so its locality is
      // sacrificed first.
      const double du = state_.degree(u);
      const double dv = state_.degree(v);
      const double theta_u = du / (du + dv);
      const double theta_v = 1.0 - theta_u;
      const PartitionId best =
          PickHdrf(balance, loads, {replicas.RowWords(u), nullptr},
                   {replicas.RowWords(v), nullptr}, theta_u, theta_v);
      state_.AddLoadUpdatingEffective(best);
      replicas.Add(u, best);
      replicas.Add(v, best);
      place(e, best);
    }
  }

  // ---------------------------------------------------------------------
  // PowerGraph greedy: intersection-first replica-set placement.
  // `ext_degree(v)` is the full degree of v in the input (the busier-
  // endpoint rule compares remaining = full − placed degrees). Sparse
  // replica sets (≤ a handful of set bits) make the word-at-a-time bit
  // scan the fastest shape here; there is no dense-sweep kernel.
  // ---------------------------------------------------------------------
  template <typename ExtDegreeFn, typename PlaceFn>
  void PlacePggChunk(std::span<const StreamEdge> chunk,
                     ExtDegreeFn&& ext_degree, PlaceFn&& place) {
    ++stats_.batches;
    const PartitionId k = state_.k();
    ReplicaState& replicas = state_.replicas();
    const uint64_t* loads = state_.loads().data();
    const double* weights = state_.weights().data();
    // Every set bit scanned is both a bitset hit and an evaluated
    // candidate, so candidates ride on the hit counter's delta.
    auto pick_over = [&](score::MembershipRow row) {
      const uint64_t before = stats_.bitset_hits;
      const PartitionId t = score::LeastLoadedOverBits(k, loads, weights, row,
                                                       &stats_.bitset_hits);
      stats_.candidates += stats_.bitset_hits - before;
      return t;
    };
    for (size_t idx = 0; idx < chunk.size(); ++idx) {
      if (idx + kScorePrefetchAhead < chunk.size()) {
        const StreamEdge& f = chunk[idx + kScorePrefetchAhead];
        __builtin_prefetch(replicas.RowWords(f.src), 1, 1);
        __builtin_prefetch(replicas.RowWords(f.dst), 1, 1);
      }
      const StreamEdge& e = chunk[idx];
      const VertexId u = e.src;
      const VertexId v = e.dst;
      const bool u_empty = replicas.Empty(u);
      const bool v_empty = replicas.Empty(v);
      const score::MembershipRow row_u{replicas.RowWords(u), nullptr};
      const score::MembershipRow row_v{replicas.RowWords(v), nullptr};
      PartitionId target;
      if (!u_empty && !v_empty) {
        bool any = false;
        score::IntersectRows(k, row_u, row_v, inter_words_.data(), &any);
        if (any) {
          target = pick_over({inter_words_.data(), nullptr});
        } else {
          // Disjoint replica sets: place with the replicas of the
          // endpoint that has more unplaced edges left.
          const bool u_busier =
              static_cast<int64_t>(ext_degree(u)) - state_.degree(u) >=
              static_cast<int64_t>(ext_degree(v)) - state_.degree(v);
          target = pick_over(u_busier ? row_u : row_v);
        }
      } else if (!u_empty) {
        target = pick_over(row_u);
      } else if (!v_empty) {
        target = pick_over(row_v);
      } else {
        stats_.candidates += k;
        target = state_.LeastLoaded();
      }
      place(e, target);
      state_.AddLoad(target);
      state_.IncrementDegree(u);
      state_.IncrementDegree(v);
      replicas.Add(u, target);
      replicas.Add(v, target);
    }
  }

  // ---------------------------------------------------------------------
  // Vertex-greedy family (LDG / FENNEL / re-streaming): the caller
  // tallies |P ∩ N(u)| (NeighborTally) and the core performs the k-way
  // pick against `loads` (the state's own, or a sharded driver's combined
  // view) and the term row kept over them. kInvalidPartition when every
  // partition is at capacity.
  // ---------------------------------------------------------------------
  PartitionId PickGreedyVertex(const uint32_t* neighbor_counts,
                               const GreedyTermRow& terms,
                               const uint64_t* loads) {
    const PartitionId k = state_.k();
    stats_.candidates += k;
    if (avx2_) {
      return score::avx2::GreedyPick(k, neighbor_counts, terms.terms(),
                                     terms.room(), loads, terms.ldg(),
                                     scores_.data());
    }
    return score::GreedyPickBatched(k, neighbor_counts, terms.terms(),
                                    terms.room(), loads, terms.ldg(),
                                    scores_.data());
  }

  /// Ginger (Equation 8) pick over caller-materialized combined loads.
  PartitionId PickGingerVertex(const uint32_t* neighbor_counts,
                               const double* combined_loads,
                               double combined_capacity, double alpha,
                               double gamma) {
    stats_.candidates += state_.k();
    if (avx2_) {
      return score::avx2::GingerPick(state_.k(), neighbor_counts,
                                     combined_loads, combined_capacity, alpha,
                                     gamma);
    }
    return score::GingerPickBatched(state_.k(), neighbor_counts,
                                    combined_loads, combined_capacity, alpha,
                                    gamma, scores_.data());
  }

  /// Edge-stream greedy placement rule: least effectively-loaded
  /// partition with room, 0 when all are full.
  PartitionId PickLeastLoadedWithRoom() {
    stats_.candidates += state_.k();
    return score::LeastLoadedWithRoom(state_.k(), state_.loads().data(),
                                      state_.weights().data(),
                                      state_.capacities().data());
  }

  /// All-at-capacity fallback: least effective load, no caps.
  PartitionId PickLeastLoadedAll() {
    stats_.candidates += state_.k();
    return score::LeastLoadedAll(state_.k(), state_.loads().data(),
                                 state_.weights().data());
  }

 private:
  PartitionState& state_;
  const bool avx2_;
  ScoreCoreStats stats_;
  std::vector<double> scores_;         // candidate-score scratch, size k
  std::vector<uint64_t> inter_words_;  // intersection scratch, ceil(k/64)
};

}  // namespace sgp

#endif  // SGP_PARTITION_SCORE_CORE_H_
