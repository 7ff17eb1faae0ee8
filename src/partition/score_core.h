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
/// Layering: PartitionState (flat SoA synopsis: loads, effective loads,
/// capacities, degrees, replica sets) → ScoreCore (candidate scoring +
/// argmax with the canonical tie-break: equal score → lighter load →
/// lower id) → partitioner (stream order, gather, placement recording).
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

/// Max effective load and the normalized HDRF spread 1 + (max − min)
/// (ε = 1), in the one accumulation order every HDRF kernel shares.
inline void EffectiveSpread(const double* effective, PartitionId k,
                            double* max_out, double* spread_out) {
  double max_load = 0;
  double min_load = effective[0];
  for (PartitionId i = 0; i < k; ++i) {
    max_load = std::max(max_load, effective[i]);
    min_load = std::min(min_load, effective[i]);
  }
  *max_out = max_load;
  *spread_out = 1.0 + (max_load - min_load);
}

/// Batched HDRF candidate evaluation: one membership word per endpoint
/// per 64-candidate block, branch-free g-term, argmax with the canonical
/// tie-break. The g accumulation order (u-term then v-term) matches the
/// per-candidate probe loop of the oracle, so scores are bit-identical.
inline PartitionId HdrfPickBatched(PartitionId k, const double* effective,
                                   const uint64_t* loads, MembershipRow u_row,
                                   MembershipRow v_row, double theta_u,
                                   double theta_v, double lambda,
                                   double max_load, double spread,
                                   uint64_t* bitset_hits) {
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
      const double sc = g + lambda * (max_load - effective[i]) / spread;
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

/// Objective of the streaming greedy vertex placement (LDG Equation 4,
/// FENNEL Equation 5).
struct GreedyObjective {
  bool ldg = true;
  double alpha = 0.0;     // FENNEL α (per pass, restreaming anneals it)
  double gamma = 1.5;     // FENNEL γ
  bool sqrt_form = true;  // γ == 1.5 → sqrt instead of pow
};

inline double GreedyScore(const GreedyObjective& obj, uint32_t count,
                          double size, double capacity, double weight) {
  if (obj.ldg) {
    return static_cast<double>(count) * (1.0 - size / capacity);
  }
  // Effective load: raw size scaled by inverse capacity, so a twice-as-big
  // machine looks half as loaded.
  const double eff = size / weight;
  const double load =
      obj.sqrt_form ? std::sqrt(eff) : std::pow(eff, obj.gamma - 1.0);
  return static_cast<double>(count) - obj.alpha * obj.gamma * load;
}

/// Batched LDG/FENNEL pick: phase 1 materializes every candidate score
/// into `scores` with capacity violations masked to −inf (branch-free,
/// auto-vectorizable over the SoA arrays); phase 2 is the argmax with the
/// canonical tie-break. A masked −inf can never win (> is strict and the
/// tie-break needs loads[i] < best_load, which starts at 0 with unsigned
/// loads), so selection matches a hard capacity skip exactly;
/// kInvalidPartition when every partition is at capacity.
inline PartitionId GreedyPickBatched(PartitionId k,
                                     const uint32_t* neighbor_counts,
                                     const uint64_t* loads,
                                     const double* weights,
                                     const double* capacity,
                                     const GreedyObjective& obj,
                                     double* scores) {
  for (PartitionId i = 0; i < k; ++i) {
    const double size = static_cast<double>(loads[i]);
    const double sc =
        GreedyScore(obj, neighbor_counts[i], size, capacity[i], weights[i]);
    scores[i] = size + 1.0 > capacity[i] ? kNegInf : sc;
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
// HDRF/cluster, LDG/FENNEL (sqrt form) and Ginger. Each returns the same
// selection as its batched kernel above — and HdrfPick the same bitset
// hits — because every floating-point operation keeps the batched
// kernel's order (the unit is built with -mavx2 only plus
// -ffp-contract=off) and the lane-wise argmax merges through the full
// canonical rule. Preconditions (hold for every caller): partition loads
// < 2^52 and neighbor counts < 2^31. On hosts or toolchains without AVX2,
// Available() is false and ScoreCore never calls the kernels.
namespace avx2 {

bool Available();

PartitionId HdrfPick(PartitionId k, const double* effective,
                     const uint64_t* loads, MembershipRow u_row,
                     MembershipRow v_row, double theta_u, double theta_v,
                     double lambda, double max_load, double spread,
                     uint64_t* bitset_hits);

/// LDG or sqrt-form FENNEL only (pow-form FENNEL stays batched).
PartitionId GreedyPick(PartitionId k, const uint32_t* neighbor_counts,
                       const uint64_t* loads, const double* weights,
                       const double* capacity, const GreedyObjective& obj);

PartitionId GingerPick(PartitionId k, const uint32_t* neighbor_counts,
                       const double* combined_loads, double combined_capacity,
                       double alpha, double gamma);

}  // namespace avx2

}  // namespace score

/// Edges of lookahead in the chunked scoring loops: while edge i is being
/// scored, the degree entries and bit-matrix rows of edge i+8 are pulled
/// toward the cache. 8 edges ≈ the latency of one k-way sweep.
inline constexpr size_t kScorePrefetchAhead = 8;

/// Per-run scoring context: binds a PartitionState, the kernel choice
/// (AVX2 when the CPU has it, else batched), the scratch buffers
/// (candidate scores, intersection words) and the decision counters;
/// enables the replica bit index. Flushes partition.score.* on
/// destruction.
class ScoreCore {
 public:
  explicit ScoreCore(PartitionState& state);
  ~ScoreCore() { FlushScoreCoreStats(stats_); }

  ScoreCore(const ScoreCore&) = delete;
  ScoreCore& operator=(const ScoreCore&) = delete;

  ScoreCoreStats& stats() { return stats_; }

  /// Marks one batch of stream elements entering the scorer (callers that
  /// drive per-element picks, e.g. the vertex-greedy gather loop, call it
  /// once per source chunk).
  void NoteBatch() { ++stats_.batches; }

  /// HDRF-shaped k-way pick (Equation 7 g-term + normalized λ balance
  /// term) over caller-provided effective and raw loads — the state's own
  /// or a sharded driver's combined view — and membership rows.
  PartitionId PickHdrf(const double* effective, const uint64_t* loads,
                       score::MembershipRow u_row, score::MembershipRow v_row,
                       double theta_u, double theta_v, double lambda) {
    const PartitionId k = state_.k();
    stats_.candidates += k;
    // Balance term in the normalized form of the HDRF paper:
    // λ · (maxsize − |Pi|)/(ε + maxsize − minsize). Equation (7) of the
    // survey abbreviates this as λ(1 − |e(Pi)|/C); the normalized form is
    // what keeps the algorithm balanced under adversarial (BFS) orders.
    double max_load, spread;
    score::EffectiveSpread(effective, k, &max_load, &spread);
    if (avx2_) {
      return score::avx2::HdrfPick(k, effective, loads, u_row, v_row,
                                   theta_u, theta_v, lambda, max_load, spread,
                                   &stats_.bitset_hits);
    }
    return score::HdrfPickBatched(k, effective, loads, u_row, v_row, theta_u,
                                  theta_v, lambda, max_load, spread,
                                  &stats_.bitset_hits);
  }

  // ---------------------------------------------------------------------
  // HDRF (Section 4.2.2): full state transition per edge — partial-degree
  // updates, scoring, load + effective-load update, replica adds. The
  // state must have degree table, effective loads and replica sets
  // initialized and covering every endpoint of `chunk`. Shared by
  // HdrfPartitioner's in-memory and streaming entry points, so both place
  // edges identically. `degree_hits` counts endpoints the synopsis
  // already held.
  // ---------------------------------------------------------------------
  template <typename PlaceFn>
  void PlaceHdrfChunk(std::span<const StreamEdge> chunk, double lambda,
                      uint64_t& degree_hits, PlaceFn&& place) {
    ++stats_.batches;
    ReplicaState& replicas = state_.replicas();
    const double* effective = state_.effective().data();
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
          PickHdrf(effective, loads, {replicas.RowWords(u), nullptr},
                   {replicas.RowWords(v), nullptr}, theta_u, theta_v, lambda);
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
      const bool u_empty = replicas.Of(u).empty();
      const bool v_empty = replicas.Of(v).empty();
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
  // gathers |P ∩ N(u)| into a dense scratch and the core performs the
  // k-way pick against `loads` (the state's own, or a sharded driver's
  // combined view) and the state's weights and capacities.
  // kInvalidPartition when every partition is at capacity.
  // ---------------------------------------------------------------------
  PartitionId PickGreedyVertex(const uint32_t* neighbor_counts,
                               const uint64_t* loads,
                               const score::GreedyObjective& objective) {
    stats_.candidates += state_.k();
    if (avx2_ && (objective.ldg || objective.sqrt_form)) {
      return score::avx2::GreedyPick(state_.k(), neighbor_counts, loads,
                                     state_.weights().data(),
                                     state_.capacities().data(), objective);
    }
    return score::GreedyPickBatched(state_.k(), neighbor_counts, loads,
                                    state_.weights().data(),
                                    state_.capacities().data(), objective,
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
  std::vector<double> scores_;         // batched candidate scores, size k
  std::vector<uint64_t> inter_words_;  // intersection scratch, ceil(k/64)
};

}  // namespace sgp

#endif  // SGP_PARTITION_SCORE_CORE_H_
