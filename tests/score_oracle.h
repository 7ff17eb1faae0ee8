#ifndef SGP_TESTS_SCORE_ORACLE_H_
#define SGP_TESTS_SCORE_ORACLE_H_

// Scalar reference loops of the scoring core: the per-element,
// per-candidate shapes that the production kernels (partition/score_core.h
// and partition/score_avx2.cc) replaced. They are the oracles of the
// kernel differential suite and of the whole-stream checks in
// tests/score_core_test.cc. Every floating-point expression keeps the
// operation order of the production kernels, so an oracle and a kernel
// must agree on the chosen partition, tie-breaks included (equal score →
// lighter load → lower id).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "partition/score_core.h"
#include "partition/state.h"

namespace sgp::oracle {

/// Max effective load and the normalized HDRF spread 1 + (max − min)
/// (ε = 1), by one fresh sweep over all k partitions: what BalanceRow
/// (partition/state.h) memoises.
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

/// HDRF-shaped pick (Equation 7 g-term + normalized λ balance term,
/// computed per candidate from the effective loads) with one membership
/// probe per candidate: `in_u(i)` / `in_v(i)` say whether
/// partition i counts as a replica of u / v (for 2PS, replica or cluster
/// home). Adds the number of set memberships to `*bitset_hits`.
template <typename InU, typename InV>
PartitionId HdrfPickScalar(PartitionId k, const double* effective,
                           const uint64_t* loads, InU&& in_u, InV&& in_v,
                           double theta_u, double theta_v, double lambda,
                           double max_load, double spread,
                           uint64_t* bitset_hits) {
  const double gain_u = 1.0 + theta_v;
  const double gain_v = 1.0 + theta_u;
  PartitionId best = 0;
  double best_score = score::kNegInf;
  for (PartitionId i = 0; i < k; ++i) {
    const bool has_u = in_u(i);
    const bool has_v = in_v(i);
    *bitset_hits += static_cast<uint64_t>(has_u) + has_v;
    const double bu = static_cast<double>(static_cast<unsigned>(has_u));
    const double bv = static_cast<double>(static_cast<unsigned>(has_v));
    const double g = bu * gain_u + bv * gain_v;
    const double sc = g + lambda * (max_load - effective[i]) / spread;
    if (sc > best_score) {
      best_score = sc;
      best = i;
    } else if (sc == best_score && loads[i] < loads[best]) {
      best = i;
    }
  }
  return best;
}

/// Full single-edge HDRF transition over `state` (degree table, effective
/// loads and replica sets initialized and covering u and v): partial
/// degree update, Contains-probe scoring from a fresh EffectiveSpread
/// sweep, load and replica commit.
inline PartitionId PlaceHdrfEdgeScalar(PartitionState& state, VertexId u,
                                       VertexId v, double lambda) {
  const PartitionId k = state.k();
  const std::vector<uint64_t>& loads = state.loads();
  const std::vector<double>& effective = state.balance().effective();
  ReplicaState& replicas = state.replicas();
  state.IncrementDegree(u);
  state.IncrementDegree(v);
  const double du = state.degree(u);
  const double dv = state.degree(v);
  const double theta_u = du / (du + dv);
  const double theta_v = 1.0 - theta_u;
  double max_load, spread;
  EffectiveSpread(effective.data(), k, &max_load, &spread);
  PartitionId best = 0;
  double best_score = score::kNegInf;
  for (PartitionId i = 0; i < k; ++i) {
    double g = 0;
    if (replicas.Contains(u, i)) g += 1.0 + theta_v;
    if (replicas.Contains(v, i)) g += 1.0 + theta_u;
    const double sc = g + lambda * (max_load - effective[i]) / spread;
    if (sc > best_score) {
      best_score = sc;
      best = i;
    } else if (sc == best_score && loads[i] < loads[best]) {
      best = i;
    }
  }
  state.AddLoadUpdatingEffective(best);
  replicas.Add(u, best);
  replicas.Add(v, best);
  return best;
}

/// Least effectively-loaded partition among `candidates` (non-empty),
/// ties toward the lower id.
inline PartitionId LeastLoadedAmong(const PartitionState& state,
                                    const std::vector<PartitionId>& cands) {
  PartitionId best = cands.front();
  double best_load = state.EffectiveLoad(best);
  for (PartitionId p : cands) {
    const double load = state.EffectiveLoad(p);
    if (load < best_load || (load == best_load && p < best)) {
      best_load = load;
      best = p;
    }
  }
  return best;
}

/// PowerGraph greedy decision for edge (u, v) by replica-set walks:
/// least-loaded partition of the intersection, else of the busier
/// endpoint's set (more unplaced edges left), else of the non-empty set,
/// else of all k. `ext_degree_*` are full input degrees. Decision only:
/// the caller commits load, placed degrees and replicas.
inline PartitionId PickPggScalar(const PartitionState& state, VertexId u,
                                 VertexId v, uint32_t ext_degree_u,
                                 uint32_t ext_degree_v) {
  const ReplicaState& replicas = state.replicas();
  std::vector<PartitionId> setu, setv;
  replicas.ForEach(u, [&](PartitionId p) { setu.push_back(p); });
  replicas.ForEach(v, [&](PartitionId p) { setv.push_back(p); });
  if (!setu.empty() && !setv.empty()) {
    std::vector<PartitionId> inter;
    for (PartitionId p : setu) {
      if (replicas.Contains(v, p)) inter.push_back(p);
    }
    if (!inter.empty()) return LeastLoadedAmong(state, inter);
    const bool u_busier =
        static_cast<int64_t>(ext_degree_u) - state.degree(u) >=
        static_cast<int64_t>(ext_degree_v) - state.degree(v);
    return LeastLoadedAmong(state, u_busier ? setu : setv);
  }
  if (!setu.empty()) return LeastLoadedAmong(state, setu);
  if (!setv.empty()) return LeastLoadedAmong(state, setv);
  std::vector<PartitionId> all(state.k());
  for (PartitionId i = 0; i < state.k(); ++i) all[i] = i;
  return LeastLoadedAmong(state, all);
}

/// LDG (Equation 4) or FENNEL (Equation 5) score of a candidate holding
/// `count` neighbours and `size` vertices, recomputed from scratch: the
/// definition the memoised GreedyTermRow must reproduce bit for bit.
inline double GreedyScore(const GreedyObjective& obj, uint32_t count,
                          double size, double capacity, double weight) {
  if (obj.ldg) {
    return static_cast<double>(count) * (1.0 - size / capacity);
  }
  // Effective load: raw size scaled by inverse capacity, so a twice-as-big
  // machine looks half as loaded.
  const double eff = size / weight;
  const double load =
      obj.gamma == 1.5 ? std::sqrt(eff) : std::pow(eff, obj.gamma - 1.0);
  return static_cast<double>(count) - obj.alpha * obj.gamma * load;
}

/// LDG/FENNEL pick with a hard capacity skip, argmax, ties toward the
/// smaller partition. kInvalidPartition when every partition is full.
inline PartitionId GreedyPickScalar(PartitionId k,
                                    const uint32_t* neighbor_counts,
                                    const uint64_t* loads,
                                    const double* weights,
                                    const double* capacity,
                                    const GreedyObjective& obj) {
  PartitionId best = kInvalidPartition;
  double best_score = score::kNegInf;
  uint64_t best_load = 0;
  for (PartitionId i = 0; i < k; ++i) {
    const double size = static_cast<double>(loads[i]);
    if (size + 1.0 > capacity[i]) continue;  // hard balance constraint
    const double sc =
        GreedyScore(obj, neighbor_counts[i], size, capacity[i], weights[i]);
    if (sc > best_score) {
      best_score = sc;
      best = i;
      best_load = loads[i];
    } else if (sc == best_score && loads[i] < best_load) {
      best = i;
      best_load = loads[i];
    }
  }
  return best;
}

/// Ginger pick over combined loads: candidates at or above the combined
/// capacity are skipped, ties toward the smaller combined load.
inline PartitionId GingerPickScalar(PartitionId k,
                                    const uint32_t* neighbor_counts,
                                    const double* combined_loads,
                                    double combined_capacity, double alpha,
                                    double gamma) {
  PartitionId best = kInvalidPartition;
  double best_score = score::kNegInf;
  double best_load = 0;
  for (PartitionId i = 0; i < k; ++i) {
    const double load = combined_loads[i];
    if (load >= combined_capacity) continue;
    const double sc = static_cast<double>(neighbor_counts[i]) -
                      alpha * gamma * std::sqrt(load);
    if (sc > best_score || (sc == best_score && load < best_load)) {
      best_score = sc;
      best = i;
      best_load = load;
    }
  }
  return best;
}

/// Least effectively-loaded partition with room for one more element,
/// ties toward the lower id; 0 when every partition is full.
inline PartitionId LeastLoadedWithRoomScalar(PartitionId k,
                                             const uint64_t* loads,
                                             const double* weights,
                                             const double* capacity) {
  PartitionId best = kInvalidPartition;
  for (PartitionId i = 0; i < k; ++i) {
    if (static_cast<double>(loads[i]) + 1.0 > capacity[i]) continue;
    if (best == kInvalidPartition ||
        static_cast<double>(loads[i]) / weights[i] <
            static_cast<double>(loads[best]) / weights[best]) {
      best = i;
    }
  }
  return best == kInvalidPartition ? 0 : best;
}

/// Least effectively-loaded partition over all k, ties toward the lower
/// id.
inline PartitionId LeastLoadedAllScalar(PartitionId k, const uint64_t* loads,
                                        const double* weights) {
  PartitionId best = 0;
  for (PartitionId i = 1; i < k; ++i) {
    if (static_cast<double>(loads[i]) / weights[i] <
        static_cast<double>(loads[best]) / weights[best]) {
      best = i;
    }
  }
  return best;
}

}  // namespace sgp::oracle

#endif  // SGP_TESTS_SCORE_ORACLE_H_
