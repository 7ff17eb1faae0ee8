#include "partition/state.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/telemetry.h"

namespace sgp {

namespace {

// State-layer instrumentation: how many synopses were built and how many
// bytes they held at construction-complete time (docs/OBSERVABILITY.md,
// partition.state.*). Bytes are recorded by the algorithms when they
// finish, via Partitioning::state_bytes, so the registry only counts
// constructions here.
struct StateMetrics {
  Counter* builds = nullptr;

  StateMetrics() = default;
  explicit StateMetrics(MetricsRegistry& reg) {
    builds = reg.GetCounter("partition.state.builds");
  }

  static StateMetrics& Get() {
    return CurrentRegistryMetrics<StateMetrics>();
  }
};

// Mean-1 normalized capacity weights: empty input (homogeneous) yields
// all-ones; otherwise weights scaled so they average 1. Aborts if a
// non-empty vector has the wrong size or non-positive entries. File-local:
// every algorithm gets its weights through PartitionState.
std::vector<double> NormalizedCapacities(const PartitionConfig& config) {
  if (config.capacity_weights.empty()) {
    return std::vector<double>(config.k, 1.0);
  }
  SGP_CHECK(config.capacity_weights.size() == config.k);
  double sum = 0;
  for (double w : config.capacity_weights) {
    SGP_CHECK(w > 0);
    sum += w;
  }
  std::vector<double> out(config.capacity_weights);
  const double scale = static_cast<double>(config.k) / sum;
  for (double& w : out) w *= scale;
  return out;
}

template <typename T>
uint64_t VectorBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

PartitionState::PartitionState(const PartitionConfig& config)
    : k_(config.k),
      heterogeneous_(!config.capacity_weights.empty()),
      weights_(NormalizedCapacities(config)),
      loads_(config.k, 0),
      balance_(config.hdrf_lambda) {
  SGP_CHECK(k_ > 0);
  StateMetrics::Get().builds->Increment();
}

PartitionId PartitionState::LeastLoaded() const {
  PartitionId best = 0;
  double best_load = EffectiveLoad(0);
  for (PartitionId i = 1; i < k_; ++i) {
    const double load = EffectiveLoad(i);
    if (load < best_load) {
      best_load = load;
      best = i;
    }
  }
  return best;
}

void PartitionState::InitCapacities(uint64_t total_items,
                                    double balance_slack) {
  capacity_.resize(k_);
  for (PartitionId i = 0; i < k_; ++i) {
    capacity_[i] = std::max(
        1.0, balance_slack * static_cast<double>(total_items) /
                 static_cast<double>(k_) * weights_[i]);
  }
}

void BalanceRow::Reset(PartitionId k, const uint64_t* loads,
                       const double* weights) {
  SGP_CHECK(std::isfinite(lambda_) && lambda_ >= 0);
  effective_.resize(k);
  row_.resize(k);
  min_mask_.resize((static_cast<size_t>(k) + 63) / 64);
  max_ = 0;
  unit_weights_ = true;
  for (PartitionId i = 0; i < k; ++i) {
    effective_[i] = static_cast<double>(loads[i]) / weights[i];
    max_ = std::max(max_, effective_[i]);
    unit_weights_ = unit_weights_ && weights[i] == 1.0;
  }
  RescanMin();
  Refresh(0);
}

void BalanceRow::RescanMin() {
  min_ = effective_[0];
  at_min_ = 0;
  for (double eff : effective_) {
    if (eff < min_) {
      min_ = eff;
      at_min_ = 1;
    } else if (eff == min_) {
      ++at_min_;
    }
  }
  const size_t k = effective_.size();
  for (size_t blk = 0; blk < k; blk += 64) {
    uint64_t bits = 0;
    for (size_t i = blk; i < std::min(k, blk + 64); ++i) {
      bits |= uint64_t{effective_[i] == min_} << (i - blk);
    }
    min_mask_[blk >> 6] = bits;
  }
}

void BalanceRow::Refresh(PartitionId grown) {
  spread_ = 1.0 + (max_ - min_);
  // Locals, so the compiler need not reload the members through the row
  // stores and can vectorise the loops.
  const double lambda = lambda_, max_load = max_, spread = spread_;
  const size_t k = row_.size();
  const double* eff = effective_.data();
  double* row = row_.data();
  if (at_min_ + 1 == k && eff[grown] != min_) {
    // Every partition but `grown` sits at the min, so they share one
    // term; one partition taking every edge (a depth-first stream of a
    // low-degree graph) lands here on every placement.
    const double at_min = lambda * (max_load - min_) / spread;
    for (size_t i = 0; i < k; ++i) row[i] = at_min;
    row[grown] = lambda * (max_load - eff[grown]) / spread;
    return;
  }
  for (size_t i = 0; i < k; ++i) {
    row[i] = lambda * (max_load - eff[i]) / spread;
  }
}

void PartitionState::InitEffectiveLoads() {
  balance_.Reset(k_, loads_.data(), weights_.data());
}

void GreedyTermRow::Reset(const GreedyObjective& objective, PartitionId k,
                          const uint64_t* loads, const double* weights,
                          const double* capacities) {
  ldg_ = objective.ldg;
  if (!ldg_) {
    SGP_CHECK(std::isfinite(objective.gamma) && objective.gamma >= 1.0);
    SGP_CHECK(std::isfinite(objective.alpha) && objective.alpha >= 0.0);
  }
  gamma_ = objective.gamma;
  sqrt_form_ = gamma_ == 1.5;
  alpha_gamma_ = objective.alpha * objective.gamma;
  terms_.resize(k);
  room_.resize(k);
  for (PartitionId i = 0; i < k; ++i) {
    Set(i, loads[i], weights[i], capacities[i]);
  }
}

void PartitionState::InitGreedyTerms(const GreedyObjective& objective) {
  SGP_CHECK(capacity_.size() == k_);
  greedy_terms_.Reset(objective, k_, loads_.data(), weights_.data(),
                      capacity_.data());
}

void PartitionState::InitSecondaryLoads() { secondary_.assign(k_, 0); }

void PartitionState::InitDegreeTable(VertexId num_vertices) {
  degree_.assign(num_vertices, 0);
  degree_enabled_ = true;
}

void PartitionState::InitReplicas(VertexId num_vertices) {
  replicas_ = ReplicaState(num_vertices, k_);
  replicas_enabled_ = true;
}

void PartitionState::EnsureVertex(VertexId v) {
  if (degree_enabled_ && v >= degree_.size()) {
    degree_.resize(static_cast<size_t>(v) + 1, 0);
  }
  if (replicas_enabled_) replicas_.EnsureVertex(v);
}

uint64_t PartitionState::SynopsisBytes() const {
  uint64_t bytes = VectorBytes(weights_) + VectorBytes(loads_) +
                   VectorBytes(capacity_) + balance_.MemoryBytes() +
                   greedy_terms_.MemoryBytes() + VectorBytes(secondary_) +
                   VectorBytes(degree_);
  if (replicas_enabled_) bytes += replicas_.SynopsisBytes();
  return bytes + aux_bytes_;
}

CapacityAwareHasher::CapacityAwareHasher(const PartitionState& state)
    : k_(state.k()) {
  SGP_CHECK(k_ > 0);
  if (!state.heterogeneous()) return;
  const std::vector<double>& norm = state.weights();
  cumulative_.resize(k_);
  double acc = 0;
  for (PartitionId i = 0; i < k_; ++i) {
    acc += norm[i];
    cumulative_[i] = acc;
  }
  cumulative_.back() = static_cast<double>(k_);  // guard rounding
}

PartitionId CapacityAwareHasher::Pick(uint64_t hash) const {
  if (cumulative_.empty()) return static_cast<PartitionId>(hash % k_);
  const double u = static_cast<double>(hash >> 11) * 0x1.0p-53 *
                   static_cast<double>(k_);
  auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
  if (it == cumulative_.end()) --it;
  return static_cast<PartitionId>(it - cumulative_.begin());
}

ShardedPartitionState::ShardedPartitionState(const PartitionConfig& config,
                                             uint32_t num_workers)
    : global_(config),
      delta_loads_(num_workers,
                   std::vector<uint64_t>(config.k, 0)),
      delta_degrees_(num_workers),
      touched_degrees_(num_workers),
      delta_replicas_(num_workers),
      replica_records_(num_workers) {
  SGP_CHECK(num_workers > 0);
}

void ShardedPartitionState::InitDegreeTable(VertexId num_vertices) {
  global_.InitDegreeTable(num_vertices);
  for (auto& d : delta_degrees_) d.assign(num_vertices, 0);
}

void ShardedPartitionState::IncrementWorkerDegree(uint32_t w, VertexId v) {
  if (delta_degrees_[w][v] == 0) touched_degrees_[w].push_back(v);
  ++delta_degrees_[w][v];
}

void ShardedPartitionState::InitReplicas(VertexId num_vertices) {
  global_.InitReplicas(num_vertices);
  for (auto& r : delta_replicas_) r = ReplicaState(num_vertices, global_.k());
}

void ShardedPartitionState::AddWorkerReplica(uint32_t w, VertexId u,
                                             PartitionId p) {
  delta_replicas_[w].Add(u, p);
  replica_records_[w].emplace_back(u, p);
}

void ShardedPartitionState::Publish() {
  const PartitionId k = global_.k();
  for (uint32_t w = 0; w < num_workers(); ++w) {
    for (PartitionId p = 0; p < k; ++p) {
      for (uint64_t i = 0; i < delta_loads_[w][p]; ++i) global_.AddLoad(p);
      delta_loads_[w][p] = 0;
    }
    for (VertexId v : touched_degrees_[w]) {
      for (uint32_t i = 0; i < delta_degrees_[w][v]; ++i) {
        global_.IncrementDegree(v);
      }
      delta_degrees_[w][v] = 0;
    }
    touched_degrees_[w].clear();
    for (const auto& [u, p] : replica_records_[w]) {
      global_.replicas().Add(u, p);
      delta_replicas_[w].Clear(u);
    }
    replica_records_[w].clear();
  }
  if (global_.balance().enabled()) global_.InitEffectiveLoads();
}

uint64_t ShardedPartitionState::SynopsisBytes() const {
  uint64_t bytes = global_.SynopsisBytes();
  for (uint32_t w = 0; w < num_workers(); ++w) {
    bytes += VectorBytes(delta_loads_[w]) + VectorBytes(delta_degrees_[w]) +
             VectorBytes(touched_degrees_[w]) +
             VectorBytes(replica_records_[w]) +
             delta_replicas_[w].SynopsisBytes();
  }
  return bytes;
}

}  // namespace sgp
