#include "partition/score_core.h"

#include "common/telemetry.h"

namespace sgp {

namespace {

// Scoring-core instrumentation (docs/OBSERVABILITY.md, partition.score.*).
// Counters are accumulated in ScoreCoreStats locals on the hot path and
// land here once per run.
struct ScoreMetrics {
  Counter* batches = nullptr;
  Counter* candidates = nullptr;
  Counter* bitset_hits = nullptr;

  ScoreMetrics() = default;
  explicit ScoreMetrics(MetricsRegistry& reg) {
    batches = reg.GetCounter("partition.score.batches");
    candidates = reg.GetCounter("partition.score.candidates");
    bitset_hits = reg.GetCounter("partition.score.bitset_hits");
  }

  static ScoreMetrics& Get() { return CurrentRegistryMetrics<ScoreMetrics>(); }
};

}  // namespace

void FlushScoreCoreStats(const ScoreCoreStats& stats) {
  ScoreMetrics& m = ScoreMetrics::Get();
  if (stats.batches > 0) m.batches->Increment(stats.batches);
  if (stats.candidates > 0) m.candidates->Increment(stats.candidates);
  if (stats.bitset_hits > 0) m.bitset_hits->Increment(stats.bitset_hits);
}

namespace score {

PartitionId HdrfPickSparse(PartitionId k, const double* balance,
                           const uint64_t* loads, MembershipRow u_row,
                           MembershipRow v_row, double theta_u,
                           double theta_v, PartitionId outside,
                           uint64_t* bitset_hits) {
  // The union's members, with no branch per member: each word offers its
  // first kSparseUnionMax set bits, and a missing one (countr_zero == 64)
  // is written to the next free slot without being kept.
  PartitionId members[kSparseUnionMax + 1];
  int num_members = 0;
  for (PartitionId blk = 0; blk < k; blk += 64) {
    const PartitionId lim = std::min<PartitionId>(k, blk + 64);
    const uint64_t mask = lim - blk == 64
                              ? ~uint64_t{0}
                              : (uint64_t{1} << (lim - blk)) - 1;
    uint64_t bits = (u_row.Word(blk >> 6) | v_row.Word(blk >> 6)) & mask;
    for (int j = 0; j < kSparseUnionMax; ++j, bits &= bits - 1) {
      const int b = std::countr_zero(bits);
      members[std::min(num_members, kSparseUnionMax)] =
          blk + static_cast<PartitionId>(b);
      num_members += b < 64;
    }
  }

  // The sweep's score, then the canonical rule: higher score, then
  // lighter load, then lower id. Absent members repeat `outside`, which
  // is in neither row and never beats itself.
  const double gain_u = 1.0 + theta_v;  // g of replicating endpoint u
  const double gain_v = 1.0 + theta_u;
  const double g_outside = 0.0 * gain_u + 0.0 * gain_v;
  PartitionId best = outside;
  double best_score = g_outside + balance[outside];
  uint64_t best_load = loads[outside];
  uint64_t hits = 0;
  for (int j = 0; j < kSparseUnionMax; ++j) {
    const PartitionId i = j < num_members ? members[j] : outside;
    const bool in_u = u_row.Test(i);
    const bool in_v = v_row.Test(i);
    hits += static_cast<uint64_t>(in_u) + static_cast<uint64_t>(in_v);
    const double g = static_cast<double>(in_u) * gain_u +
                     static_cast<double>(in_v) * gain_v;
    const double sc = g + balance[i];
    const uint64_t load = loads[i];
    const bool take =
        (sc > best_score) |
        ((sc == best_score) &
         ((load < best_load) | ((load == best_load) & (i < best))));
    best = take ? i : best;
    best_score = take ? sc : best_score;
    best_load = take ? load : best_load;
  }
  *bitset_hits += hits;
  return best;
}

}  // namespace score

ScoreCore::ScoreCore(PartitionState& state)
    : state_(state), avx2_(score::avx2::Available()) {
  const PartitionId k = state_.k();
  SGP_CHECK(k > 0);
  scores_.resize(k, 0.0);
  inter_words_.resize((static_cast<uint64_t>(k) + 63) / 64, 0);
}

}  // namespace sgp
