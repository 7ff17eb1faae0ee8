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

ScoreCore::ScoreCore(PartitionState& state)
    : state_(state), avx2_(score::avx2::Available()) {
  const PartitionId k = state_.k();
  SGP_CHECK(k > 0);
  scores_.resize(k, 0.0);
  inter_words_.resize((static_cast<uint64_t>(k) + 63) / 64, 0);
  if (state_.replicas_enabled()) state_.replicas().EnableBitIndex(k);
}

}  // namespace sgp
