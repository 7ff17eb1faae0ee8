#ifndef SGP_COMMON_TELEMETRY_H_
#define SGP_COMMON_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/timer.h"

namespace sgp {

/// Unified metrics layer. The paper's contribution is
/// *measurement* — communication volume, replication factor, latency
/// quantiles, load imbalance — so the library instruments itself: every
/// subsystem publishes counters, gauges and histograms into a
/// MetricsRegistry, and the benchmark harnesses export machine-readable
/// snapshots (BENCH_*.json) next to their human tables.
///
/// Naming convention: `subsystem.metric.unit`, e.g.
/// `engine.network.bytes`, `graphdb.query_latency.one_hop.sim_seconds`.
/// The unit suffix distinguishes simulated clocks (`sim_seconds`,
/// deterministic given identical seeds) from wall clocks (`wall_seconds`,
/// never deterministic). Wall-clock metrics must additionally be
/// registered with MetricOptions::wall_time so deterministic exports can
/// exclude them (see docs/OBSERVABILITY.md).

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// Monotonic event counter. Increments are relaxed atomics — safe from any
/// thread, never a lock on a hot path. Negative deltas are ignored and
/// additions saturate at the maximum instead of wrapping, so a counter
/// read is always a valid event count.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    uint64_t cur = value_.load(std::memory_order_relaxed);
    uint64_t next;
    do {
      next = cur > std::numeric_limits<uint64_t>::max() - delta
                 ? std::numeric_limits<uint64_t>::max()  // saturate
                 : cur + delta;
    } while (!value_.compare_exchange_weak(cur, next,
                                           std::memory_order_relaxed));
  }

  /// Signed convenience entry point; negative deltas are dropped (a
  /// counter is monotonic by contract).
  void Add(int64_t delta) {
    if (delta > 0) Increment(static_cast<uint64_t>(delta));
  }

  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written / accumulated double value (e.g. barrier-wait seconds,
/// replication factor). Set and Add are atomic (CAS loop — portable, no
/// lock).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }

  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }

  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-spaced bucket layout of a Histogram. The default covers 1 ns to
/// ~17 min (1e-9 .. 1e3 seconds) at 32 buckets per decade, i.e. a worst
/// case relative quantile error of 10^(1/32) − 1 ≈ 7.5% (half that with
/// the geometric-midpoint interpolation the quantile query uses).
struct HistogramOptions {
  double min_bound = 1e-9;
  double max_bound = 1e3;
  uint32_t buckets_per_decade = 32;
};

/// Fixed-bucket histogram with log-spaced boundaries. Recording is a
/// binary search plus relaxed atomic increments — thread-safe and
/// lock-free. Because the bucket layout is fixed at construction, merging
/// two histograms (MergeFrom) is exact: the merged quantiles are
/// bit-identical to a histogram that recorded the concatenated samples.
class Histogram {
 public:
  explicit Histogram(const HistogramOptions& options = {});

  /// Records one sample. NaN is ignored; values at or below min_bound
  /// land in the underflow bucket, values above max_bound in the overflow
  /// bucket — count/sum/min/max stay exact either way.
  void Record(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;  // 0 when empty
  double max() const;  // 0 when empty
  double mean() const;

  /// Quantile estimate (q in [0,1]) by geometric interpolation inside the
  /// containing bucket, clamped to the exact observed [min, max].
  double Quantile(double q) const;

  /// Adds `other`'s samples into this histogram. Both must share the same
  /// bucket layout (checked).
  void MergeFrom(const Histogram& other);

  void Reset();

  const HistogramOptions& options() const { return options_; }

  /// Upper bound of bucket `i` (the last bucket's bound is +inf).
  double BucketUpperBound(size_t i) const;
  size_t num_buckets() const { return counts_.size(); }
  uint64_t BucketCount(size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }

  /// (bucket index, count) for every non-empty bucket, ascending index.
  std::vector<std::pair<uint32_t, uint64_t>> NonZeroBuckets() const;

 private:
  HistogramOptions options_;
  std::vector<double> upper_bounds_;  // ascending; size = buckets - 1
  std::vector<std::atomic<uint64_t>> counts_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// RAII wall-clock stopwatch recording its elapsed seconds into a
/// Histogram on destruction. Built on common/timer.h (one clock
/// implementation in the codebase). A null histogram makes it inert.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram) : histogram_(histogram) {}
  ~ScopedTimer() {
    if (histogram_ != nullptr) histogram_->Record(timer_.ElapsedSeconds());
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Elapsed so far (for mid-scope checkpoints).
  double ElapsedSeconds() const { return timer_.ElapsedSeconds(); }

 private:
  Histogram* histogram_;
  Timer timer_;
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

enum class MetricKind { kCounter, kGauge, kHistogram };

struct MetricOptions {
  /// Marks a metric as wall-clock derived: excluded by deterministic
  /// exports (identical seeds then produce byte-identical snapshots).
  bool wall_time = false;

  /// Bucket layout for GetHistogram (ignored by counters/gauges, and by
  /// lookups of an already-registered histogram).
  HistogramOptions histogram;

  /// Options for a wall-clock metric (every ScopedTimer-fed metric
  /// must use this so deterministic exports can exclude it).
  static MetricOptions WallClock() {
    MetricOptions options;
    options.wall_time = true;
    return options;
  }
};

enum class MetricFilter {
  kAll,
  kDeterministicOnly,  // excludes wall_time metrics
  kWallTimeOnly,
};

/// One exported metric value — the unit of the JSON schema.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  bool wall_time = false;

  uint64_t counter_value = 0;  // kCounter
  double gauge_value = 0;      // kGauge

  // kHistogram
  uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  double mean = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double p999 = 0;
  double h_min_bound = 0;
  double h_max_bound = 0;
  uint32_t h_buckets_per_decade = 0;
  std::vector<std::pair<uint32_t, uint64_t>> buckets;  // non-empty only
};

/// Thread-safe registry of named metrics.
/// Registration (Get*) takes a lock and is meant for setup / cold paths;
/// the returned pointers are stable for the registry's lifetime and are
/// what hot paths use. Exports iterate metrics in name order, so a
/// snapshot of deterministic metrics is byte-identical across runs with
/// identical seeds.
class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry the library's built-in instrumentation
  /// publishes into.
  static MetricsRegistry& Global();

  /// The calling thread's active registry: the innermost
  /// ScopedMetricsRegistry on this thread, or Global() when none is
  /// installed. All built-in instrumentation publishes here, which is how
  /// the experiment grid isolates per-cell telemetry.
  static MetricsRegistry& Current();

  /// Process-unique id (never 0). Lets callers cache metric pointers per
  /// registry and detect when the current registry changed (see
  /// CurrentRegistryMetrics).
  uint64_t id() const { return id_; }

  /// Folds `other`'s metrics into this registry: counters add, gauges add
  /// (the library's gauges are all accumulators), histograms merge
  /// exactly (same bucket layout required). Metrics missing here are
  /// registered with `other`'s kind, wall-time flag and bucket layout; a
  /// name registered under a different kind aborts. Merging the same
  /// registries in the same order is deterministic.
  void MergeFrom(const MetricsRegistry& other);

  /// Returns the metric registered under `name`, creating it on first
  /// use. Registering the same name under a different kind aborts.
  Counter* GetCounter(std::string_view name, const MetricOptions& options = {});
  Gauge* GetGauge(std::string_view name, const MetricOptions& options = {});
  Histogram* GetHistogram(std::string_view name,
                          const MetricOptions& options = {});

  /// Zeroes every registered metric; registrations (and previously
  /// returned pointers) stay valid.
  void Reset();

  /// Name-ordered snapshot of the registered metrics.
  std::vector<MetricSample> Snapshot(
      MetricFilter filter = MetricFilter::kAll) const;

  /// JSON document: {"schema":"sgp.metrics.v1","metrics":[...]}.
  /// Deterministic: metrics are name-ordered and doubles print as
  /// shortest round-trippable form.
  std::string ExportJson(MetricFilter filter = MetricFilter::kAll) const;

 private:
  struct Entry {
    MetricKind kind;
    bool wall_time = false;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  // Lock-free lookup-or-create shared by the public Get* entry points and
  // MergeFrom (which already holds mu_).
  Entry* FindOrCreateLocked(std::string_view name, MetricKind kind,
                            const MetricOptions& options);

  const uint64_t id_;
  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> metrics_;
};

/// RAII override of MetricsRegistry::Current() for the constructing
/// thread. Scopes nest; destruction restores the previous registry. The
/// experiment grid installs one per cell so each cell's telemetry lands
/// in its own registry and is merged into the caller's after the cell.
class ScopedMetricsRegistry {
 public:
  explicit ScopedMetricsRegistry(MetricsRegistry* registry);
  ~ScopedMetricsRegistry();

  ScopedMetricsRegistry(const ScopedMetricsRegistry&) = delete;
  ScopedMetricsRegistry& operator=(const ScopedMetricsRegistry&) = delete;

 private:
  MetricsRegistry* previous_;
};

/// Thread-local cache of a subsystem's metric-pointer struct, bound to
/// the calling thread's current registry and refreshed whenever that
/// registry changes. `Metrics` must be default-constructible,
/// copy-assignable, and constructible from `MetricsRegistry&` (the
/// registering constructor). The id check is two thread-local reads on
/// the hot path; registration only happens when a new registry is seen.
template <typename Metrics>
Metrics& CurrentRegistryMetrics() {
  thread_local Metrics metrics;
  thread_local uint64_t bound_id = 0;  // registry ids are never 0
  MetricsRegistry& registry = MetricsRegistry::Current();
  if (bound_id != registry.id()) {
    metrics = Metrics(registry);
    bound_id = registry.id();
  }
  return metrics;
}

/// Serializes a snapshot to the "metrics" JSON array (no enclosing
/// document) — what bench_util.h embeds into BENCH_*.json files.
std::string SerializeMetricsArrayJson(const std::vector<MetricSample>& metrics);

}  // namespace sgp

#endif  // SGP_COMMON_TELEMETRY_H_
