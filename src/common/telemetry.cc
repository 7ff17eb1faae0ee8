#include "common/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"

namespace sgp {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(const HistogramOptions& options) : options_(options) {
  SGP_CHECK(options_.min_bound > 0);
  SGP_CHECK(options_.max_bound > options_.min_bound);
  SGP_CHECK(options_.buckets_per_decade > 0);
  const double decades =
      std::log10(options_.max_bound) - std::log10(options_.min_bound);
  const size_t spans = static_cast<size_t>(
      std::ceil(decades * options_.buckets_per_decade - 1e-9));
  // Bucket i covers (upper_bounds_[i-1], upper_bounds_[i]]; bucket 0 is
  // the underflow bucket (0, min_bound] and the last bucket is the
  // overflow bucket (max_bound, +inf).
  upper_bounds_.reserve(spans + 1);
  upper_bounds_.push_back(options_.min_bound);
  for (size_t i = 1; i <= spans; ++i) {
    upper_bounds_.push_back(
        options_.min_bound *
        std::pow(10.0, static_cast<double>(i) /
                           options_.buckets_per_decade));
  }
  upper_bounds_.back() = options_.max_bound;  // kill pow() rounding slack
  counts_ = std::vector<std::atomic<uint64_t>>(upper_bounds_.size() + 1);
}

void Histogram::Record(double value) {
  if (std::isnan(value)) return;
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value) -
      upper_bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + value,
                                     std::memory_order_relaxed)) {
  }
  double m = min_.load(std::memory_order_relaxed);
  while (value < m &&
         !min_.compare_exchange_weak(m, value, std::memory_order_relaxed)) {
  }
  double M = max_.load(std::memory_order_relaxed);
  while (value > M &&
         !max_.compare_exchange_weak(M, value, std::memory_order_relaxed)) {
  }
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const {
  const uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::BucketUpperBound(size_t i) const {
  return i < upper_bounds_.size()
             ? upper_bounds_[i]
             : std::numeric_limits<double>::infinity();
}

double Histogram::Quantile(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank target over the bucket CDF, interpolated geometrically
  // inside the containing bucket (log-spacing makes the geometric mean
  // the minimax choice).
  const double target = q * static_cast<double>(n - 1) + 1.0;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    const uint64_t c = counts_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    if (static_cast<double>(cumulative + c) >= target) {
      const double lo = i == 0 ? options_.min_bound : upper_bounds_[i - 1];
      const double hi = i < upper_bounds_.size()
                            ? upper_bounds_[i]
                            : max_.load(std::memory_order_relaxed);
      const double estimate =
          hi > lo ? std::sqrt(lo * std::max(hi, lo)) : lo;
      return std::clamp(estimate, min(), max());
    }
    cumulative += c;
  }
  return max();
}

void Histogram::MergeFrom(const Histogram& other) {
  SGP_CHECK(options_.min_bound == other.options_.min_bound &&
            options_.max_bound == other.options_.max_bound &&
            options_.buckets_per_decade == other.options_.buckets_per_decade);
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i].fetch_add(other.counts_[i].load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  }
  count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  const double add = other.sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + add,
                                     std::memory_order_relaxed)) {
  }
  if (other.count() > 0) {
    const double omin = other.min_.load(std::memory_order_relaxed);
    double m = min_.load(std::memory_order_relaxed);
    while (omin < m &&
           !min_.compare_exchange_weak(m, omin, std::memory_order_relaxed)) {
    }
    const double omax = other.max_.load(std::memory_order_relaxed);
    double M = max_.load(std::memory_order_relaxed);
    while (omax > M &&
           !max_.compare_exchange_weak(M, omax, std::memory_order_relaxed)) {
    }
  }
}

void Histogram::Reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

std::vector<std::pair<uint32_t, uint64_t>> Histogram::NonZeroBuckets() const {
  std::vector<std::pair<uint32_t, uint64_t>> out;
  for (size_t i = 0; i < counts_.size(); ++i) {
    const uint64_t c = counts_[i].load(std::memory_order_relaxed);
    if (c != 0) out.emplace_back(static_cast<uint32_t>(i), c);
  }
  return out;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

namespace {

std::atomic<uint64_t> g_next_registry_id{1};

thread_local MetricsRegistry* t_current_registry = nullptr;

}  // namespace

MetricsRegistry::MetricsRegistry()
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry& MetricsRegistry::Current() {
  return t_current_registry != nullptr ? *t_current_registry : Global();
}

ScopedMetricsRegistry::ScopedMetricsRegistry(MetricsRegistry* registry)
    : previous_(t_current_registry) {
  t_current_registry = registry;
}

ScopedMetricsRegistry::~ScopedMetricsRegistry() {
  t_current_registry = previous_;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreateLocked(
    std::string_view name, MetricKind kind, const MetricOptions& options) {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry entry;
    entry.kind = kind;
    entry.wall_time = options.wall_time;
    switch (kind) {
      case MetricKind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case MetricKind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case MetricKind::kHistogram:
        entry.histogram = std::make_unique<Histogram>(options.histogram);
        break;
    }
    it = metrics_.emplace(std::string(name), std::move(entry)).first;
  }
  SGP_CHECK(it->second.kind == kind);
  return &it->second;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     const MetricOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrCreateLocked(name, MetricKind::kCounter, options)
      ->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name,
                                 const MetricOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrCreateLocked(name, MetricKind::kGauge, options)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         const MetricOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrCreateLocked(name, MetricKind::kHistogram, options)
      ->histogram.get();
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  if (&other == this) return;
  std::scoped_lock lock(mu_, other.mu_);
  for (const auto& [name, theirs] : other.metrics_) {
    MetricOptions options;
    options.wall_time = theirs.wall_time;
    if (theirs.kind == MetricKind::kHistogram) {
      options.histogram = theirs.histogram->options();
    }
    Entry* mine = FindOrCreateLocked(name, theirs.kind, options);
    switch (theirs.kind) {
      case MetricKind::kCounter:
        mine->counter->Increment(theirs.counter->value());
        break;
      case MetricKind::kGauge:
        mine->gauge->Add(theirs.gauge->value());
        break;
      case MetricKind::kHistogram:
        mine->histogram->MergeFrom(*theirs.histogram);
        break;
    }
  }
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : metrics_) {
    switch (entry.kind) {
      case MetricKind::kCounter:
        entry.counter->Reset();
        break;
      case MetricKind::kGauge:
        entry.gauge->Reset();
        break;
      case MetricKind::kHistogram:
        entry.histogram->Reset();
        break;
    }
  }
}

std::vector<MetricSample> MetricsRegistry::Snapshot(
    MetricFilter filter) const {
  std::vector<MetricSample> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(metrics_.size());
  for (const auto& [name, entry] : metrics_) {
    if (filter == MetricFilter::kDeterministicOnly && entry.wall_time) {
      continue;
    }
    if (filter == MetricFilter::kWallTimeOnly && !entry.wall_time) {
      continue;
    }
    MetricSample sample;
    sample.name = name;
    sample.kind = entry.kind;
    sample.wall_time = entry.wall_time;
    switch (entry.kind) {
      case MetricKind::kCounter:
        sample.counter_value = entry.counter->value();
        break;
      case MetricKind::kGauge:
        sample.gauge_value = entry.gauge->value();
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *entry.histogram;
        sample.count = h.count();
        sample.sum = h.sum();
        sample.min = h.min();
        sample.max = h.max();
        sample.mean = h.mean();
        sample.p50 = h.Quantile(0.50);
        sample.p90 = h.Quantile(0.90);
        sample.p99 = h.Quantile(0.99);
        sample.p999 = h.Quantile(0.999);
        sample.h_min_bound = h.options().min_bound;
        sample.h_max_bound = h.options().max_bound;
        sample.h_buckets_per_decade = h.options().buckets_per_decade;
        sample.buckets = h.NonZeroBuckets();
        break;
      }
    }
    out.push_back(std::move(sample));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace {

// Shortest decimal form that round-trips the double exactly, so exports
// are byte-stable across runs of the same binary. NaN prints as null,
// infinities as ±1e999.
std::string FormatJsonDouble(double v) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";
  char buf[40];
  for (int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void AppendJsonEscaped(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

void AppendSample(const MetricSample& s, std::string* out) {
  *out += "{\"name\":";
  AppendJsonEscaped(s.name, out);
  *out += ",\"kind\":\"";
  *out += KindName(s.kind);
  *out += "\",\"wall_time\":";
  *out += s.wall_time ? "true" : "false";
  char buf[64];
  switch (s.kind) {
    case MetricKind::kCounter:
      std::snprintf(buf, sizeof(buf), ",\"value\":%llu",
                    static_cast<unsigned long long>(s.counter_value));
      *out += buf;
      break;
    case MetricKind::kGauge:
      *out += ",\"value\":";
      *out += FormatJsonDouble(s.gauge_value);
      break;
    case MetricKind::kHistogram:
      std::snprintf(buf, sizeof(buf), ",\"count\":%llu",
                    static_cast<unsigned long long>(s.count));
      *out += buf;
      *out += ",\"sum\":" + FormatJsonDouble(s.sum);
      *out += ",\"min\":" + FormatJsonDouble(s.min);
      *out += ",\"max\":" + FormatJsonDouble(s.max);
      *out += ",\"mean\":" + FormatJsonDouble(s.mean);
      *out += ",\"p50\":" + FormatJsonDouble(s.p50);
      *out += ",\"p90\":" + FormatJsonDouble(s.p90);
      *out += ",\"p99\":" + FormatJsonDouble(s.p99);
      *out += ",\"p999\":" + FormatJsonDouble(s.p999);
      *out += ",\"min_bound\":" + FormatJsonDouble(s.h_min_bound);
      *out += ",\"max_bound\":" + FormatJsonDouble(s.h_max_bound);
      std::snprintf(buf, sizeof(buf), ",\"buckets_per_decade\":%u",
                    s.h_buckets_per_decade);
      *out += buf;
      *out += ",\"buckets\":[";
      for (size_t i = 0; i < s.buckets.size(); ++i) {
        if (i > 0) out->push_back(',');
        std::snprintf(buf, sizeof(buf), "[%u,%llu]", s.buckets[i].first,
                      static_cast<unsigned long long>(s.buckets[i].second));
        *out += buf;
      }
      out->push_back(']');
      break;
  }
  out->push_back('}');
}

}  // namespace

std::string SerializeMetricsArrayJson(
    const std::vector<MetricSample>& metrics) {
  std::string out = "[";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",\n ";
    AppendSample(metrics[i], &out);
  }
  out += "]";
  return out;
}

std::string MetricsRegistry::ExportJson(MetricFilter filter) const {
  return "{\"schema\":\"sgp.metrics.v1\",\"metrics\":" +
         SerializeMetricsArrayJson(Snapshot(filter)) + "}";
}

}  // namespace sgp
