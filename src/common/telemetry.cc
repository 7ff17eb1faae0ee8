#include "common/telemetry.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

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
// TraceBuffer
// ---------------------------------------------------------------------------

TraceBuffer::TraceBuffer(size_t capacity) : capacity_(capacity) {}

TraceBuffer::TraceBuffer(const TraceBuffer& other) {
  std::lock_guard<std::mutex> lock(other.mu_);
  events_ = other.events_;
  capacity_ = other.capacity_;
  dropped_ = other.dropped_;
  next_id_ = other.next_id_;
}

TraceBuffer& TraceBuffer::operator=(const TraceBuffer& other) {
  if (this == &other) return *this;
  std::scoped_lock lock(mu_, other.mu_);
  events_ = other.events_;
  capacity_ = other.capacity_;
  dropped_ = other.dropped_;
  next_id_ = other.next_id_;
  return *this;
}

TraceBuffer::TraceBuffer(TraceBuffer&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mu_);
  events_ = std::move(other.events_);
  capacity_ = other.capacity_;
  dropped_ = other.dropped_;
  next_id_ = other.next_id_;
  other.events_.clear();
  other.dropped_ = 0;
  other.next_id_ = 0;
}

TraceBuffer& TraceBuffer::operator=(TraceBuffer&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock(mu_, other.mu_);
  events_ = std::move(other.events_);
  capacity_ = other.capacity_;
  dropped_ = other.dropped_;
  next_id_ = other.next_id_;
  other.events_.clear();
  other.dropped_ = 0;
  other.next_id_ = 0;
  return *this;
}

bool TraceBuffer::Append(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return false;
  }
  events_.push_back(std::move(event));
  return true;
}

uint32_t TraceBuffer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

double TraceBuffer::NowSeconds() const { return epoch_.ElapsedSeconds(); }

size_t TraceBuffer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

size_t TraceBuffer::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void TraceBuffer::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
}

uint64_t TraceBuffer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void TraceBuffer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_ = 0;
  next_id_ = 0;
  epoch_.Reset();
}

std::vector<TraceEvent> TraceBuffer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

// ---------------------------------------------------------------------------
// Span
// ---------------------------------------------------------------------------

namespace {

thread_local std::vector<uint32_t> t_span_stack;

}  // namespace

Span::Span(TraceBuffer* buffer, std::string name)
    : buffer_(buffer), name_(std::move(name)) {
  if (buffer_ == nullptr) return;
  start_ = buffer_->NowSeconds();
  id_ = buffer_->NextId();
  parent_ = t_span_stack.empty() ? TraceEvent::kNoParent : t_span_stack.back();
  depth_ = static_cast<uint32_t>(t_span_stack.size());
  t_span_stack.push_back(id_);
}

Span::~Span() {
  if (buffer_ == nullptr) return;
  t_span_stack.pop_back();
  TraceEvent event;
  event.name = std::move(name_);
  event.start = start_;
  event.end = buffer_->NowSeconds();
  event.id = id_;
  event.parent = parent_;
  event.depth = depth_;
  buffer_->Append(std::move(event));
}

uint32_t Span::CurrentDepth() {
  return static_cast<uint32_t>(t_span_stack.size());
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
  // Trace events keep their producer-side ids; consumers treat id/parent
  // as meaningful only within one producing registry.
  for (TraceEvent& event : other.traces_.Snapshot()) {
    traces_.Append(std::move(event));
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
  traces_.Clear();
}

std::vector<MetricSample> MetricsRegistry::Snapshot(
    const ExportOptions& options) const {
  std::vector<MetricSample> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(metrics_.size());
  for (const auto& [name, entry] : metrics_) {
    if (options.filter == MetricFilter::kDeterministicOnly && entry.wall_time) {
      continue;
    }
    if (options.filter == MetricFilter::kWallTimeOnly && !entry.wall_time) {
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

namespace {

std::string SerializeTracesJson(const std::vector<TraceEvent>& events) {
  std::string out = "[";
  char buf[96];
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i > 0) out += ",\n ";
    out += "{\"name\":";
    AppendJsonEscaped(e.name, &out);
    out += ",\"start\":" + FormatJsonDouble(e.start);
    out += ",\"end\":" + FormatJsonDouble(e.end);
    std::snprintf(buf, sizeof(buf),
                  ",\"id\":%u,\"parent\":%u,\"depth\":%u,\"args\":[", e.id,
                  e.parent, e.depth);
    out += buf;
    for (size_t a = 0; a < e.args.size(); ++a) {
      if (a > 0) out.push_back(',');
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(e.args[a]));
      out += buf;
    }
    out += "]}";
  }
  out += "]";
  return out;
}

}  // namespace

std::string MetricsRegistry::ExportJson(const ExportOptions& options) const {
  std::string out = "{\"schema\":\"sgp.metrics.v1\",\"metrics\":";
  out += SerializeMetricsArrayJson(Snapshot(options));
  if (options.include_traces) {
    out += ",\"traces\":";
    out += SerializeTracesJson(traces_.Snapshot());
    // Appends rejected at capacity: without this a capped long-run trace
    // silently looks complete.
    out += ",\"dropped_traces\":" + std::to_string(traces_.dropped());
  }
  out += "}";
  return out;
}

// ---------------------------------------------------------------------------
// minijson
// ---------------------------------------------------------------------------

namespace minijson {

namespace {

struct Parser {
  std::string_view text;
  size_t pos = 0;

  void SkipWs() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool Literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos >= text.size() || text[pos] != '"') return false;
    ++pos;
    out->clear();
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= text.size()) return false;
        char e = text[pos++];
        switch (e) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case '/':
            out->push_back('/');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 'b':
            out->push_back('\b');
            break;
          case 'f':
            out->push_back('\f');
            break;
          case 'u': {
            if (pos + 4 > text.size()) return false;
            // Pass the escape through verbatim; the exporters only emit
            // \u00XX control escapes and tests compare parsed numbers.
            out->append("\\u");
            out->append(text.substr(pos, 4));
            pos += 4;
            break;
          }
          default:
            return false;
        }
      } else {
        out->push_back(c);
      }
    }
    return false;
  }

  bool ParseValue(Value* out) {
    SkipWs();
    if (pos >= text.size()) return false;
    const char c = text[pos];
    if (c == 'n') {
      out->type = Value::Type::kNull;
      return Literal("null");
    }
    if (c == 't') {
      out->type = Value::Type::kBool;
      out->boolean = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->type = Value::Type::kBool;
      out->boolean = false;
      return Literal("false");
    }
    if (c == '"') {
      out->type = Value::Type::kString;
      return ParseString(&out->string);
    }
    if (c == '[') {
      ++pos;
      out->type = Value::Type::kArray;
      SkipWs();
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return true;
      }
      while (true) {
        Value element;
        if (!ParseValue(&element)) return false;
        out->array.push_back(std::move(element));
        SkipWs();
        if (pos >= text.size()) return false;
        if (text[pos] == ',') {
          ++pos;
          continue;
        }
        if (text[pos] == ']') {
          ++pos;
          return true;
        }
        return false;
      }
    }
    if (c == '{') {
      ++pos;
      out->type = Value::Type::kObject;
      SkipWs();
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        return true;
      }
      while (true) {
        SkipWs();
        std::string key;
        if (!ParseString(&key)) return false;
        SkipWs();
        if (pos >= text.size() || text[pos] != ':') return false;
        ++pos;
        Value value;
        if (!ParseValue(&value)) return false;
        out->object.emplace_back(std::move(key), std::move(value));
        SkipWs();
        if (pos >= text.size()) return false;
        if (text[pos] == ',') {
          ++pos;
          continue;
        }
        if (text[pos] == '}') {
          ++pos;
          return true;
        }
        return false;
      }
    }
    // Number.
    const size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '-' || text[pos] == '+')) {
      ++pos;
    }
    if (pos == start) return false;
    std::string num(text.substr(start, pos - start));
    char* end = nullptr;
    out->type = Value::Type::kNumber;
    out->number = std::strtod(num.c_str(), &end);
    return end != nullptr && *end == '\0';
  }
};

}  // namespace

const Value* Value::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool Parse(std::string_view text, Value* out) {
  Parser parser{text};
  Value value;
  if (!parser.ParseValue(&value)) return false;
  parser.SkipWs();
  if (parser.pos != text.size()) return false;
  *out = std::move(value);
  return true;
}

}  // namespace minijson

// ---------------------------------------------------------------------------
// ParseMetricsJson
// ---------------------------------------------------------------------------

namespace {

double NumberOr(const minijson::Value* v, double fallback) {
  return v != nullptr && v->type == minijson::Value::Type::kNumber ? v->number
                                                                   : fallback;
}

// Finds the first "metrics" array anywhere in the document (top level or
// one level down, covering both the registry export and BENCH_*.json).
const minijson::Value* FindMetricsArray(const minijson::Value& root) {
  if (root.type == minijson::Value::Type::kArray) return &root;
  const minijson::Value* direct = root.Find("metrics");
  if (direct != nullptr && direct->type == minijson::Value::Type::kArray) {
    return direct;
  }
  for (const auto& [key, value] : root.object) {
    if (value.type == minijson::Value::Type::kObject) {
      const minijson::Value* nested = value.Find("metrics");
      if (nested != nullptr &&
          nested->type == minijson::Value::Type::kArray) {
        return nested;
      }
    }
  }
  return nullptr;
}

}  // namespace

bool ParseMetricsJson(std::string_view text, std::vector<MetricSample>* out) {
  minijson::Value root;
  if (!minijson::Parse(text, &root)) return false;
  const minijson::Value* metrics = FindMetricsArray(root);
  if (metrics == nullptr) return false;
  std::vector<MetricSample> result;
  result.reserve(metrics->array.size());
  for (const minijson::Value& m : metrics->array) {
    if (m.type != minijson::Value::Type::kObject) return false;
    MetricSample sample;
    const minijson::Value* name = m.Find("name");
    const minijson::Value* kind = m.Find("kind");
    if (name == nullptr || name->type != minijson::Value::Type::kString ||
        kind == nullptr || kind->type != minijson::Value::Type::kString) {
      return false;
    }
    sample.name = name->string;
    const minijson::Value* wall = m.Find("wall_time");
    sample.wall_time = wall != nullptr &&
                       wall->type == minijson::Value::Type::kBool &&
                       wall->boolean;
    if (kind->string == "counter") {
      sample.kind = MetricKind::kCounter;
      sample.counter_value =
          static_cast<uint64_t>(NumberOr(m.Find("value"), 0));
    } else if (kind->string == "gauge") {
      sample.kind = MetricKind::kGauge;
      sample.gauge_value = NumberOr(m.Find("value"), 0);
    } else if (kind->string == "histogram") {
      sample.kind = MetricKind::kHistogram;
      sample.count = static_cast<uint64_t>(NumberOr(m.Find("count"), 0));
      sample.sum = NumberOr(m.Find("sum"), 0);
      sample.min = NumberOr(m.Find("min"), 0);
      sample.max = NumberOr(m.Find("max"), 0);
      sample.mean = NumberOr(m.Find("mean"), 0);
      sample.p50 = NumberOr(m.Find("p50"), 0);
      sample.p90 = NumberOr(m.Find("p90"), 0);
      sample.p99 = NumberOr(m.Find("p99"), 0);
      sample.p999 = NumberOr(m.Find("p999"), 0);
      sample.h_min_bound = NumberOr(m.Find("min_bound"), 0);
      sample.h_max_bound = NumberOr(m.Find("max_bound"), 0);
      sample.h_buckets_per_decade =
          static_cast<uint32_t>(NumberOr(m.Find("buckets_per_decade"), 0));
      const minijson::Value* buckets = m.Find("buckets");
      if (buckets != nullptr &&
          buckets->type == minijson::Value::Type::kArray) {
        for (const minijson::Value& pair : buckets->array) {
          if (pair.type != minijson::Value::Type::kArray ||
              pair.array.size() != 2) {
            return false;
          }
          sample.buckets.emplace_back(
              static_cast<uint32_t>(pair.array[0].number),
              static_cast<uint64_t>(pair.array[1].number));
        }
      }
    } else {
      return false;
    }
    result.push_back(std::move(sample));
  }
  *out = std::move(result);
  return true;
}

}  // namespace sgp
