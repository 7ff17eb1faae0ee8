// sgp_bench: the benchmark's own program (see benchmark/README.md). It
// measures each layer from outside, by timing calls into the layer's public
// functions, and records those calls as spans; nothing inside src/ is
// instrumented. run.py is its only caller.
//
// Usage:
//   sgp_bench env
//   sgp_bench spawn LOG TIMEOUT_S PROGRAM [ARGS...]
//   sgp_bench gen --dataset D --scale S --seed N --reps R --output FILE
//   sgp_bench trace-file --dataset D --input FILE --algo A --k K --seed N
//                        --output PART --trace TRACE
//   sgp_bench mem-analytics --dataset D --scale S --seed N --k K
//                           --setup-reps R --seconds T --trace TRACE
//
// Each mode prints one JSON object as the last line of standard output and
// exits nonzero, with "error:" on stderr, when a call fails.
#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "engine/engine.h"
#include "engine/programs.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "partition/metrics.h"
#include "partition/partition_io.h"
#include "partition/partitioner.h"
#include "stream/source.h"

namespace {

using sgp::EdgeListFileSource;
using sgp::EdgeStreamSource;
using sgp::EngineStats;
using sgp::Graph;
using sgp::Partitioning;
using sgp::StreamEdge;
using Clock = std::chrono::steady_clock;

// PageRank iterations of the analytics step, as in the paper's Figure 3.
constexpr uint32_t kPageRankIterations = 20;

[[noreturn]] void Fail(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  std::exit(1);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Spans. sgp_bench is single-threaded, so a span's children are exactly the
// spans opened while it is the innermost open one. A span named "layer.what"
// belongs to `layer`; roots are named "run.*".

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int run = 0;
  std::vector<std::pair<std::string, double>> args;
};

class Tracer {
 public:
  // Starts a new run: the next root span and its descendants share an id.
  void BeginRun() { ++run_; }

  int Open(std::string name) {
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.run = run_;
    span.start_ns = NowNs();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void Close(int id) {
    spans_[id].end_ns = NowNs();
    open_.pop_back();
  }

  void Arg(int id, std::string key, double value) {
    spans_[id].args.emplace_back(std::move(key), value);
  }

  // Chrome trace-event JSON ("X" complete events, microseconds since the
  // first span), loadable in chrome://tracing or Perfetto.
  void WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) Fail("cannot write " + path);
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[128];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string layer = s.name.substr(0, s.name.find('.'));
      std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f",
                    (s.start_ns - origin) / 1e3,
                    (s.end_ns - s.start_ns) / 1e3);
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
          << layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << buf
          << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
          << ",\"run\":" << s.run;
      for (const auto& [key, value] : s.args) {
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        out << ",\"" << key << "\":" << buf;
      }
      out << "}}";
    }
    out << "\n]}\n";
    if (!out.good()) Fail("cannot write " + path);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int run_ = 0;
};

// Records one span over its scope; a null tracer records nothing, which is
// how the untimed and timed reps share the traced rep's code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name) : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->Open(std::move(name));
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Arg(std::string key, double value) {
    if (tracer_ != nullptr) tracer_->Arg(id_, std::move(key), value);
  }

 private:
  Tracer* tracer_;
  int id_ = -1;
};

// Forwards every call to the file source and records NextChunk and Rewind
// as `stream` spans, so RunOnSource's own time is its span minus these.
class TracedSource final : public EdgeStreamSource {
 public:
  TracedSource(EdgeListFileSource& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::span<const StreamEdge> NextChunk() override {
    ScopedSpan span(tracer_, "stream.next_chunk");
    std::span<const StreamEdge> chunk = inner_.NextChunk();
    const sgp::VertexId bound = inner_.max_vertex_bound();
    span.Arg("edges", static_cast<double>(chunk.size()));
    span.Arg("id_growth", bound > bound_ ? 1 : 0);
    bound_ = bound;
    return chunk;
  }
  void Reset() override {
    ScopedSpan span(tracer_, "stream.rewind");
    inner_.Reset();
    bound_ = inner_.max_vertex_bound();
  }
  void Rewind() override {
    ScopedSpan span(tracer_, "stream.rewind");
    inner_.Rewind();
    bound_ = inner_.max_vertex_bound();
  }
  bool SupportsRewind() const override { return inner_.SupportsRewind(); }
  uint64_t size_hint() const override { return inner_.size_hint(); }
  bool ok() const override { return inner_.ok(); }
  std::string error() const override { return inner_.error(); }

 private:
  EdgeListFileSource& inner_;
  Tracer* tracer_;
  sgp::VertexId bound_ = 0;
};

// ---------------------------------------------------------------------------
// Output: one JSON object on one line, numbers with all their digits.

class JsonLine {
 public:
  JsonLine& Add(const std::string& key, double value) {
    return Raw(key, Number(value));
  }
  JsonLine& Add(const std::string& key, const std::vector<double>& values) {
    std::string list = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) list += ',';
      list += Number(values[i]);
    }
    return Raw(key, list + "]");
  }
  JsonLine& Add(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
    }
    return Raw(key, quoted + "\"");
  }
  void Print() const { std::cout << "{" << body_ << "}" << std::endl; }

 private:
  static std::string Number(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
  }
  JsonLine& Raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + value;
    return *this;
  }

  std::string body_;
};

// `--key value` pairs after the mode word.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
        Fail(std::string("expected --key value, got '") + argv[i] + "'");
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
  }
  std::string Get(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) Fail("missing --" + key);
    return it->second;
  }
  uint64_t GetU64(const std::string& key) const {
    const std::string text = Get(key);
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0') {
      Fail("--" + key + " expects an unsigned integer, got '" + text + "'");
    }
    return value;
  }

 private:
  std::map<std::string, std::string> values_;
};

// ---------------------------------------------------------------------------
// Workload inputs: MakeDataset's analogues with the workload seed in place
// of the fixed dataset seed.

bool DatasetDirected(const std::string& dataset) {
  return dataset == "usaroad" ? false : sgp::RmatParams{}.directed;
}

Graph Generate(const std::string& dataset, uint32_t scale, uint64_t seed) {
  if (scale < 6 || scale > 24) Fail("scale must be in [6, 24]");
  if (dataset == "twitter" || dataset == "uk2007") {
    sgp::RmatParams p;
    p.scale = scale;
    p.edge_factor = 16;
    if (dataset == "uk2007") {
      p.edge_factor = 18;
      p.a = 0.65;
      p.b = 0.15;
      p.c = 0.15;
    }
    return sgp::Rmat(p, seed);
  }
  if (dataset == "usaroad") {
    const auto side = static_cast<uint32_t>(
        std::lround(std::pow(2.0, static_cast<double>(scale) / 2.0)));
    return sgp::RoadNetwork(side, side, /*target_avg_degree=*/2.5, seed);
  }
  Fail("unknown dataset '" + dataset + "'");
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t bytes = std::filesystem::file_size(path, ec);
  if (ec) Fail("cannot stat " + path);
  return bytes;
}

// What a finished child process cost: its exit code (minus the signal
// number when killed), the wall time since `start`, and its own CPU time and
// peak RSS.
struct ChildUsage {
  int exit_code = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
};

ChildUsage WaitForChild(pid_t pid, Clock::time_point start) {
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) Fail("wait4 failed");
  }
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  ChildUsage out;
  out.wall_s = SecondsSince(start);
  out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  out.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  out.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  return out;
}

// Everything a PageRank run reports that must repeat exactly across reps.
std::vector<double> Digest(const EngineStats& stats) {
  uint64_t values_hash = 1469598103934665603ull;  // FNV-1a over value bits
  for (double v : stats.values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    values_hash = (values_hash ^ bits) * 1099511628211ull;
  }
  return {static_cast<double>(stats.iterations),
          static_cast<double>(stats.gather_messages),
          static_cast<double>(stats.sync_messages),
          static_cast<double>(stats.total_network_bytes),
          stats.simulated_seconds,
          static_cast<double>(values_hash >> 11)};
}

// PageRank on `partitioning`, recorded as engine spans. The engine is torn
// down inside the enclosing "engine" span, so its release is attributed too.
EngineStats RunPageRank(const Graph& graph, const Partitioning& partitioning,
                        Tracer* tracer) {
  ScopedSpan span(tracer, "engine");
  std::optional<sgp::AnalyticsEngine> engine;
  {
    ScopedSpan build(tracer, "engine.build");
    engine.emplace(graph, partitioning);
  }
  ScopedSpan run(tracer, "engine.run");
  EngineStats stats = engine->Run(sgp::PageRankProgram(kPageRankIterations));
  run.Arg("edges", static_cast<double>(graph.num_edges()));
  run.Arg("iterations", stats.iterations);
  run.Arg("network_bytes", static_cast<double>(stats.total_network_bytes));
  return stats;
}

// ---------------------------------------------------------------------------
// Modes.

int Env() {
  std::string cpu = "unknown";
  bool avx2 = false;
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000004, &regs[0], &regs[1], &regs[2], &regs[3])) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    cpu = brand;
    cpu.erase(0, cpu.find_first_not_of(' '));
  }
  avx2 = __builtin_cpu_supports("avx2");
#endif
  JsonLine()
      .Add("cpu_model", cpu)
      .Add("avx2", avx2 ? "yes" : "no")
      .Add("compiler", std::string(__VERSION__))
      .Add("build_type", SGP_BENCH_BUILD_TYPE)
      .Print();
  return 0;
}

pid_t g_child = -1;

void KillChild(int) {
  if (g_child > 0) kill(g_child, SIGKILL);
}

// Runs PROGRAM to its exit with output to LOG and reports its exit code
// (minus the signal number when killed), wall time from fork to exit, and
// its own CPU time and peak RSS. Forking from this small process is the
// point: Linux carries the parent's peak RSS into an exec'ed child, so a
// child of the Python harness would report at least the harness's RSS.
int Spawn(int argc, char** argv) {
  if (argc < 5) Fail("usage: sgp_bench spawn LOG TIMEOUT_S PROGRAM [ARGS...]");
  const int log_fd = open(argv[2], O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                          0644);
  if (log_fd < 0) Fail(std::string("cannot write ") + argv[2]);
  const unsigned timeout_s = static_cast<unsigned>(std::strtoul(argv[3], nullptr, 10));
  const auto start = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) Fail("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(log_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    execv(argv[4], argv + 4);
    _exit(127);
  }
  g_child = pid;
  signal(SIGALRM, KillChild);
  alarm(timeout_s);
  const ChildUsage usage = WaitForChild(pid, start);
  alarm(0);
  close(log_fd);
  JsonLine()
      .Add("exit", usage.exit_code)
      .Add("wall_s", usage.wall_s)
      .Add("cpu_s", usage.cpu_s)
      .Add("peak_rss_mb", usage.peak_rss_mb)
      .Print();
  return 0;
}

// Setup of the file workloads: generate the graph from the seed and write
// its edge list, `reps` times, timing both calls.
int Gen(const Args& args) {
  const std::string dataset = args.Get("dataset");
  const std::string output = args.Get("output");
  const auto scale = static_cast<uint32_t>(args.GetU64("scale"));
  const uint64_t seed = args.GetU64("seed");
  const uint64_t reps = std::max<uint64_t>(1, args.GetU64("reps"));
  std::vector<double> generate_s, write_s;
  Graph graph;
  for (uint64_t rep = 0; rep < reps; ++rep) {
    auto start = Clock::now();
    graph = Generate(dataset, scale, seed);
    generate_s.push_back(SecondsSince(start));
    start = Clock::now();
    sgp::WriteEdgeListFile(graph, output);
    write_s.push_back(SecondsSince(start));
  }
  JsonLine()
      .Add("generate_s", generate_s)
      .Add("write_s", write_s)
      .Add("file_bytes", static_cast<double>(FileBytes(output)))
      .Add("vertices", graph.num_vertices())
      .Add("edges", static_cast<double>(graph.num_edges()))
      .Print();
  return 0;
}

// The traced replay of `partition_tool --input-edgelist`: the same calls in
// the same order, as spans. It writes the reference partition file, then
// checks it against the reloaded graph and runs PageRank on it.
int TraceFile(const Args& args) {
  const std::string dataset = args.Get("dataset");
  const std::string input = args.Get("input");
  const std::string output = args.Get("output");
  const std::string algo = args.Get("algo");
  sgp::PartitionConfig config;
  config.k = static_cast<sgp::PartitionId>(args.GetU64("k"));
  config.seed = args.GetU64("seed");
  if (config.k < 1) Fail("--k must be at least 1");

  Tracer tracer;
  Partitioning partitioning;
  tracer.BeginRun();
  {
    ScopedSpan root(&tracer, "run.rep");
    std::unique_ptr<sgp::Partitioner> partitioner;
    {
      ScopedSpan span(&tracer, "partition.create");
      partitioner = sgp::CreatePartitioner(algo);
    }
    std::optional<EdgeListFileSource> file;
    {
      ScopedSpan span(&tracer, "stream.open");
      file.emplace(input);
    }
    TracedSource source(*file, &tracer);
    sgp::StreamRunResult result;
    {
      ScopedSpan span(&tracer, "partition.run_on_source");
      result = partitioner->RunOnSource(source, config);
      span.Arg("edges", static_cast<double>(result.num_edges));
      span.Arg("state_bytes",
               static_cast<double>(result.partitioning.state_bytes));
    }
    if (!result.ok) Fail(result.error);
    partitioning = std::move(result.partitioning);
    ScopedSpan span(&tracer, "partition_io.write");
    sgp::WritePartitioningFile(partitioning, output);
    span.Arg("bytes", static_cast<double>(FileBytes(output)));
  }

  // Checks, outside every span: disk edge ids equal GraphBuilder ids for
  // these duplicate-free inputs, so the reloaded graph validates the file.
  sgp::EdgeListReadResult read =
      sgp::TryReadEdgeListFile(input, DatasetDirected(dataset));
  if (!read.ok) Fail(read.error);
  const Graph graph = std::move(read.graph);
  sgp::ValidatePartitioning(graph, partitioning);
  const sgp::PartitionMetrics metrics = sgp::ComputeMetrics(graph, partitioning);

  tracer.BeginRun();
  EngineStats stats;
  {
    ScopedSpan root(&tracer, "run.analytics");
    stats = RunPageRank(graph, partitioning, &tracer);
  }
  tracer.WriteChromeTrace(args.Get("trace"));
  JsonLine()
      .Add("replication_factor", metrics.replication_factor)
      .Add("edge_cut_ratio", metrics.edge_cut_ratio)
      .Add("edge_imbalance", metrics.edge_imbalance)
      .Add("sim_pagerank_s", stats.simulated_seconds)
      .Add("vertices", graph.num_vertices())
      .Add("edges", static_cast<double>(graph.num_edges()))
      .Print();
  return 0;
}

// The in-memory analytics path of the paper's Figure 3: LDG and FNL over the
// vertex stream, then an engine build and PageRank for each.
struct AnalyticsRep {
  std::vector<std::vector<double>> digests;
  std::vector<EngineStats> stats;
  std::vector<Partitioning> partitionings;
};

AnalyticsRep RunAnalyticsRep(const Graph& graph, sgp::PartitionId k,
                             uint64_t seed, Tracer* tracer) {
  AnalyticsRep rep;
  ScopedSpan root(tracer, "run.rep");
  for (const char* algo : {"LDG", "FNL"}) {
    Partitioning partitioning;
    {
      ScopedSpan span(tracer, "partition.run");
      sgp::PartitionConfig config;
      config.k = k;
      config.seed = seed;
      partitioning = sgp::CreatePartitioner(algo)->Run(graph, config);
      span.Arg("edges", static_cast<double>(graph.num_edges()));
      span.Arg("state_bytes", static_cast<double>(partitioning.state_bytes));
    }
    rep.stats.push_back(RunPageRank(graph, partitioning, tracer));
    rep.digests.push_back(Digest(rep.stats.back()));
    if (tracer != nullptr) rep.partitionings.push_back(std::move(partitioning));
  }
  return rep;
}

int MemAnalytics(const Args& args) {
  const std::string dataset = args.Get("dataset");
  const auto scale = static_cast<uint32_t>(args.GetU64("scale"));
  const uint64_t seed = args.GetU64("seed");
  const auto k = static_cast<sgp::PartitionId>(args.GetU64("k"));
  const uint64_t setup_reps = std::max<uint64_t>(1, args.GetU64("setup-reps"));
  const double seconds = static_cast<double>(args.GetU64("seconds"));
  if (k < 1) Fail("--k must be at least 1");

  std::vector<double> setup_s;
  Graph graph;
  for (uint64_t rep = 0; rep < setup_reps; ++rep) {
    const auto start = Clock::now();
    graph = Generate(dataset, scale, seed);
    setup_s.push_back(SecondsSince(start));
  }

  // Untimed warm-up, then timed reps until `seconds` have passed (at least
  // one), then the traced rep. Every rep is one op and must reproduce the
  // warm-up's engine results exactly. A timed rep runs in a forked child, as
  // a file workload's rep runs in its own process: the child's CPU time and
  // peak RSS are the rep's own, since a forked child's peak starts from the
  // RSS it shares (the graph) and not from the set-up's peak.
  const auto expected = RunAnalyticsRep(graph, k, seed, nullptr).digests;
  std::vector<double> wall_s, cpu_s, rss_mb;
  uint64_t attempted = 1, failed = 0;
  const auto measure_start = Clock::now();
  do {
    const auto start = Clock::now();
    const pid_t pid = fork();
    if (pid < 0) Fail("fork failed");
    if (pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      _exit(RunAnalyticsRep(graph, k, seed, nullptr).digests == expected ? 0
                                                                          : 1);
    }
    const ChildUsage usage = WaitForChild(pid, start);
    wall_s.push_back(usage.wall_s);
    cpu_s.push_back(usage.cpu_s);
    rss_mb.push_back(usage.peak_rss_mb);
    ++attempted;
    failed += usage.exit_code != 0;
  } while (SecondsSince(measure_start) < seconds);

  Tracer tracer;
  tracer.BeginRun();
  const AnalyticsRep traced = RunAnalyticsRep(graph, k, seed, &tracer);
  tracer.WriteChromeTrace(args.Get("trace"));
  ++attempted;
  failed += traced.digests != expected;

  double edge_cut = 0, replication = 0, imbalance = 0, sim_seconds = 0;
  for (size_t i = 0; i < traced.partitionings.size(); ++i) {
    sgp::ValidatePartitioning(graph, traced.partitionings[i]);
    const sgp::PartitionMetrics m =
        sgp::ComputeMetrics(graph, traced.partitionings[i]);
    edge_cut += m.edge_cut_ratio / 2;
    replication += m.replication_factor / 2;
    imbalance += m.edge_imbalance / 2;
    sim_seconds += traced.stats[i].simulated_seconds;
  }
  JsonLine()
      .Add("setup_s", setup_s)
      .Add("wall_s", wall_s)
      .Add("cpu_s", cpu_s)
      .Add("peak_rss_mb", rss_mb)
      .Add("attempted", static_cast<double>(attempted))
      .Add("failed", static_cast<double>(failed))
      .Add("replication_factor", replication)
      .Add("edge_cut_ratio", edge_cut)
      .Add("edge_imbalance", imbalance)
      .Add("sim_pagerank_s", sim_seconds)
      .Add("vertices", graph.num_vertices())
      .Add("edges", static_cast<double>(graph.num_edges()))
      .Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "env") return Env();
  if (mode == "spawn") return Spawn(argc, argv);
  const Args args(argc, argv);
  if (mode == "gen") return Gen(args);
  if (mode == "trace-file") return TraceFile(args);
  if (mode == "mem-analytics") return MemAnalytics(args);
  Fail("usage: sgp_bench env|gen|trace-file|mem-analytics --key value ...");
}
