#include "graphdb/event_sim.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>

#include "common/random.h"
#include "common/telemetry.h"

namespace sgp {

namespace {

enum class EventType : uint8_t {
  kIssue,
  kTaskArrival,
  kAdvance,
};

struct Event {
  double time = 0;
  uint64_t seq = 0;  // tie-breaker for deterministic ordering
  EventType type = EventType::kIssue;
  uint32_t client = 0;
  uint32_t round = 0;
  uint32_t task = 0;
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

// Per-client in-flight query bookkeeping.
struct InFlight {
  const QueryPlan* plan = nullptr;
  uint32_t binding = 0;
  uint32_t round = 0;
  uint32_t remaining_tasks = 0;
  double round_end = 0;   // completion time of the slowest task so far
  double start_time = 0;  // when the client issued the query
};

// Per-query-kind latency histograms (simulated clock — deterministic)
// plus the traffic counters of the online simulator. Published into the
// calling thread's current registry (see ScopedMetricsRegistry).
struct SimMetrics {
  Histogram* latency_by_kind[3] = {nullptr, nullptr, nullptr};
  Counter* sims = nullptr;
  Counter* queries_completed = nullptr;
  Counter* network_bytes = nullptr;
  Counter* remote_messages = nullptr;

  SimMetrics() = default;
  explicit SimMetrics(MetricsRegistry& reg) {
    latency_by_kind[static_cast<int>(QueryKind::kOneHop)] =
        reg.GetHistogram("graphdb.query_latency.one_hop.sim_seconds");
    latency_by_kind[static_cast<int>(QueryKind::kTwoHop)] =
        reg.GetHistogram("graphdb.query_latency.two_hop.sim_seconds");
    latency_by_kind[static_cast<int>(QueryKind::kShortestPath)] =
        reg.GetHistogram("graphdb.query_latency.shortest_path.sim_seconds");
    sims = reg.GetCounter("graphdb.sim.runs");
    queries_completed = reg.GetCounter("graphdb.sim.queries.completed");
    network_bytes = reg.GetCounter("graphdb.sim.network.bytes");
    remote_messages = reg.GetCounter("graphdb.sim.messages.remote");
  }

  static SimMetrics& Get() { return CurrentRegistryMetrics<SimMetrics>(); }
};

}  // namespace

SimResult SimulateClosedLoop(const GraphDatabase& db, const Workload& workload,
                             const SimConfig& config) {
  SimResult result;
  result.reads_per_worker.assign(db.k(), 0.0);
  // Degenerate configurations produce a well-defined empty result instead
  // of hanging, dividing by zero, or aborting.
  if (config.clients == 0 || config.num_queries == 0 ||
      config.warmup_fraction >= 1.0 || config.warmup_fraction < 0.0) {
    return result;
  }
  SimMetrics& metrics = SimMetrics::Get();
  metrics.sims->Increment();
  const DbCostModel& cost = db.cost_model();
  const double latency_hop = cost.network_latency_seconds;

  // Plans are deterministic per binding, so they are built once upfront.
  std::vector<QueryPlan> plans;
  plans.reserve(workload.bindings().size());
  for (const Query& q : workload.bindings()) plans.push_back(db.Plan(q));

  Rng rng(config.seed);
  // Lognormal service-time multiplier with mean 1 and the configured
  // coefficient of variation.
  const double cv = cost.service_time_cv;
  const double lognorm_sigma =
      cv > 0 ? std::sqrt(std::log(1.0 + cv * cv)) : 0.0;
  const double lognorm_mu = -0.5 * lognorm_sigma * lognorm_sigma;
  auto service_noise = [&]() {
    if (cv <= 0) return 1.0;
    // Box-Muller.
    double u1 = std::max(rng.UniformReal(), 1e-12);
    double u2 = rng.UniformReal();
    double z = std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * 3.14159265358979323846 * u2);
    return std::exp(lognorm_mu + lognorm_sigma * z);
  };

  std::priority_queue<Event, std::vector<Event>, EventLater> events;
  uint64_t next_seq = 0;
  auto push = [&](Event e) {
    e.seq = next_seq++;
    events.push(e);
  };

  std::vector<InFlight> inflight(config.clients);
  std::vector<double> worker_available(db.k(), 0.0);

  const uint64_t warmup =
      static_cast<uint64_t>(config.warmup_fraction *
                            static_cast<double>(config.num_queries));
  uint64_t completed_total = 0;
  double window_start = 0;
  double last_completion = 0;
  std::vector<double> latencies;
  latencies.reserve(config.num_queries - warmup);

  // Schedules the arrival events of one round; remote tasks pay the
  // request hop.
  auto schedule_round = [&](uint32_t client, double base_time) {
    InFlight& q = inflight[client];
    const auto& tasks = q.plan->rounds[q.round];
    q.remaining_tasks = static_cast<uint32_t>(tasks.size());
    q.round_end = base_time;
    for (uint32_t t = 0; t < tasks.size(); ++t) {
      double arrival = base_time +
                       (tasks[t].worker == q.plan->coordinator
                            ? 0.0
                            : latency_hop);
      push({arrival, 0, EventType::kTaskArrival, client, q.round, t});
    }
  };

  // A query completed at time `t`: account it and have the closed-loop
  // client issue the next one.
  auto finish_query = [&](uint32_t client, double t) {
    InFlight& q = inflight[client];
    ++completed_total;
    last_completion = t;
    if (completed_total == warmup) window_start = t;
    if (completed_total > warmup) {
      const double latency = t - q.start_time;
      latencies.push_back(latency);
      metrics
          .latency_by_kind[static_cast<int>(
              workload.bindings()[q.binding].kind)]
          ->Record(latency);
    }
    push({t, 0, EventType::kIssue, client});
  };

  auto issue_query = [&](uint32_t client, double now) {
    uint32_t binding = workload.SampleBindingIndex(rng);
    InFlight& q = inflight[client];
    q.plan = &plans[binding];
    q.binding = binding;
    q.round = 0;
    q.start_time = now;
    result.total_network_bytes += q.plan->network_bytes;
    result.total_remote_messages += q.plan->remote_messages;
    // Client → router → coordinator hop.
    schedule_round(client, now + latency_hop);
  };

  for (uint32_t c = 0; c < config.clients; ++c) {
    push({0.0, 0, EventType::kIssue, c});
  }

  while (!events.empty() && completed_total < config.num_queries) {
    Event e = events.top();
    events.pop();
    switch (e.type) {
      case EventType::kIssue:
        issue_query(e.client, e.time);
        break;
      case EventType::kTaskArrival: {
        InFlight& q = inflight[e.client];
        const QueryPlan::Task& task = q.plan->rounds[e.round][e.task];
        const PartitionId w = task.worker;
        const bool remote = w != q.plan->coordinator;
        // FIFO single-server worker queue. Remote sub-requests pay RPC
        // handling overhead on top of the storage reads.
        double service =
            (static_cast<double>(task.reads) * cost.seconds_per_read +
             (remote ? cost.seconds_per_remote_task : 0.0)) *
            service_noise();
        double start = std::max(worker_available[w], e.time);
        double done = start + service;
        worker_available[w] = done;
        result.reads_per_worker[w] += static_cast<double>(task.reads);
        // Response hop back to the coordinator for remote tasks.
        double task_end = done + (remote ? latency_hop : 0.0);
        q.round_end = std::max(q.round_end, task_end);
        if (--q.remaining_tasks == 0) {
          push({q.round_end, 0, EventType::kAdvance, e.client, e.round, 0});
        }
        break;
      }
      case EventType::kAdvance: {
        InFlight& q = inflight[e.client];
        ++q.round;
        if (q.round < q.plan->rounds.size()) {
          schedule_round(e.client, e.time);
          break;
        }
        // Query complete: response hop to the client.
        finish_query(e.client, e.time + latency_hop);
        break;
      }
    }
  }

  result.completed = latencies.size();
  result.window_seconds = std::max(1e-12, last_completion - window_start);
  result.throughput_qps =
      static_cast<double>(result.completed) / result.window_seconds;
  result.latency = Summarize(std::move(latencies));

  metrics.queries_completed->Increment(result.completed);
  metrics.network_bytes->Increment(result.total_network_bytes);
  metrics.remote_messages->Increment(result.total_remote_messages);
  return result;
}

}  // namespace sgp
