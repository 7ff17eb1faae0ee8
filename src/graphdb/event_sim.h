#ifndef SGP_GRAPHDB_EVENT_SIM_H_
#define SGP_GRAPHDB_EVENT_SIM_H_

#include <cstdint>
#include <vector>

#include "common/statistics.h"
#include "common/telemetry.h"
#include "graphdb/graphdb.h"
#include "graphdb/workload.h"

namespace sgp {

/// Closed-loop load-generation configuration (Section 5.2.4): `clients`
/// concurrent clients each issue the next query as soon as the previous
/// one completes. The paper's medium load is 12 clients per worker, high
/// load is 24.
struct SimConfig {
  uint32_t clients = 64;

  /// Total completed queries to simulate.
  uint64_t num_queries = 20000;

  /// Fraction of initial completions excluded from measurement (cache /
  /// queue warm-up, as in Section 5.2.3).
  double warmup_fraction = 0.1;

  uint64_t seed = 123;

  /// Collect a per-query trace (for debugging and latency-breakdown
  /// analysis). Off by default — traces cost memory.
  bool collect_traces = false;

  /// Cap on collected trace records when collect_traces is set.
  uint32_t max_traces = 1u << 20;
};

/// One completed query, when tracing is enabled. This is the decoded view
/// of a telemetry TraceEvent (name "query"; args = binding, coordinator,
/// reads, rounds; start/end = issue/completion on the simulated clock)
/// kept for analysis convenience — the raw events live in
/// SimResult::query_traces.
struct QueryTraceRecord {
  uint32_t binding = 0;          // index into Workload::bindings()
  double issue_time = 0;         // seconds, simulated clock
  double completion_time = 0;
  PartitionId coordinator = 0;
  uint64_t reads = 0;            // total vertex reads of the plan
  uint32_t rounds = 0;           // fork-join rounds of the plan
};

/// Everything the paper measures about one online-workload run.
struct SimResult {
  /// Measurement-window duration in simulated seconds.
  double window_seconds = 0;

  /// Queries completed inside the measurement window.
  uint64_t completed = 0;

  /// Aggregate cluster throughput (Figure 6).
  double throughput_qps = 0;

  /// Latency distribution in seconds (Table 5 reports mean and p99).
  DistributionSummary latency;

  /// Vertex reads served by each worker (Figures 7 and 15).
  std::vector<double> reads_per_worker;

  /// Cluster-internal traffic of the whole run (Figure 5).
  uint64_t total_network_bytes = 0;
  uint64_t total_remote_messages = 0;

  /// Bounded per-query trace buffer (telemetry API): one "query" event
  /// per measured query, oldest first, capped at SimConfig::max_traces.
  /// Empty unless SimConfig::collect_traces.
  TraceBuffer query_traces{0};

  /// Compatibility accessor: the trace buffer decoded into the classic
  /// per-query records.
  std::vector<QueryTraceRecord> Traces() const;
};

/// Discrete-event simulation of the JanusGraph cluster: FIFO single-server
/// workers with per-read service time, fixed one-way network latency per
/// hop, closed-loop clients drawing Zipf-popular bindings. Queueing at hot
/// workers — not modeled by any structural partitioning metric — is what
/// produces the tail-latency inflation of Table 5. Given identical inputs
/// and seeds the result is bit-identical.
SimResult SimulateClosedLoop(const GraphDatabase& db, const Workload& workload,
                             const SimConfig& config);

}  // namespace sgp

#endif  // SGP_GRAPHDB_EVENT_SIM_H_
