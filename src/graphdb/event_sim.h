#ifndef SGP_GRAPHDB_EVENT_SIM_H_
#define SGP_GRAPHDB_EVENT_SIM_H_

#include <cstdint>
#include <vector>

#include "common/statistics.h"
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
