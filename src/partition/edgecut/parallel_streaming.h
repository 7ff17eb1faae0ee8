#ifndef SGP_PARTITION_EDGECUT_PARALLEL_STREAMING_H_
#define SGP_PARTITION_EDGECUT_PARALLEL_STREAMING_H_

#include <cstdint>
#include <string_view>

#include "graph/graph.h"
#include "partition/partitioning.h"

namespace sgp {

/// Options of the parallel-ingest simulation.
struct ParallelStreamOptions {
  /// Number of concurrent ingest workers, each consuming its share of the
  /// vertex stream.
  uint32_t num_streams = 4;

  /// Vertices each worker places between global state synchronizations.
  /// 1 = fully synchronous (equivalent to the sequential algorithm up to
  /// interleaving); larger intervals mean staler neighbor/size views and
  /// cheaper coordination.
  uint32_t sync_interval = 64;
};

/// Result of a parallel-ingest run: the partitioning plus the
/// coordination cost that Table 1's "Parallelization" column is about.
struct ParallelStreamResult {
  Partitioning partitioning;

  /// Global synchronization barriers executed.
  uint64_t sync_rounds = 0;

  /// Assignment records exchanged between workers (each delta entry is
  /// broadcast to the other workers). Hash partitioning needs zero —
  /// Section 4.1.1: greedy methods "require each worker to continuously
  /// communicate and synchronize the history of previous assignments".
  uint64_t sync_messages = 0;
};

/// Algorithms the parallel driver can run. LDG and FENNEL consume the
/// vertex stream (edge-cut); HDRF and PGG consume the edge stream
/// (vertex-cut), sharing partial degrees and replica sets A(u) through
/// the same published-state/delta mechanism — the "distributed table"
/// the paper says greedy vertex-cut methods must synchronize.
enum class ParallelAlgo {
  kLdg,
  kFennel,
  kHdrf,
  kPgg,
};

/// Short uppercase name ("LDG", "FNL", "HDRF", "PGG") for bench output.
std::string_view ParallelAlgoName(ParallelAlgo algo);

/// Deterministic simulation of parallel streaming ingest: `num_streams`
/// workers consume the stream round-robin; each worker sees the globally
/// *published* synopsis (as of the last barrier) plus its own unpublished
/// delta, so between barriers it scores against stale neighbor history,
/// stale loads, stale degrees and stale replica sets. Shows how
/// partitioning quality decays as synchronization gets cheaper — the
/// trade-off that makes hash partitioning attractive for parallel
/// loaders. With one stream the result is exactly the sequential
/// algorithm's.
ParallelStreamResult RunParallelStreaming(const Graph& graph,
                                          const PartitionConfig& config,
                                          const ParallelStreamOptions& options,
                                          ParallelAlgo algo);

}  // namespace sgp

#endif  // SGP_PARTITION_EDGECUT_PARALLEL_STREAMING_H_
