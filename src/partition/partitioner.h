#ifndef SGP_PARTITION_PARTITIONER_H_
#define SGP_PARTITION_PARTITIONER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "partition/partitioning.h"
#include "stream/source.h"

namespace sgp {

/// Result of running a partitioner straight off an edge stream (no
/// materialized Graph). edge_to_partition is indexed by arrival position;
/// vertex_to_partition covers [0, num_vertices) with masters derived
/// exactly like DeriveMasterPlacement (most incident edges, ties toward
/// the lower partition id; never-seen ids hashed).
struct StreamRunResult {
  Partitioning partitioning;

  /// Edges consumed from the stream.
  uint64_t num_edges = 0;

  /// Vertex-id space after the run (max accepted id + 1, or the
  /// configured bound).
  VertexId num_vertices = 0;

  /// False when the source failed mid-stream (I/O error, or a multi-pass
  /// algorithm met a source that cannot rewind); `error` carries the
  /// diagnostic and the partial results are meaningless.
  bool ok = true;
  std::string error;
};

/// Interface implemented by every partitioning algorithm. Implementations
/// are stateless: all per-run state lives inside Run(), so a single
/// instance can be reused across graphs and configurations.
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  /// Short code used throughout the paper's tables (e.g. "LDG", "HDRF").
  virtual std::string_view name() const = 0;

  /// Cut model this algorithm belongs to (Table 1).
  virtual CutModel model() const = 0;

  /// Partitions `graph` into `config.k` parts. The result always passes
  /// ValidatePartitioning().
  virtual Partitioning Run(const Graph& graph,
                           const PartitionConfig& config) const = 0;

  /// Partitions the edges pulled from `source` (from its current
  /// position) into `config.k` parts — the single entry point for
  /// stream-based callers (`partition_tool --input-edgelist`, ingest
  /// pipelines).
  ///
  /// Streaming-capable algorithms override this to run graph-free with an
  /// O(n + k) synopsis; multi-pass overrides (DBH's degree pre-pass, the
  /// two-phase family) require source.SupportsRewind() and report a
  /// regular error otherwise. The default implementation is an adapter
  /// that materializes the stream into an in-memory Graph and calls
  /// Run() with natural order — correct for every algorithm, at the
  /// memory cost the registry exposes as PartitionerInfo::needs_graph.
  virtual StreamRunResult RunOnSource(EdgeStreamSource& source,
                                      const PartitionConfig& config) const;
};

/// Capabilities card of one registered algorithm — what tools, the grid
/// runner and the benches need to discover and drive it without
/// hard-coded name lists.
struct PartitionerInfo {
  /// Canonical paper code ("HDRF", "2PS"); the match is case-insensitive.
  std::string name;

  /// Accepted alternate spellings ("FENNEL" for FNL).
  std::vector<std::string> aliases;

  /// Cut model of the produced partitioning (Table 1).
  CutModel model = CutModel::kEdgeCut;

  /// Stream passes RunOnSource makes over the source (1 for single-pass
  /// streaming, 2 for a pre-pass or two-phase algorithm). Sources must
  /// SupportsRewind() when passes > 1.
  uint32_t passes = 1;

  /// True when RunOnSource falls back to materializing the whole graph
  /// in memory (offline and expansion-based algorithms).
  bool needs_graph = false;

  /// True when the code appears in PartitionerNames() — the Table 2
  /// roster plus the two-phase extensions. Variant codes (RLDG, RFNL,
  /// ESG) resolve but stay unlisted, as before the registry redesign.
  bool listed = true;

  /// One-line description used by the generated tool help text.
  std::string summary;

  /// Creates a fresh instance; never null for a registered entry.
  std::unique_ptr<Partitioner> (*factory)() = nullptr;
};

/// The registry: every known algorithm in registration order (the paper's
/// Table 2 order, then the unlisted variants, then the two-phase family).
/// CreatePartitioner / PartitionerNames / the tool help text are all views
/// over this table, so they can never drift apart.
const std::vector<PartitionerInfo>& PartitionerTable();

/// Registers an additional algorithm (extensions, test doubles). Returns
/// false — and registers nothing — when the name or an alias collides
/// with an existing entry. Not thread-safe against concurrent lookups;
/// register before spawning workers.
bool RegisterPartitioner(PartitionerInfo info);

/// Looks up an algorithm by canonical name or alias (case-insensitive);
/// nullptr when unknown. The pointer stays valid until the next
/// RegisterPartitioner call.
const PartitionerInfo* FindPartitionerInfo(std::string_view name);

/// Creates a partitioner by its paper code (case-insensitive); accepted
/// names are exactly the PartitionerTable() entries — see
/// PartitionerHelpText() for the generated list. Aborts on an unknown
/// name.
std::unique_ptr<Partitioner> CreatePartitioner(std::string_view name);

/// Like CreatePartitioner, but returns nullptr on an unknown name so
/// tools that take user input can report valid names instead of aborting.
std::unique_ptr<Partitioner> TryCreatePartitioner(std::string_view name);

/// All listed partitioner codes, in the paper's Table 2 order followed by
/// the two-phase extensions.
std::vector<std::string> PartitionerNames();

/// Listed partitioner codes restricted to one cut model (MTS counts as
/// edge-cut).
std::vector<std::string> PartitionerNames(CutModel model);

/// Human-readable roster generated from the registry — codes grouped by
/// cut model with aliases and capability notes. Tools print this instead
/// of maintaining a name list by hand.
std::string PartitionerHelpText();

}  // namespace sgp

#endif  // SGP_PARTITION_PARTITIONER_H_
