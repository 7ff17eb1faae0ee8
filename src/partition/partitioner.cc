#include "partition/partitioner.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/check.h"
#include "partition/edgecut/edge_stream_greedy.h"
#include "partition/edgecut/fennel.h"
#include "partition/edgecut/hash_edgecut.h"
#include "partition/edgecut/ldg.h"
#include "partition/edgecut/restreaming.h"
#include "partition/hybrid/ginger.h"
#include "partition/hybrid/hybrid_random.h"
#include "partition/offline/multilevel.h"
#include "partition/twophase/hep.h"
#include "partition/twophase/ne.h"
#include "partition/twophase/two_phase.h"
#include "partition/vertexcut/dbh.h"
#include "partition/vertexcut/greedy.h"
#include "partition/vertexcut/grid.h"
#include "partition/vertexcut/hash_vertexcut.h"
#include "partition/vertexcut/hdrf.h"

namespace sgp {

namespace {

std::string ToUpper(std::string_view name) {
  std::string upper(name);
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return upper;
}

template <typename T>
std::unique_ptr<Partitioner> Make() {
  return std::make_unique<T>();
}

PartitionerInfo Info(std::string name, std::vector<std::string> aliases,
                     CutModel model, uint32_t passes, bool needs_graph,
                     bool listed, std::string summary,
                     std::unique_ptr<Partitioner> (*factory)()) {
  PartitionerInfo info;
  info.name = std::move(name);
  info.aliases = std::move(aliases);
  info.model = model;
  info.passes = passes;
  info.needs_graph = needs_graph;
  info.listed = listed;
  info.summary = std::move(summary);
  info.factory = factory;
  return info;
}

// The built-in roster, seeded in the paper's Table 2 order (vertex-cut,
// hybrid, edge-cut, offline) so every listed view preserves the
// pre-registry PartitionerNames() sequence, followed by the unlisted
// variant codes and the two-phase extensions. A central table instead of
// per-translation-unit self-registration statics: the library is linked
// statically, and linkers are free to drop a .o whose only referenced
// symbol is an initializer, which would silently shrink the roster.
std::vector<PartitionerInfo> BuiltinTable() {
  using CM = CutModel;
  std::vector<PartitionerInfo> table;
  table.push_back(Info("VCR", {}, CM::kVertexCut, 1, false, true,
                       "hash vertex-cut: edge placed by endpoint-pair hash",
                       &Make<HashVertexCutPartitioner>));
  table.push_back(Info("GRID", {}, CM::kVertexCut, 1, true, true,
                       "grid-constrained hashing: replicas confined to a "
                       "row+column of a sqrt(k) grid",
                       &Make<GridPartitioner>));
  table.push_back(Info("DBH", {}, CM::kVertexCut, 2, false, true,
                       "degree-based hashing: edge follows its lower-degree "
                       "endpoint (degree pre-pass)",
                       &Make<DbhPartitioner>));
  table.push_back(Info("HDRF", {}, CM::kVertexCut, 1, false, true,
                       "highest-degree replicated first: greedy vertex-cut "
                       "favoring replication of hubs",
                       &Make<HdrfPartitioner>));
  table.push_back(Info("PGG", {}, CM::kVertexCut, 1, true, true,
                       "PowerGraph greedy vertex-cut over current replica "
                       "sets",
                       &Make<PowerGraphGreedyPartitioner>));
  table.push_back(Info("HCR", {}, CM::kHybrid, 1, true, true,
                       "hybrid cut random: low-degree edge-cut, high-degree "
                       "vertex-cut",
                       &Make<HybridRandomPartitioner>));
  table.push_back(Info("HG", {"GINGER"}, CM::kHybrid, 1, true, true,
                       "Ginger: hybrid cut with Fennel-style greedy vertex "
                       "placement",
                       &Make<GingerPartitioner>));
  table.push_back(Info("ECR", {}, CM::kEdgeCut, 1, true, true,
                       "hash edge-cut: vertex placed by hash (random)",
                       &Make<HashEdgeCutPartitioner>));
  table.push_back(Info("LDG", {}, CM::kEdgeCut, 1, true, true,
                       "linear deterministic greedy edge-cut",
                       &Make<LdgPartitioner>));
  table.push_back(Info("FNL", {"FENNEL"}, CM::kEdgeCut, 1, true, true,
                       "Fennel: interpolated greedy edge-cut",
                       &Make<FennelPartitioner>));
  table.push_back(Info("MTS", {"METIS"}, CM::kEdgeCut, 1, true, true,
                       "offline multilevel baseline (METIS-like)",
                       &Make<MetisLikePartitioner>));
  // Variant codes: resolvable by name, excluded from the Table 2 roster.
  table.push_back(Info("RLDG", {}, CM::kEdgeCut, 1, true, false,
                       "restreaming LDG (multiple passes over the vertex "
                       "stream)",
                       &Make<RestreamingLdgPartitioner>));
  table.push_back(Info("RFNL", {}, CM::kEdgeCut, 1, true, false,
                       "restreaming Fennel",
                       &Make<RestreamingFennelPartitioner>));
  table.push_back(Info("ESG", {}, CM::kEdgeCut, 1, true, false,
                       "edge-stream greedy edge-cut",
                       &Make<EdgeStreamGreedyPartitioner>));
  // Two-phase & clustering extensions (beyond the paper's single-pass
  // design space); appended after the Table 2 roster so the original
  // listed order is a stable prefix.
  table.push_back(Info("2PS", {"TWOPHASE"}, CM::kVertexCut, 2, false, true,
                       "two-phase streaming: clustering pass, then "
                       "cluster-aware HDRF scoring",
                       &Make<TwoPhasePartitioner>));
  table.push_back(Info("HEP", {}, CM::kVertexCut, 2, false, true,
                       "hybrid: hub-hub edges packed in memory, "
                       "low-degree tail streamed with HDRF",
                       &Make<HepPartitioner>));
  table.push_back(Info("NE", {}, CM::kVertexCut, 1, true, true,
                       "neighborhood expansion: grow each partition from a "
                       "boundary of minimum external degree",
                       &Make<NePartitioner>));
  return table;
}

std::vector<PartitionerInfo>& MutableTable() {
  static std::vector<PartitionerInfo> table = BuiltinTable();
  return table;
}

bool Matches(const PartitionerInfo& info, const std::string& upper) {
  if (info.name == upper) return true;
  return std::find(info.aliases.begin(), info.aliases.end(), upper) !=
         info.aliases.end();
}

}  // namespace

StreamRunResult Partitioner::RunOnSource(EdgeStreamSource& source,
                                         const PartitionConfig& config) const {
  // Default adapter: materialize the stream into an in-memory Graph and
  // run the graph path with the caller's configuration. Correct for every
  // algorithm; streaming-capable ones override with an O(n + k) synopsis
  // ingest instead.
  StreamRunResult out;
  VertexId max_bound = 0;
  std::vector<StreamEdge> edges;
  ForEachStreamItem(source, [&](const StreamEdge& e) {
    max_bound = std::max({max_bound, e.src + 1, e.dst + 1});
    edges.push_back(e);
  });
  if (!source.ok()) return StreamRunResult::Failed(source.error());
  GraphBuilder builder(max_bound, /*directed=*/false);
  for (const StreamEdge& e : edges) builder.AddEdge(e.src, e.dst);
  edges.clear();
  edges.shrink_to_fit();
  const Graph graph = std::move(builder).Finalize();
  out.partitioning = Run(graph, config);
  out.num_edges = graph.num_edges();
  out.num_vertices = graph.num_vertices();
  return out;
}

const std::vector<PartitionerInfo>& PartitionerTable() {
  return MutableTable();
}

bool RegisterPartitioner(PartitionerInfo info) {
  if (info.name.empty() || info.factory == nullptr) return false;
  std::vector<std::string> keys;
  keys.push_back(ToUpper(info.name));
  for (const std::string& alias : info.aliases) keys.push_back(ToUpper(alias));
  for (const PartitionerInfo& existing : MutableTable()) {
    for (const std::string& key : keys) {
      if (Matches(existing, key)) return false;
    }
  }
  info.name = keys.front();
  for (size_t i = 0; i < info.aliases.size(); ++i) {
    info.aliases[i] = keys[i + 1];
  }
  MutableTable().push_back(std::move(info));
  return true;
}

const PartitionerInfo* FindPartitionerInfo(std::string_view name) {
  const std::string upper = ToUpper(name);
  for (const PartitionerInfo& info : MutableTable()) {
    if (Matches(info, upper)) return &info;
  }
  return nullptr;
}

std::unique_ptr<Partitioner> TryCreatePartitioner(std::string_view name) {
  const PartitionerInfo* info = FindPartitionerInfo(name);
  return info != nullptr ? info->factory() : nullptr;
}

std::unique_ptr<Partitioner> CreatePartitioner(std::string_view name) {
  std::unique_ptr<Partitioner> partitioner = TryCreatePartitioner(name);
  SGP_CHECK(partitioner != nullptr && "unknown partitioner name");
  return partitioner;
}

std::vector<std::string> PartitionerNames() {
  std::vector<std::string> out;
  for (const PartitionerInfo& info : PartitionerTable()) {
    if (info.listed) out.push_back(info.name);
  }
  return out;
}

std::vector<std::string> PartitionerNames(CutModel model) {
  std::vector<std::string> out;
  for (const PartitionerInfo& info : PartitionerTable()) {
    if (info.listed && info.model == model) out.push_back(info.name);
  }
  return out;
}

std::string PartitionerHelpText() {
  std::string out;
  for (CutModel model : {CutModel::kVertexCut, CutModel::kHybrid,
                         CutModel::kEdgeCut}) {
    out += "  ";
    out += CutModelName(model);
    out += ":\n";
    for (const PartitionerInfo& info : PartitionerTable()) {
      if (info.model != model) continue;
      out += "    ";
      out += info.name;
      for (const std::string& alias : info.aliases) {
        out += "|";
        out += alias;
      }
      out += " — ";
      out += info.summary;
      if (info.passes > 1) {
        out += " [" + std::to_string(info.passes) + " passes]";
      }
      if (info.needs_graph) out += " [in-memory]";
      if (!info.listed) out += " [variant]";
      out += "\n";
    }
  }
  return out;
}

}  // namespace sgp
