// Command-line partitioner: read an edge list, run any algorithm from the
// suite, report quality metrics, and optionally write the vertex→partition
// assignment — the shape of tool a downstream system would call during
// graph loading.
//
// Usage:
//   partition_tool <edge-list> <algorithm> <k> [options]        (in-memory)
//   partition_tool --input-edgelist <file> <algorithm> <k> ...  (streaming)
//
// The second form pulls the edge list chunk by chunk through
// EdgeListFileSource into Partitioner::RunOnSource. Any registered
// algorithm works: streaming-capable codes (VCR, DBH, HDRF, 2PS, HEP)
// keep only the O(n + k) synopsis in memory — multi-pass codes rewind the
// file between passes — while needs_graph codes fall back to the adapter
// that materializes the graph (the tool warns when that happens).
//
// Options:
//   --directed            treat the input as a directed graph (in-memory)
//   --order <o>           stream order: natural|random|bfs|dfs (in-memory)
//   --chunk-size <n>      elements per ingest chunk (both modes)
//   --seed <s>            RNG/hash seed
//   --slack <b>           balance slack β ≥ 1.0, finite (default 1.05)
//   --output <file>       write "vertex partition" lines
//   --metrics-out <file>  dump the telemetry registry as JSON
//   --trace-out <file>    dump the registry with traces included
//
// The first output line names the scoring kernels the CPU selected
// (avx2 or portable); both produce identical partitionings.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/telemetry.h"
#include "flags.h"
#include "graph/io.h"
#include "partition/metrics.h"
#include "partition/partition_io.h"
#include "partition/partitioner.h"
#include "partition/score_core.h"
#include "stream/source.h"

namespace {

void PrintUsage() {
  std::cerr
      << "usage: partition_tool <edge-list> <algorithm> <k> [options]\n"
         "       partition_tool --input-edgelist <file> <algorithm> <k> "
         "[options]\n"
         "options: [--directed] [--order o] [--chunk-size n] [--seed s]\n"
         "         [--slack b] [--output file] [--metrics-out file]\n"
         "         [--trace-out file]\n"
         "algorithms (from the registry):\n"
      << sgp::PartitionerHelpText();
}

void PrintUnknownAlgorithm(const std::string& algo) {
  std::cerr << "error: unknown algorithm '" << algo
            << "'; valid names by cut model:\n"
            << sgp::PartitionerHelpText();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sgp;
  PartitionConfig config;

  FlagParser flags(argc, argv);
  // --input-edgelist: partition without a Graph.
  const std::string stream_path =
      flags.TakeString("--input-edgelist").value_or("");
  const bool directed = flags.TakeBool("--directed");
  if (auto order = flags.TakeString("--order")) {
    config.order = ParseStreamOrder(*order);
  }
  const uint64_t chunk_size = flags.TakeUint64("--chunk-size").value_or(0);
  config.seed = flags.TakeUint64("--seed").value_or(config.seed);
  config.balance_slack =
      flags.TakeDouble("--slack").value_or(config.balance_slack);
  const std::string output = flags.TakeString("--output").value_or("");
  const std::string metrics_out =
      flags.TakeString("--metrics-out").value_or("");
  const std::string trace_out = flags.TakeString("--trace-out").value_or("");
  std::vector<std::string> positional = flags.TakePositional();
  if (!flags.ok()) {
    std::cerr << "error: " << flags.error() << "\n";
    return 1;
  }
  // β < 1 caps every partition below its fair share, which the balance
  // rule cannot meet; NaN or ∞ would disable the cap altogether.
  if (!std::isfinite(config.balance_slack) || config.balance_slack < 1.0) {
    std::cerr << "error: --slack expects a finite balance slack >= 1.0, got "
              << config.balance_slack << "\n";
    return 1;
  }

  // Streaming mode drops the edge-list positional: the file is the flag's
  // argument, so only <algorithm> <k> remain.
  const size_t expected = stream_path.empty() ? 3 : 2;
  if (positional.size() != expected) {
    PrintUsage();
    return 1;
  }
  const std::string algo = positional[expected - 2];
  const std::string& k_text = positional[expected - 1];
  const std::optional<uint64_t> k = ParseUint64(k_text);
  if (!k || *k == 0 || *k >= kInvalidPartition) {
    std::cerr << "error: <k> expects a partition count from 1 to "
              << kInvalidPartition - 1 << ", got '" << k_text << "'\n";
    return 1;
  }
  config.k = static_cast<PartitionId>(*k);
  config.ingest_chunk_size = chunk_size;

  std::cout << "score kernels: "
            << (score::avx2::Available() ? "avx2" : "portable") << "\n";

  Partitioning partitioning;
  if (!stream_path.empty()) {
    const PartitionerInfo* info = FindPartitionerInfo(algo);
    if (info == nullptr) {
      PrintUnknownAlgorithm(algo);
      return 1;
    }
    auto partitioner = info->factory();
    if (info->needs_graph) {
      std::cerr << "warning: " << info->name
                << " materializes the whole graph in memory (no O(n + k) "
                   "streaming path)\n";
    }
    EdgeListFileSource::Options opts;
    if (chunk_size > 0) opts.chunk_size = chunk_size;
    EdgeListFileSource source(stream_path, opts);
    StreamRunResult r = partitioner->RunOnSource(source, config);
    if (!r.ok) {
      std::cerr << "error: " << r.error << "\n";
      return 1;
    }
    if (source.skipped_lines() > 0) {
      std::cerr << "warning: skipped " << source.skipped_lines()
                << " malformed line(s)\n";
    }
    partitioning = std::move(r.partitioning);
    std::cout << "streamed " << r.num_edges << " edges over "
              << r.num_vertices << " vertices (chunk size "
              << opts.chunk_size << ", " << info->passes << " pass"
              << (info->passes > 1 ? "es" : "") << ")\n";

    // Without a materialized graph only stream-side quality measures are
    // available: edge balance over the k loads plus the synopsis size.
    std::vector<uint64_t> edge_loads(config.k, 0);
    for (PartitionId p : partitioning.edge_to_partition) {
      if (p < config.k) ++edge_loads[p];
    }
    const uint64_t max_load =
        *std::max_element(edge_loads.begin(), edge_loads.end());
    const double avg_load =
        static_cast<double>(r.num_edges) / static_cast<double>(config.k);
    std::cout << "algorithm:          " << info->name << " ("
              << CutModelName(info->model) << ", streamed)\n"
              << "partitions:         " << config.k << "\n"
              << "partitioning time:  "
              << partitioning.partitioning_seconds * 1e3 << " ms\n"
              << "edge imbalance:     "
              << (avg_load > 0 ? static_cast<double>(max_load) / avg_load
                               : 1.0)
              << "\n"
              << "synopsis bytes:     " << partitioning.state_bytes << "\n";
  } else {
    const std::string& path = positional[0];
    EdgeListReadResult read = TryReadEdgeListFile(path, directed);
    if (!read.ok) {
      std::cerr << "error: " << read.error << "\n";
      return 1;
    }
    if (read.skipped_lines > 0) {
      std::cerr << "warning: skipped " << read.skipped_lines
                << " malformed line(s)\n";
    }
    Graph graph = std::move(read.graph);
    GraphStats stats = ComputeStats(graph);
    std::cout << "loaded " << stats.num_vertices << " vertices, "
              << stats.num_edges << " edges\n";

    auto partitioner = TryCreatePartitioner(algo);
    if (partitioner == nullptr) {
      PrintUnknownAlgorithm(algo);
      return 1;
    }
    partitioning = partitioner->Run(graph, config);
    ValidatePartitioning(graph, partitioning);
    PartitionMetrics metrics = ComputeMetrics(graph, partitioning);

    std::cout << "algorithm:          " << partitioner->name() << " ("
              << CutModelName(partitioner->model()) << ")\n"
              << "partitions:         " << config.k << "\n"
              << "partitioning time:  "
              << partitioning.partitioning_seconds * 1e3 << " ms\n"
              << "edge-cut ratio:     " << metrics.edge_cut_ratio << "\n"
              << "replication factor: " << metrics.replication_factor << "\n"
              << "vertex imbalance:   " << metrics.vertex_imbalance << "\n"
              << "edge imbalance:     " << metrics.edge_imbalance << "\n";
  }

  if (!output.empty()) {
    WritePartitioningFile(partitioning, output);
    std::cout << "partitioning written to " << output
              << " (reload with ReadPartitioningFile)\n";
  }
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::cerr << "error: cannot write " << metrics_out << "\n";
      return 1;
    }
    out << MetricsRegistry::Global().ExportJson();
    std::cout << "metrics written to " << metrics_out << "\n";
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) {
      std::cerr << "error: cannot write " << trace_out << "\n";
      return 1;
    }
    ExportOptions options;
    options.include_traces = true;
    out << MetricsRegistry::Global().ExportJson(options);
    std::cout << "metrics+traces written to " << trace_out << "\n";
  }
  return 0;
}
