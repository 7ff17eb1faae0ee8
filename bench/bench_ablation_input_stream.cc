// Ablation (Section 4.1.2): vertex streams vs edge streams for edge-cut
// partitioning. Vertex streams carry complete adjacency; edge streams
// never do, so edge-stream edge-cut (ESG, the CST/IOGP family) trails the
// vertex-stream algorithms — the reason the paper excludes that class.
// Also contrasts the dynamic re-partitioner (Hermes/Leopard family)
// refining the same stream with a migration budget.
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "graph/io.h"
#include "partition/dynamic/dynamic_partitioner.h"
#include "partition/edgecut/edge_stream_greedy.h"
#include "partition/metrics.h"
#include "partition/partitioner.h"
#include "stream/source.h"

int main() {
  using namespace sgp;
  const uint32_t scale = bench::ScaleFromEnv();
  bench::PrintBanner("Ablation: input stream model",
                     "Edge-cut quality by input model (ldbc)", scale);
  Graph g = MakeDataset("ldbc", scale);

  TablePrinter table({"Method", "Input", "k=8 cut", "k=32 cut",
                      "Migrations(k=8)"});
  auto run_static = [&](const char* algo, const char* input) {
    std::vector<std::string> row{algo, input};
    for (PartitionId k : {8u, 32u}) {
      PartitionConfig cfg;
      cfg.k = k;
      PartitionMetrics m =
          ComputeMetrics(g, CreatePartitioner(algo)->Run(g, cfg));
      row.push_back(FormatDouble(m.edge_cut_ratio, 3));
    }
    row.push_back("-");
    table.AddRow(std::move(row));
  };
  run_static("ECR", "none (hash)");
  run_static("LDG", "vertex stream");
  run_static("FNL", "vertex stream");
  run_static("ESG", "edge stream");

  // The same ESG loop fed from disk through the bounded-memory
  // EdgeListFileSource — at most four page-sized chunks of edges in
  // memory, parsed ahead by its reader thread, never a materialized
  // stream. Quality matches the in-memory
  // natural-order run; this row is about the ingest path, not the score.
  {
    const std::string path = "/tmp/sgp_input_stream_bench_edges.txt";
    WriteEdgeListFile(g, path);
    std::vector<std::string> row{"ESG (disk)", "edge stream from file"};
    for (PartitionId k : {8u, 32u}) {
      PartitionConfig cfg;
      cfg.k = k;
      EdgeListFileSource source(path);
      Partitioning p = internal_edgecut::RunEdgeStreamGreedy(
          source, g.num_vertices(), cfg);
      DeriveEdgePlacement(g, &p);
      row.push_back(FormatDouble(ComputeMetrics(g, p).edge_cut_ratio, 3));
    }
    row.push_back("-");
    table.AddRow(std::move(row));
    std::remove(path.c_str());
  }

  // Dynamic refinement over the same edge stream.
  std::vector<std::string> row{"Leopard-style", "edge stream + migration"};
  uint64_t migrations8 = 0;
  for (PartitionId k : {8u, 32u}) {
    DynamicOptions opts;
    opts.k = k;
    opts.migration_gain = 1.3;
    DynamicPartitioner dp(opts);
    for (const Edge& e : g.edges()) dp.AddEdge(e.src, e.dst);
    if (k == 8) migrations8 = dp.total_migrations();
    PartitionMetrics m = ComputeMetrics(g, dp.Snapshot(g));
    row.push_back(FormatDouble(m.edge_cut_ratio, 3));
  }
  row.push_back(FormatCount(migrations8));
  table.AddRow(std::move(row));

  table.Print(std::cout);
  std::cout
      << "\nExpected shape: hash worst; vertex-stream LDG/FNL best (full\n"
         "adjacency at decision time); the edge-stream greedy lands in\n"
         "between (Section 4.1.2: \"they produce partitionings of lower\n"
         "quality than their vertex stream counterparts\"); allowing\n"
         "migrations (the re-partitioning family of Section 2) buys back\n"
         "part of the gap at the cost of vertex moves.\n";
  sgp::bench::WriteBenchJson("ablation_input_stream", scale);
  return 0;
}
