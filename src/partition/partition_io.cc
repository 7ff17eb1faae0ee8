#include "partition/partition_io.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/check.h"
#include "common/text_writer.h"
#include "partition/metrics.h"

namespace sgp {

void WritePartitioning(const Partitioning& partitioning, std::ostream& out) {
  BlockTextWriter writer(out);
  writer << "sgp-partitioning v1\n";
  writer << "model " << CutModelName(partitioning.model) << " k "
         << partitioning.k << " vertices "
         << partitioning.vertex_to_partition.size() << " edges "
         << partitioning.edge_to_partition.size() << '\n';
  for (size_t v = 0; v < partitioning.vertex_to_partition.size(); ++v) {
    writer << "v " << v << ' ' << partitioning.vertex_to_partition[v] << '\n';
  }
  for (size_t e = 0; e < partitioning.edge_to_partition.size(); ++e) {
    writer << "e " << e << ' ' << partitioning.edge_to_partition[e] << '\n';
  }
}

void WritePartitioningFile(const Partitioning& partitioning,
                           const std::string& path) {
  std::ofstream out(path);
  SGP_CHECK(out.good() && "cannot open partitioning output file");
  WritePartitioning(partitioning, out);
}

Partitioning ReadPartitioning(const Graph& graph, std::istream& in) {
  std::string line;
  SGP_CHECK(std::getline(in, line) && line == "sgp-partitioning v1");

  SGP_CHECK(std::getline(in, line));
  std::istringstream header(line);
  std::string tok;
  std::string model_name;
  uint64_t k = 0;
  uint64_t n = 0;
  uint64_t m = 0;
  SGP_CHECK(header >> tok && tok == "model");
  SGP_CHECK(header >> model_name);
  SGP_CHECK(header >> tok && tok == "k");
  SGP_CHECK(header >> k);
  SGP_CHECK(header >> tok && tok == "vertices");
  SGP_CHECK(header >> n);
  SGP_CHECK(header >> tok && tok == "edges");
  SGP_CHECK(header >> m);
  SGP_CHECK(n == graph.num_vertices());
  SGP_CHECK(m == graph.num_edges());

  Partitioning p;
  p.k = static_cast<PartitionId>(k);
  if (model_name == "edge-cut") {
    p.model = CutModel::kEdgeCut;
  } else if (model_name == "vertex-cut") {
    p.model = CutModel::kVertexCut;
  } else if (model_name == "hybrid-cut") {
    p.model = CutModel::kHybrid;
  } else {
    SGP_CHECK(false && "unknown cut model in partitioning file");
  }
  p.vertex_to_partition.assign(n, kInvalidPartition);
  p.edge_to_partition.assign(m, kInvalidPartition);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    char kind = 0;
    uint64_t id = 0;
    uint64_t part = 0;
    SGP_CHECK(ls >> kind >> id >> part);
    if (kind == 'v') {
      SGP_CHECK(id < n);
      p.vertex_to_partition[id] = static_cast<PartitionId>(part);
    } else if (kind == 'e') {
      SGP_CHECK(id < m);
      p.edge_to_partition[id] = static_cast<PartitionId>(part);
    } else {
      SGP_CHECK(false && "unknown record kind in partitioning file");
    }
  }
  ValidatePartitioning(graph, p);
  return p;
}

Partitioning ReadPartitioningFile(const Graph& graph,
                                  const std::string& path) {
  std::ifstream in(path);
  SGP_CHECK(in.good() && "cannot open partitioning file");
  return ReadPartitioning(graph, in);
}

}  // namespace sgp
