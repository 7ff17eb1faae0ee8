#ifndef SGP_BENCH_BENCH_UTIL_H_
#define SGP_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/telemetry.h"
#include "graph/datasets.h"
#include "graph/graph.h"

namespace sgp::bench {

/// Graph scale (log2 vertices) used by the harnesses. Default 13 (8K
/// vertices) keeps every binary in the seconds range; export SGP_SCALE to
/// rerun at larger sizes (e.g. SGP_SCALE=16).
inline uint32_t ScaleFromEnv(uint32_t default_scale = 13) {
  const char* env = std::getenv("SGP_SCALE");
  if (env == nullptr) return default_scale;
  int v = std::atoi(env);
  if (v < 6 || v > 24) return default_scale;
  return static_cast<uint32_t>(v);
}

/// The paper's Table 2 algorithm roster for offline analytics, extended
/// with the two-phase / clustering families (2PS, HEP, NE).
inline std::vector<std::string> OfflineAlgos() {
  return {"VCR", "GRID", "DBH", "HDRF", "HCR", "HG", "ECR",
          "LDG", "FNL",  "MTS", "2PS",  "HEP", "NE"};
}

/// The paper's Table 2 algorithm roster for online queries (JanusGraph
/// supports only the edge-cut model).
inline std::vector<std::string> OnlineAlgos() {
  return {"ECR", "LDG", "FNL", "MTS"};
}

/// Prints the standard experiment banner.
inline void PrintBanner(const char* experiment, const char* description,
                        uint32_t scale) {
  std::printf("=== %s ===\n%s\n(synthetic datasets at scale %u; export "
              "SGP_SCALE to change)\n\n",
              experiment, description, scale);
}

/// Dumps the global metrics registry to BENCH_<name>.json — the
/// machine-readable companion to the printed tables (schema
/// "sgp.bench.v1", see docs/OBSERVABILITY.md). Deterministic metrics and
/// wall-clock metrics land in separate arrays so the former can be diffed
/// byte-for-byte across runs with identical seeds. Files are written to
/// the working directory, or to $SGP_BENCH_JSON_DIR when set. Returns the
/// path written, or "" on I/O failure (reported on stderr, never fatal).
inline std::string WriteBenchJson(const char* bench_name, uint32_t scale) {
  const MetricsRegistry& reg = MetricsRegistry::Global();

  std::string json;
  json += "{\"schema\":\"sgp.bench.v1\",\"bench\":\"";
  json += bench_name;
  json += "\",\"scale\":";
  json += std::to_string(scale);
  json += ",\"metrics\":";
  json +=
      SerializeMetricsArrayJson(reg.Snapshot(MetricFilter::kDeterministicOnly));
  json += ",\"wall_time_metrics\":";
  json += SerializeMetricsArrayJson(reg.Snapshot(MetricFilter::kWallTimeOnly));
  json += "}\n";

  std::string path = std::string("BENCH_") + bench_name + ".json";
  if (const char* dir = std::getenv("SGP_BENCH_JSON_DIR");
      dir != nullptr && *dir != '\0') {
    path = std::string(dir) + "/" + path;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[metrics] cannot write %s\n", path.c_str());
    return "";
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("[metrics] wrote %s\n", path.c_str());
  return path;
}

/// Writes grid records to BENCH_<name>.csv next to the JSON dump, using
/// the same column schema the library's CSV exports use (grid.h is the
/// source of truth). Honors $SGP_BENCH_JSON_DIR like WriteBenchJson.
/// Returns the path written, or "" on I/O failure (reported on stderr,
/// never fatal).
template <typename Record>
std::string WriteBenchCsv(const char* bench_name,
                          const CsvSchema<Record>& schema,
                          const std::vector<Record>& records) {
  std::string path = std::string("BENCH_") + bench_name + ".csv";
  if (const char* dir = std::getenv("SGP_BENCH_JSON_DIR");
      dir != nullptr && *dir != '\0') {
    path = std::string(dir) + "/" + path;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "[metrics] cannot write %s\n", path.c_str());
    return "";
  }
  schema.Write(out, records);
  std::printf("[metrics] wrote %s\n", path.c_str());
  return path;
}

}  // namespace sgp::bench

#endif  // SGP_BENCH_BENCH_UTIL_H_
