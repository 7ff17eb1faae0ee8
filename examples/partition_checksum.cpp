// Deterministic partitioning fingerprints: one FNV-1a line per
// (algorithm, dataset, k, seed, order, capacity profile) cell, plus the
// parallel-ingest driver at several worker counts and HDRF, 2PS and HEP
// at the non-default balance weights λ = 0 and λ = 4, and the restreaming
// codes under a tight balance cap. Two builds of this
// repository must print byte-identical output — scripts/check.sh diffs a
// portable build against a -march=native one (and the PR workflow diffs
// refactors against the previous HEAD) to prove every scoring change is
// behavior-preserving down to the last tie-break. The scale-9 grid is
// committed as tests/golden/partition_checksum_scale9.txt; the
// partition_checksum_matches_golden ctest diffs against it, on the AVX2
// kernels or the portable ones, whichever the CPU selects.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "flags.h"
#include "graph/datasets.h"
#include "partition/edgecut/parallel_streaming.h"
#include "partition/partitioner.h"
#include "partition/partitioning.h"

namespace {

using namespace sgp;

uint64_t Fnv1a(uint64_t h, const std::vector<PartitionId>& v) {
  for (PartitionId p : v) {
    h ^= static_cast<uint64_t>(p) + 1;  // +1 keeps kInvalidPartition distinct
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t Fingerprint(const Partitioning& p) {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = Fnv1a(h, p.vertex_to_partition);
  h = Fnv1a(h, p.edge_to_partition);
  return h;
}

const char* OrderName(StreamOrder order) {
  switch (order) {
    case StreamOrder::kNatural: return "natural";
    case StreamOrder::kRandom: return "random";
    case StreamOrder::kBfs: return "bfs";
    case StreamOrder::kDfs: return "dfs";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const uint32_t scale =
      static_cast<uint32_t>(flags.TakeUint64("--scale").value_or(10));
  flags.TakePositional();
  if (!flags.ok()) {
    std::fprintf(stderr, "error: %s\n", flags.error().c_str());
    return 1;
  }

  const std::vector<std::string> datasets = {"twitter", "usaroad"};
  const std::vector<PartitionId> ks = {3, 8, 32, 128, 257};
  const std::vector<uint64_t> seeds = {1, 42};
  const std::vector<StreamOrder> orders = {StreamOrder::kRandom,
                                           StreamOrder::kBfs};

  for (const std::string& dataset : datasets) {
    const Graph g = MakeDataset(dataset, scale);
    for (const std::string& algo : PartitionerNames()) {
      for (PartitionId k : ks) {
        for (uint64_t seed : seeds) {
          for (StreamOrder order : orders) {
            for (bool hetero : {false, true}) {
              PartitionConfig cfg;
              cfg.k = k;
              cfg.seed = seed;
              cfg.order = order;
              if (hetero) {
                cfg.capacity_weights.resize(k);
                for (PartitionId i = 0; i < k; ++i) {
                  cfg.capacity_weights[i] = 1.0 + 0.5 * (i % 4);
                }
              }
              Partitioning p = CreatePartitioner(algo)->Run(g, cfg);
              std::printf("%s %s k=%u seed=%" PRIu64 " %s %s %016" PRIx64
                          "\n",
                          dataset.c_str(), algo.c_str(), k, seed,
                          OrderName(order), hetero ? "hetero" : "plain",
                          Fingerprint(p));
            }
          }
        }
      }
    }
    // The parallel drivers share the sharded scoring path; one worker is
    // the sequential algorithm, three exercises the stale delta views.
    for (ParallelAlgo algo : {ParallelAlgo::kLdg, ParallelAlgo::kFennel,
                              ParallelAlgo::kHdrf, ParallelAlgo::kPgg}) {
      for (uint32_t workers : {1u, 3u}) {
        for (PartitionId k : {8u, 128u}) {
          PartitionConfig cfg;
          cfg.k = k;
          cfg.seed = 42;
          ParallelStreamOptions options;
          options.num_streams = workers;
          options.sync_interval = 64;
          ParallelStreamResult r =
              RunParallelStreaming(g, cfg, options, algo);
          std::printf("%s PAR-%s w=%u k=%u %016" PRIx64 "\n", dataset.c_str(),
                      std::string(ParallelAlgoName(algo)).c_str(), workers, k,
                      Fingerprint(r.partitioning));
        }
      }
    }
  }
  // Non-default HDRF λ for the codes that score with the balance term.
  // At λ = 0 every balance term is 0, so each pick is decided by the
  // g-term and the tie rule (lighter load, then lower id) alone.
  for (const std::string& dataset : datasets) {
    const Graph g = MakeDataset(dataset, scale);
    for (const char* algo : {"HDRF", "2PS", "HEP"}) {
      for (PartitionId k : {3u, 32u, 257u}) {
        for (double lambda : {0.0, 4.0}) {
          for (StreamOrder order : orders) {
            for (bool hetero : {false, true}) {
              PartitionConfig cfg;
              cfg.k = k;
              cfg.seed = 42;
              cfg.order = order;
              cfg.hdrf_lambda = lambda;
              if (hetero) {
                cfg.capacity_weights.resize(k);
                for (PartitionId i = 0; i < k; ++i) {
                  cfg.capacity_weights[i] = 1.0 + 0.5 * (i % 4);
                }
              }
              Partitioning p = CreatePartitioner(algo)->Run(g, cfg);
              std::printf("%s %s k=%u seed=42 %s %s lambda=%g %016" PRIx64
                          "\n",
                          dataset.c_str(), algo, k, OrderName(order),
                          hetero ? "hetero" : "plain", lambda,
                          Fingerprint(p));
            }
          }
        }
      }
    }
  }
  // Restreaming under a tight balance cap: from the second pass on, each
  // vertex is taken out of its partition before it is re-placed
  // (PartitionState::RemoveLoadUpdatingTerms). With caps of 1.0 or 1.02
  // times the mean load the partitions run full, so the old partition's
  // refreshed term and room decide where the vertex goes.
  for (const std::string& dataset : datasets) {
    const Graph g = MakeDataset(dataset, scale);
    for (const char* algo : {"RLDG", "RFNL"}) {
      for (PartitionId k : {8u, 32u}) {
        for (double slack : {1.0, 1.02}) {
          PartitionConfig cfg;
          cfg.k = k;
          cfg.seed = 42;
          cfg.balance_slack = slack;
          cfg.restream_passes = 8;
          Partitioning p = CreatePartitioner(algo)->Run(g, cfg);
          std::printf("%s %s k=%u seed=42 random plain slack=%g passes=8 "
                      "%016" PRIx64 "\n",
                      dataset.c_str(), algo, k, slack, Fingerprint(p));
        }
      }
    }
  }
  return 0;
}
