#include "partition/edgecut/parallel_streaming.h"

#include <gtest/gtest.h>
#include "graph/datasets.h"
#include "partition/metrics.h"
#include "partition/partitioner.h"

namespace sgp {
namespace {

TEST(ParallelStreamingTest, ValidPartitioningAnyConfiguration) {
  Graph g = MakeDataset("ldbc", 9);
  for (uint32_t streams : {1u, 2u, 8u}) {
    for (uint32_t interval : {1u, 16u, 1024u}) {
      PartitionConfig cfg;
      cfg.k = 4;
      ParallelStreamOptions opts;
      opts.num_streams = streams;
      opts.sync_interval = interval;
      ParallelStreamResult r =
          RunParallelStreaming(g, cfg, opts, ParallelAlgo::kLdg);
      ValidatePartitioning(g, r.partitioning);
      EXPECT_GT(r.sync_rounds, 0u);
    }
  }
}

TEST(ParallelStreamingTest, SingleStreamMatchesSequentialQuality) {
  Graph g = MakeDataset("ldbc", 10);
  PartitionConfig cfg;
  cfg.k = 8;
  ParallelStreamOptions opts;
  opts.num_streams = 1;
  opts.sync_interval = 1u << 30;
  ParallelStreamResult r =
      RunParallelStreaming(g, cfg, opts, ParallelAlgo::kLdg);
  PartitionMetrics parallel = ComputeMetrics(g, r.partitioning);
  PartitionMetrics sequential =
      ComputeMetrics(g, CreatePartitioner("LDG")->Run(g, cfg));
  // One worker with its own delta visible is exactly sequential LDG.
  EXPECT_NEAR(parallel.edge_cut_ratio, sequential.edge_cut_ratio, 1e-9);
}

TEST(ParallelStreamingTest, StalenessDegradesQuality) {
  Graph g = MakeDataset("ldbc", 11);
  PartitionConfig cfg;
  cfg.k = 8;
  ParallelStreamOptions fresh;
  fresh.num_streams = 8;
  fresh.sync_interval = 1;
  ParallelStreamOptions stale;
  stale.num_streams = 8;
  stale.sync_interval = 1u << 20;  // one sync at the very end
  const ParallelStreamResult r_fresh =
      RunParallelStreaming(g, cfg, fresh, ParallelAlgo::kLdg);
  const ParallelStreamResult r_stale =
      RunParallelStreaming(g, cfg, stale, ParallelAlgo::kLdg);
  double cut_fresh = ComputeMetrics(g, r_fresh.partitioning).edge_cut_ratio;
  double cut_stale = ComputeMetrics(g, r_stale.partitioning).edge_cut_ratio;
  EXPECT_LT(cut_fresh, cut_stale);
}

TEST(ParallelStreamingTest, SyncCostFallsWithInterval) {
  Graph g = MakeDataset("ldbc", 9);
  PartitionConfig cfg;
  cfg.k = 4;
  ParallelStreamOptions frequent;
  frequent.num_streams = 4;
  frequent.sync_interval = 1;
  ParallelStreamOptions rare = frequent;
  rare.sync_interval = 256;
  ParallelStreamResult rf =
      RunParallelStreaming(g, cfg, frequent, ParallelAlgo::kLdg);
  ParallelStreamResult rr =
      RunParallelStreaming(g, cfg, rare, ParallelAlgo::kLdg);
  EXPECT_GT(rf.sync_rounds, rr.sync_rounds);
  // Every assignment is broadcast exactly once regardless of interval.
  EXPECT_EQ(rf.sync_messages, rr.sync_messages);
}

struct AlgoTwin {
  ParallelAlgo algo;
  const char* sequential;  // registry code of the sequential twin
};

const AlgoTwin kTwins[] = {{ParallelAlgo::kLdg, "LDG"},
                           {ParallelAlgo::kFennel, "FNL"},
                           {ParallelAlgo::kHdrf, "HDRF"},
                           {ParallelAlgo::kPgg, "PGG"}};

// One worker sees exact state at every placement, so the generalized
// driver must reproduce the sequential algorithm bit for bit — for both
// vertex-stream (LDG/FNL) and edge-stream (HDRF/PGG) objectives.
TEST(ParallelStreamingTest, SingleStreamIsExactlySequential) {
  Graph g = MakeDataset("ldbc", 10);
  for (const AlgoTwin& twin : kTwins) {
    PartitionConfig cfg;
    cfg.k = 8;
    cfg.seed = 7;
    ParallelStreamOptions opts;
    opts.num_streams = 1;
    opts.sync_interval = 64;
    ParallelStreamResult r = RunParallelStreaming(g, cfg, opts, twin.algo);
    Partitioning seq = CreatePartitioner(twin.sequential)->Run(g, cfg);
    EXPECT_EQ(r.partitioning.vertex_to_partition, seq.vertex_to_partition)
        << ParallelAlgoName(twin.algo);
    EXPECT_EQ(r.partitioning.edge_to_partition, seq.edge_to_partition)
        << ParallelAlgoName(twin.algo);
    // A single worker has no one to talk to.
    EXPECT_EQ(r.sync_messages, 0u);
  }
}

TEST(ParallelStreamingTest, AllAlgorithmsValidAcrossConfigurations) {
  Graph g = MakeDataset("twitter", 9);
  for (const AlgoTwin& twin : kTwins) {
    for (uint32_t streams : {2u, 8u}) {
      for (uint32_t interval : {1u, 256u}) {
        PartitionConfig cfg;
        cfg.k = 4;
        ParallelStreamOptions opts;
        opts.num_streams = streams;
        opts.sync_interval = interval;
        ParallelStreamResult r = RunParallelStreaming(g, cfg, opts, twin.algo);
        ValidatePartitioning(g, r.partitioning);
        EXPECT_GT(r.sync_rounds, 0u) << ParallelAlgoName(twin.algo);
        // Every placement record crosses to the s-1 other workers once.
        const uint64_t items = twin.algo == ParallelAlgo::kLdg ||
                                       twin.algo == ParallelAlgo::kFennel
                                   ? g.num_vertices()
                                   : g.num_edges();
        EXPECT_EQ(r.sync_messages, items * (streams - 1))
            << ParallelAlgoName(twin.algo);
        EXPECT_GT(r.partitioning.state_bytes, 0u);
      }
    }
  }
}

TEST(ParallelStreamingTest, SyncRoundsFallWithIntervalForEdgeAlgos) {
  Graph g = MakeDataset("ldbc", 9);
  PartitionConfig cfg;
  cfg.k = 4;
  ParallelStreamOptions frequent;
  frequent.num_streams = 4;
  frequent.sync_interval = 1;
  ParallelStreamOptions rare = frequent;
  rare.sync_interval = 256;
  for (ParallelAlgo algo : {ParallelAlgo::kHdrf, ParallelAlgo::kPgg}) {
    ParallelStreamResult rf = RunParallelStreaming(g, cfg, frequent, algo);
    ParallelStreamResult rr = RunParallelStreaming(g, cfg, rare, algo);
    EXPECT_GT(rf.sync_rounds, rr.sync_rounds) << ParallelAlgoName(algo);
    EXPECT_EQ(rf.sync_messages, rr.sync_messages) << ParallelAlgoName(algo);
  }
}

TEST(ParallelStreamingTest, StalenessRaisesReplicationForHdrf) {
  Graph g = MakeDataset("twitter", 11);
  PartitionConfig cfg;
  cfg.k = 8;
  ParallelStreamOptions fresh;
  fresh.num_streams = 8;
  fresh.sync_interval = 1;
  ParallelStreamOptions stale;
  stale.num_streams = 8;
  stale.sync_interval = 1u << 20;  // one sync at the very end
  double rf_fresh =
      ComputeMetrics(
          g, RunParallelStreaming(g, cfg, fresh, ParallelAlgo::kHdrf)
                 .partitioning)
          .replication_factor;
  double rf_stale =
      ComputeMetrics(
          g, RunParallelStreaming(g, cfg, stale, ParallelAlgo::kHdrf)
                 .partitioning)
          .replication_factor;
  // Workers that never see each other's replica tables re-replicate.
  EXPECT_LT(rf_fresh, rf_stale);
}

TEST(ParallelStreamingTest, StillBeatsHashEvenWhenStale) {
  Graph g = MakeDataset("ldbc", 11);
  PartitionConfig cfg;
  cfg.k = 8;
  ParallelStreamOptions opts;
  opts.num_streams = 8;
  opts.sync_interval = 128;
  const ParallelStreamResult r =
      RunParallelStreaming(g, cfg, opts, ParallelAlgo::kLdg);
  double cut_parallel = ComputeMetrics(g, r.partitioning).edge_cut_ratio;
  double cut_hash =
      ComputeMetrics(g, CreatePartitioner("ECR")->Run(g, cfg))
          .edge_cut_ratio;
  EXPECT_LT(cut_parallel, cut_hash * 0.9);
}

}  // namespace
}  // namespace sgp
