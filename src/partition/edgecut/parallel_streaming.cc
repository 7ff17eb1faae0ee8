#include "partition/edgecut/parallel_streaming.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/timer.h"
#include "partition/score_core.h"
#include "partition/state.h"
#include "stream/source.h"

namespace sgp {

namespace {

// Worker-interval scratch of the sharded scorers: the combined
// (published + own delta) loads materialized as a flat array at the start
// of each worker's interval and updated incrementally per placement, plus
// the row the picks read over them — HDRF's balance row or the LDG/FENNEL
// term row — rebuilt at each interval start and updated per placement
// exactly as the sequential state's. Only the owning worker mutates state
// between barriers, so the scratch stays exactly equal to CombinedLoad and
// the row to one computed from it — same integers, same operations — for
// the whole interval.
struct CombinedLoadScratch {
  enum class Row { kNone, kBalance, kGreedy };

  std::vector<uint64_t> loads;
  Row row;
  BalanceRow balance;
  GreedyObjective objective;
  GreedyTermRow terms;

  CombinedLoadScratch(Row row, double lambda,
                      const GreedyObjective& objective = {})
      : row(row), balance(lambda), objective(objective) {}

  void Fill(const ShardedPartitionState& shard, uint32_t w) {
    const PartitionState& global = shard.global();
    const PartitionId k = global.k();
    loads.resize(k);
    for (PartitionId p = 0; p < k; ++p) loads[p] = shard.CombinedLoad(w, p);
    if (row == Row::kBalance) {
      balance.Reset(k, loads.data(), global.weights().data());
    } else if (row == Row::kGreedy) {
      terms.Reset(objective, k, loads.data(), global.weights().data(),
                  global.capacities().data());
    }
  }

  void AddLoad(const ShardedPartitionState& shard, PartitionId p) {
    const PartitionState& global = shard.global();
    ++loads[p];
    if (row == Row::kBalance) {
      balance.Grow(p, loads[p], global.weights()[p]);
    } else if (row == Row::kGreedy) {
      terms.Set(p, loads[p], global.weights()[p], global.capacity(p));
    }
  }
};

// ---------------------------------------------------------------------
// Vertex-stream driver: LDG / FENNEL. Generalizes the original parallel
// LDG loop — the LDG scoring branch is expression-identical to it.
// ---------------------------------------------------------------------
ParallelStreamResult RunParallelVertexStream(
    const Graph& graph, const PartitionConfig& config,
    const ParallelStreamOptions& options, ParallelAlgo algo) {
  Timer timer;
  const VertexId n = graph.num_vertices();
  const PartitionId k = config.k;
  const uint32_t s = options.num_streams;
  ShardedPartitionState shard(config, s);
  shard.global().InitCapacities(n, config.balance_slack);

  // FENNEL α = m·k^{γ−1}/n^{γ} (√k·m/n^{3/2} at γ = 1.5), as in the
  // sequential greedy core.
  const double gamma = config.fennel_gamma;
  double alpha = config.fennel_alpha;
  if (alpha == 0.0 && n > 0) {
    alpha = static_cast<double>(graph.num_edges()) *
            std::pow(static_cast<double>(k), gamma - 1.0) /
            std::pow(static_cast<double>(n), gamma);
  }

  // Round-robin split across ingest workers, pulled through the chunked
  // source (chunk boundaries don't change the sequence).
  std::vector<std::vector<VertexId>> substreams(s);
  {
    InMemoryVertexSource source(graph, config.order, config.seed,
                                config.ingest_chunk_size);
    size_t i = 0;
    ForEachStreamItem(source, [&](VertexId u) {
      substreams[i++ % s].push_back(u);
    });
  }

  // Published (synchronized) assignments, plus per-worker unpublished
  // records; loads live in the sharded state.
  std::vector<PartitionId> published(n, kInvalidPartition);
  std::vector<std::vector<std::pair<VertexId, PartitionId>>> deltas(s);
  // Worker-local view lookup: own delta shadows the published state.
  std::vector<PartitionId> scratch_view(n, kInvalidPartition);

  GreedyObjective objective;
  objective.ldg = algo == ParallelAlgo::kLdg;
  objective.alpha = alpha;
  objective.gamma = gamma;

  ParallelStreamResult result;
  ScoreCore core(shard.global());
  NeighborTally tally(k);
  std::vector<size_t> cursor(s, 0);
  CombinedLoadScratch comb(CombinedLoadScratch::Row::kGreedy,
                           config.hdrf_lambda, objective);

  bool work_left = true;
  while (work_left) {
    work_left = false;
    for (uint32_t w = 0; w < s; ++w) {
      // Build this worker's view: published + own delta.
      for (const auto& [v, p] : deltas[w]) scratch_view[v] = p;
      auto view = [&](VertexId v) {
        return scratch_view[v] != kInvalidPartition ? scratch_view[v]
                                                    : published[v];
      };
      comb.Fill(shard, w);
      core.NoteBatch();
      const size_t end = std::min(cursor[w] + options.sync_interval,
                                  substreams[w].size());
      for (size_t i = cursor[w]; i < end; ++i) {
        const VertexId u = substreams[w][i];
        tally.Add(graph.Neighbors(u), view);
        PartitionId best = core.PickGreedyVertex(tally.counts(), comb.terms,
                                                 comb.loads.data());
        if (best == kInvalidPartition) best = u % k;  // all full (stale)
        deltas[w].emplace_back(u, best);
        scratch_view[u] = best;
        shard.AddWorkerLoad(w, best);
        comb.AddLoad(shard, best);
        tally.Clear();
      }
      cursor[w] = end;
      work_left |= cursor[w] < substreams[w].size();
      // Reset the scratch view entries this worker shadowed.
      for (const auto& [v, p] : deltas[w]) scratch_view[v] = kInvalidPartition;
    }
    // Barrier: publish all deltas; every record reaches the other workers.
    ++result.sync_rounds;
    for (uint32_t w = 0; w < s; ++w) {
      result.sync_messages += deltas[w].size() * (s - 1);
      for (const auto& [v, p] : deltas[w]) published[v] = p;
      deltas[w].clear();
    }
    shard.Publish();
  }

  result.partitioning.model = CutModel::kEdgeCut;
  result.partitioning.k = k;
  result.partitioning.vertex_to_partition = std::move(published);
  DeriveEdgePlacement(graph, &result.partitioning);
  shard.global().NoteAuxiliaryBytes(
      static_cast<uint64_t>(n) * 2 * sizeof(PartitionId) +  // view arrays
      tally.MemoryBytes() + core.MemoryBytes() + comb.terms.MemoryBytes());
  result.partitioning.state_bytes = shard.SynopsisBytes();
  result.partitioning.partitioning_seconds = timer.ElapsedSeconds();
  return result;
}

// ---------------------------------------------------------------------
// Edge-stream driver: HDRF / PGG. The shared synopsis — partial degrees,
// edge loads, replica sets A(u) — goes through the published/delta
// mechanism; with one worker each placement sees exact state and the
// result equals the sequential algorithm's.
// ---------------------------------------------------------------------

// One HDRF placement against worker w's combined view: the combined
// loads and balance row come from the interval scratch and replica
// membership from the bit rows (published row OR delta row), scored by
// the shared ScoreCore pick. With one worker the row equals the
// sequential state's, so the result is the sequential algorithm's.
PartitionId PlaceHdrfSharded(ShardedPartitionState& shard, uint32_t w,
                             CombinedLoadScratch& comb, ScoreCore& core,
                             VertexId u, VertexId v) {
  shard.IncrementWorkerDegree(w, u);
  shard.IncrementWorkerDegree(w, v);
  const double du = shard.CombinedDegree(w, u);
  const double dv = shard.CombinedDegree(w, v);
  const double theta_u = du / (du + dv);
  const double theta_v = 1.0 - theta_u;
  const score::MembershipRow row_u{shard.GlobalReplicaRow(u),
                                   shard.DeltaReplicaRow(w, u)};
  const score::MembershipRow row_v{shard.GlobalReplicaRow(v),
                                   shard.DeltaReplicaRow(w, v)};
  const PartitionId best = core.PickHdrf(
      comb.balance, comb.loads.data(), row_u, row_v, theta_u, theta_v);
  shard.AddWorkerLoad(w, best);
  comb.AddLoad(shard, best);
  if (!row_u.Test(best)) shard.AddWorkerReplica(w, u, best);
  if (!row_v.Test(best)) shard.AddWorkerReplica(w, v, best);
  return best;
}

// One PGG placement against worker w's combined view, mirroring
// ScoreCore::PlacePggChunk with word-wise operations on the combined rows.
// The least-loaded rule ties toward the lower partition id, so it is
// independent of the order the published and delta rows were filled in.
PartitionId PlacePggSharded(ShardedPartitionState& shard, uint32_t w,
                            CombinedLoadScratch& comb, const Graph& graph,
                            VertexId u, VertexId v,
                            std::vector<uint64_t>& inter_words,
                            ScoreCoreStats& stats) {
  const PartitionId k = shard.global().k();
  const double* weights = shard.global().weights().data();
  const score::MembershipRow row_u{shard.GlobalReplicaRow(u),
                                   shard.DeltaReplicaRow(w, u)};
  const score::MembershipRow row_v{shard.GlobalReplicaRow(v),
                                   shard.DeltaReplicaRow(w, v)};
  auto pick_over = [&](score::MembershipRow row) {
    const uint64_t before = stats.bitset_hits;
    const PartitionId t = score::LeastLoadedOverBits(
        k, comb.loads.data(), weights, row, &stats.bitset_hits);
    stats.candidates += stats.bitset_hits - before;
    return t;
  };

  PartitionId target;
  const bool u_empty = !shard.HasAnyReplica(w, u);
  const bool v_empty = !shard.HasAnyReplica(w, v);
  if (!u_empty && !v_empty) {
    bool any = false;
    score::IntersectRows(k, row_u, row_v, inter_words.data(), &any);
    if (any) {
      target = pick_over({inter_words.data(), nullptr});
    } else {
      const bool u_busier =
          static_cast<int64_t>(graph.Degree(u)) - shard.CombinedDegree(w, u) >=
          static_cast<int64_t>(graph.Degree(v)) - shard.CombinedDegree(w, v);
      target = pick_over(u_busier ? row_u : row_v);
    }
  } else if (!u_empty) {
    target = pick_over(row_u);
  } else if (!v_empty) {
    target = pick_over(row_v);
  } else {
    stats.candidates += k;
    target = score::LeastLoadedAll(k, comb.loads.data(), weights);
  }

  shard.AddWorkerLoad(w, target);
  comb.AddLoad(shard, target);
  // Placed degrees update after the decision, as in the sequential code.
  shard.IncrementWorkerDegree(w, u);
  shard.IncrementWorkerDegree(w, v);
  if (!row_u.Test(target)) shard.AddWorkerReplica(w, u, target);
  if (!row_v.Test(target)) shard.AddWorkerReplica(w, v, target);
  return target;
}

ParallelStreamResult RunParallelEdgeStream(
    const Graph& graph, const PartitionConfig& config,
    const ParallelStreamOptions& options, ParallelAlgo algo) {
  Timer timer;
  const VertexId n = graph.num_vertices();
  const PartitionId k = config.k;
  const uint32_t s = options.num_streams;
  ShardedPartitionState shard(config, s);
  shard.InitDegreeTable(n);
  shard.InitReplicas(n);
  if (algo == ParallelAlgo::kHdrf) shard.global().InitEffectiveLoads();

  std::vector<std::vector<StreamEdge>> substreams(s);
  {
    InMemoryEdgeSource source(graph, config.order, config.seed,
                              config.ingest_chunk_size);
    size_t i = 0;
    ForEachStreamItem(source, [&](const StreamEdge& e) {
      substreams[i++ % s].push_back(e);
    });
  }

  ParallelStreamResult result;
  result.partitioning.model = CutModel::kVertexCut;
  result.partitioning.k = k;
  result.partitioning.edge_to_partition.resize(graph.num_edges());

  const bool is_hdrf = algo == ParallelAlgo::kHdrf;
  ScoreCore core(shard.global());
  CombinedLoadScratch comb(is_hdrf ? CombinedLoadScratch::Row::kBalance
                                   : CombinedLoadScratch::Row::kNone,
                           config.hdrf_lambda);
  std::vector<uint64_t> inter_words((static_cast<uint64_t>(k) + 63) / 64, 0);
  std::vector<size_t> cursor(s, 0);
  std::vector<uint64_t> round_placed(s, 0);

  bool work_left = true;
  while (work_left) {
    work_left = false;
    for (uint32_t w = 0; w < s; ++w) {
      comb.Fill(shard, w);
      core.NoteBatch();
      const size_t end = std::min(cursor[w] + options.sync_interval,
                                  substreams[w].size());
      round_placed[w] = end - cursor[w];
      for (size_t i = cursor[w]; i < end; ++i) {
        const StreamEdge& e = substreams[w][i];
        const PartitionId target =
            is_hdrf ? PlaceHdrfSharded(shard, w, comb, core, e.src, e.dst)
                    : PlacePggSharded(shard, w, comb, graph, e.src, e.dst,
                                      inter_words, core.stats());
        result.partitioning.edge_to_partition[e.id] = target;
      }
      cursor[w] = end;
      work_left |= cursor[w] < substreams[w].size();
    }
    // Barrier: each placed-edge record (and the replica/degree updates it
    // implies) reaches the other workers.
    ++result.sync_rounds;
    for (uint32_t w = 0; w < s; ++w) {
      result.sync_messages += round_placed[w] * (s - 1);
      round_placed[w] = 0;
    }
    shard.Publish();
  }

  DeriveMasterPlacement(graph, &result.partitioning);
  result.partitioning.state_bytes = shard.SynopsisBytes();
  result.partitioning.partitioning_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace

std::string_view ParallelAlgoName(ParallelAlgo algo) {
  switch (algo) {
    case ParallelAlgo::kLdg:
      return "LDG";
    case ParallelAlgo::kFennel:
      return "FNL";
    case ParallelAlgo::kHdrf:
      return "HDRF";
    case ParallelAlgo::kPgg:
      return "PGG";
  }
  return "unknown";
}

ParallelStreamResult RunParallelStreaming(const Graph& graph,
                                          const PartitionConfig& config,
                                          const ParallelStreamOptions& options,
                                          ParallelAlgo algo) {
  SGP_CHECK(config.k > 0);
  SGP_CHECK(options.num_streams >= 1);
  SGP_CHECK(options.sync_interval >= 1);
  switch (algo) {
    case ParallelAlgo::kLdg:
    case ParallelAlgo::kFennel:
      return RunParallelVertexStream(graph, config, options, algo);
    case ParallelAlgo::kHdrf:
    case ParallelAlgo::kPgg:
      return RunParallelEdgeStream(graph, config, options, algo);
  }
  SGP_CHECK(false && "unknown parallel algorithm");
  return {};
}

}  // namespace sgp
