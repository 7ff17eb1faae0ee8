#include "partition/vertexcut/greedy.h"

#include "common/check.h"
#include "common/timer.h"
#include "partition/score_core.h"
#include "partition/state.h"
#include "stream/source.h"

namespace sgp {

Partitioning PowerGraphGreedyPartitioner::Run(
    const Graph& graph, const PartitionConfig& config) const {
  SGP_CHECK(config.k > 0);
  Timer timer;

  Partitioning result;
  result.model = CutModel::kVertexCut;
  result.k = config.k;
  result.edge_to_partition.resize(graph.num_edges());

  // Synopsis: replica sets A(u), placed degrees (how many incident edges
  // of each vertex were already assigned) and edge loads.
  PartitionState state(config);
  state.InitReplicas(graph.num_vertices());
  state.InitDegreeTable(graph.num_vertices());
  ScoreCore core(state);

  InMemoryEdgeSource source(graph, config.order, config.seed,
                            config.ingest_chunk_size);
  for (auto chunk = source.NextChunk(); !chunk.empty();
       chunk = source.NextChunk()) {
    core.PlacePggChunk(
        chunk, [&](VertexId x) { return graph.Degree(x); },
        [&](const StreamEdge& se, PartitionId target) {
          result.edge_to_partition[se.id] = target;
        });
  }
  result.state_bytes = state.SynopsisBytes();
  DeriveMasterPlacement(graph, &result);
  result.partitioning_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace sgp
