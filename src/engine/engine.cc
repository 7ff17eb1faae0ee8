#include "engine/engine.h"

#include "common/check.h"
#include "engine/kernel.h"

namespace sgp {

AnalyticsEngine::AnalyticsEngine(const Graph& graph,
                                 const Partitioning& partitioning,
                                 EngineCostModel cost_model)
    : graph_(&graph), dgraph_(graph, partitioning), cost_(cost_model) {}

EngineStats AnalyticsEngine::Run(const PageRankProgram& program) const {
  return engine_detail::RunKernel(*graph_, dgraph_, cost_, program);
}

EngineStats AnalyticsEngine::Run(const WccProgram& program) const {
  return engine_detail::RunKernel(*graph_, dgraph_, cost_, program);
}

EngineStats AnalyticsEngine::Run(const SsspProgram& program) const {
  SGP_CHECK(program.source() < graph_->num_vertices());
  return engine_detail::RunKernel(*graph_, dgraph_, cost_, program);
}

}  // namespace sgp
