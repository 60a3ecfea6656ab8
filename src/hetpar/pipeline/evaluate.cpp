#include "hetpar/pipeline/evaluate.hpp"

#include "hetpar/parallel/homogeneous.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/sched/flatten.hpp"
#include "hetpar/sim/mpsoc.hpp"

namespace hetpar::pipeline {

platform::ClassId mainClassFor(const platform::Platform& pf, Scenario scenario) {
  return scenario == Scenario::Accelerator ? pf.slowestClass() : pf.fastestClass();
}

BaselineRun runBaseline(Session& session, platform::ClassId mainClass) {
  const platform::Platform& pf = session.inputs().platform;
  const htg::Graph& graph = session.frontend().graph;
  const parallel::HomogeneousRun homog =
      parallel::runHomogeneousBaseline(graph, pf, mainClass, session.inputs().parallelizer);
  sched::FlattenOptions fo;
  fo.classAwareAllocation = false;
  const sched::FlattenResult flat =
      sched::flatten(graph, homog.outcome.table, homog.outcome.bestRoot(graph, 0),
                     session.timing(), pf.firstCoreOfClass(mainClass), fo);
  return {homog.outcome.stats, sim::simulate(flat.graph).makespanSeconds};
}

namespace {

/// Fills one scenario's numbers given the session's heterogeneous outcome.
EvalResult evaluateScenario(const std::string& name, Session& session, Scenario scenario,
                            const parallel::IlpStatistics& hetStats,
                            const EvalOptions& options) {
  const platform::Platform& pf = session.inputs().platform;

  EvalResult result;
  result.benchmark = name;
  result.mainClass = mainClassFor(pf, scenario);
  result.theoreticalLimit = pf.theoreticalMaxSpeedup(result.mainClass);

  // Baseline + heterogeneous tool: the session's simulate pass covers the
  // sequential reference and the class-aware implementation of the best
  // solution in one timed step.
  const Session::SimNumbers numbers = session.simulate(result.mainClass);
  result.sequentialSeconds = numbers.sequentialSeconds;
  result.heterogeneousStats = hetStats;
  result.heterogeneousSeconds = numbers.parallelSeconds;
  result.heterogeneousSpeedup = result.sequentialSeconds / result.heterogeneousSeconds;

  if (options.runHomogeneousBaseline) {
    const BaselineRun homog = runBaseline(session, result.mainClass);
    result.homogeneousStats = homog.stats;
    result.homogeneousSeconds = homog.parallelSeconds;
    result.homogeneousSpeedup = result.sequentialSeconds / result.homogeneousSeconds;
  }
  return result;
}

SessionInputs makeInputs(const std::string& name, const std::string& source,
                         const platform::Platform& pf, const EvalOptions& options) {
  SessionInputs inputs;
  inputs.name = name;
  inputs.source = source;
  inputs.platform = pf;
  inputs.depMode = options.parallelizer.dependenceMode;
  inputs.flowMode = options.parallelizer.flowMode;
  inputs.parallelizer = options.parallelizer;
  inputs.artifactCache = options.artifactCache;
  return inputs;
}

}  // namespace

EvalResult evaluateBenchmark(const std::string& name, const std::string& source,
                             const platform::Platform& pf, Scenario scenario,
                             const EvalOptions& options) {
  Session session(makeInputs(name, source, pf, options));
  const parallel::IlpStatistics hetStats = session.parallelize().stats;
  return evaluateScenario(name, session, scenario, hetStats, options);
}

ScenarioResults evaluateBenchmarkAllScenarios(const std::string& name,
                                              const std::string& source,
                                              const platform::Platform& pf,
                                              const EvalOptions& options) {
  Session session(makeInputs(name, source, pf, options));
  const parallel::IlpStatistics hetStats = session.parallelize().stats;
  ScenarioResults results;
  results.accelerator =
      evaluateScenario(name, session, Scenario::Accelerator, hetStats, options);
  results.slowerCores =
      evaluateScenario(name, session, Scenario::SlowerCores, hetStats, options);
  return results;
}

}  // namespace hetpar::pipeline
