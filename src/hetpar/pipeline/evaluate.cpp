#include "hetpar/pipeline/evaluate.hpp"

#include "hetpar/htg/builder.hpp"
#include "hetpar/htg/validate.hpp"
#include "hetpar/parallel/homogeneous.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/sched/flatten.hpp"
#include "hetpar/sim/mpsoc.hpp"

namespace hetpar::pipeline {

platform::ClassId mainClassFor(const platform::Platform& pf, Scenario scenario) {
  return scenario == Scenario::Accelerator ? pf.slowestClass() : pf.fastestClass();
}

namespace {

/// Fills one scenario's numbers given the session's heterogeneous outcome.
EvalResult evaluateScenario(const std::string& name, Session& session, Scenario scenario,
                            const parallel::IlpStatistics& hetStats,
                            const EvalOptions& options) {
  const platform::Platform& pf = session.inputs().platform;
  const htg::Graph& graph = session.frontend().graph;

  EvalResult result;
  result.benchmark = name;
  result.mainClass = mainClassFor(pf, scenario);
  result.theoreticalLimit = pf.theoreticalMaxSpeedup(result.mainClass);

  const cost::TimingModel& realTiming = session.timing();
  const int mainCore = pf.firstCoreOfClass(result.mainClass);

  // Baseline + heterogeneous tool: the session's simulate pass covers the
  // sequential reference and the class-aware implementation of the best
  // solution in one timed step.
  const Session::SimNumbers numbers = session.simulate(result.mainClass);
  result.sequentialSeconds = numbers.sequentialSeconds;
  result.heterogeneousStats = hetStats;
  result.heterogeneousSeconds = numbers.parallelSeconds;
  result.heterogeneousSpeedup = result.sequentialSeconds / result.heterogeneousSeconds;

  // Homogeneous baseline [6]: plans against a uniform view of the platform
  // (all cores look like the main one); its tasks land on the real cores
  // round-robin, oblivious to classes.
  if (options.runHomogeneousBaseline) {
    parallel::HomogeneousRun homog = parallel::runHomogeneousBaseline(
        graph, pf, result.mainClass, options.parallelizer);
    result.homogeneousStats = homog.outcome.stats;
    const parallel::SolutionRef best = homog.outcome.bestRoot(graph, 0);
    sched::FlattenOptions fo;
    fo.classAwareAllocation = false;
    const sched::FlattenResult flat =
        sched::flatten(graph, homog.outcome.table, best, realTiming, mainCore, fo);
    result.homogeneousSeconds = sim::simulate(flat.graph).makespanSeconds;
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
