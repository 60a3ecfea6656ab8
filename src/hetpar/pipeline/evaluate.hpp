// Evaluation harness (paper Section V-VI), as a pipeline client: parallelize
// a benchmark with the heterogeneous tool and the homogeneous baseline [6],
// implement both solutions, and measure speedups on the simulated MPSoC.
// The measurement baseline is "the sequential execution on the main
// processor".
//
// Lived in sim/measure until the staged pipeline existed; it now drives a
// Session per benchmark (named passes, timing records, optional persistent
// artifact cache) instead of wiring the stages by hand.
#pragma once

#include <memory>
#include <string>

#include "hetpar/parallel/parallelizer.hpp"
#include "hetpar/pipeline/artifact_cache.hpp"
#include "hetpar/platform/platform.hpp"

namespace hetpar::pipeline {

/// The two application scenarios of Section VI-A.
enum class Scenario {
  Accelerator,  ///< (I) slow main core, faster cores act as accelerators
  SlowerCores,  ///< (II) fast main core, slower cores added to the platform
};

/// Main-core class for a scenario on a platform.
platform::ClassId mainClassFor(const platform::Platform& pf, Scenario scenario);

struct EvalOptions {
  parallel::ParallelizerOptions parallelizer;
  bool runHomogeneousBaseline = true;
  /// Optional persistent cache for the heterogeneous planning outcome
  /// (shared across benchmarks, platforms and processes).
  std::shared_ptr<ArtifactCache> artifactCache;
};

struct EvalResult {
  std::string benchmark;
  platform::ClassId mainClass = 0;
  double sequentialSeconds = 0.0;  ///< simulated, on the main core

  double heterogeneousSeconds = 0.0;
  double heterogeneousSpeedup = 0.0;
  parallel::IlpStatistics heterogeneousStats;

  double homogeneousSeconds = 0.0;
  double homogeneousSpeedup = 0.0;
  parallel::IlpStatistics homogeneousStats;

  double theoreticalLimit = 0.0;  ///< paper's dashed line
};

class Session;

/// The homogeneous baseline [6] for the session's program with the main task
/// on `mainClass`: Algorithm 1 plans against a uniform view of the platform
/// (every core looks like the main one) under the session's parallelizer
/// options; its tasks then land on the real cores round-robin, oblivious to
/// classes, and the result is simulated.
struct BaselineRun {
  parallel::IlpStatistics stats;  ///< the baseline's own ILP statistics
  double parallelSeconds = 0.0;   ///< simulated makespan
};
BaselineRun runBaseline(Session& session, platform::ClassId mainClass);

/// Full pipeline: frontend passes + both parallelizers + flatten + simulate.
/// Throws hetpar::Error on malformed input.
EvalResult evaluateBenchmark(const std::string& name, const std::string& source,
                             const platform::Platform& pf, Scenario scenario,
                             const EvalOptions& options = {});

/// Both scenarios at once. The heterogeneous parallelization depends only on
/// the platform, so it runs a single time and serves both scenarios; the
/// homogeneous baseline re-plans per scenario (its uniform platform view
/// derives from the scenario's main core).
struct ScenarioResults {
  EvalResult accelerator;
  EvalResult slowerCores;
};

ScenarioResults evaluateBenchmarkAllScenarios(const std::string& name,
                                              const std::string& source,
                                              const platform::Platform& pf,
                                              const EvalOptions& options = {});

}  // namespace hetpar::pipeline
