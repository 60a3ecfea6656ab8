// Concurrent batch driver: compile many programs through the staged
// pipeline, sharing the persistent artifact cache and the in-process ILP
// region cache across jobs.
//
// Concurrency model (same discipline as the solve engine's wavefront,
// DESIGN.md §7): jobs fan out over a fixed thread pool, but results are
// merged in submission order and each job's report text depends only on its
// own deterministic outcome — so `workers=1` is bit-identical to
// `workers=N`. Cache traffic (which job hits, which misses when two jobs
// race on the same key) is the one thing that varies with scheduling, which
// is why per-job reports never mention cache counters; aggregate counters
// are reported separately, outside the determinism boundary.
//
// Inner solver concurrency is forced to jobs=1: with many programs in
// flight the program level is the better place to spend the machine, and
// nesting both levels oversubscribes small boxes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hetpar/parallel/region_cache.hpp"
#include "hetpar/pipeline/session.hpp"

namespace hetpar::pipeline {

struct BatchJob {
  std::string name;    ///< display label (file path, benchmark name)
  std::string source;  ///< program text
};

struct BatchConfig {
  platform::Platform platform;
  /// Class running the main task; -1 = the platform's slowest class.
  platform::ClassId mainClass = -1;
  ir::DependenceMode depMode = ir::DependenceMode::Conservative;
  ir::FlowMode flowMode = ir::FlowMode::Conservative;
  parallel::ParallelizerOptions parallelizer;  ///< `jobs` ignored (forced 1)
  bool simulate = false;
  int workers = 1;  ///< concurrent jobs; <1 = hardware concurrency
  std::shared_ptr<ArtifactCache> artifactCache;        ///< shared, optional
  std::shared_ptr<parallel::IlpRegionCache> regionCache;  ///< shared, optional
};

struct BatchJobResult {
  std::string name;
  bool ok = false;
  std::string error;   ///< diagnostic when !ok
  /// Deterministic per-program report: the formatEstimates and
  /// formatSimulation lines the program would get compiled alone.
  std::string report;
  bool outcomeCached = false;
  std::vector<PassRecord> passes;
  /// The job's heterogeneous ILP statistics (zero on an artifact-cache hit;
  /// region-cache hits count as hits, not solves).
  parallel::IlpStatistics stats;
};

struct BatchReport {
  std::vector<BatchJobResult> jobs;  ///< in submission order, always
  double wallSeconds = 0.0;
  int failures = 0;

  /// All jobs' pass records aggregated (order-insensitive totals).
  std::vector<PassRecord> allPasses() const;
};

/// Compiles every job; never throws for per-job failures (they are reported
/// in the corresponding slot so one broken file cannot sink a batch).
BatchReport runBatch(const std::vector<BatchJob>& jobs, const BatchConfig& config);

}  // namespace hetpar::pipeline
