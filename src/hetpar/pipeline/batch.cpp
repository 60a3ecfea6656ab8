#include "hetpar/pipeline/batch.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <future>

#include "hetpar/support/thread_pool.hpp"

namespace hetpar::pipeline {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

BatchJobResult compileOne(const BatchJob& job, const BatchConfig& config) {
  BatchJobResult result;
  result.name = job.name;
  try {
    SessionInputs inputs;
    inputs.name = job.name;
    inputs.source = job.source;
    inputs.platform = config.platform;
    inputs.depMode = config.depMode;
    inputs.flowMode = config.flowMode;
    inputs.parallelizer = config.parallelizer;
    inputs.parallelizer.jobs = 1;
    inputs.parallelizer.regionCache = config.regionCache;
    inputs.artifactCache = config.artifactCache;
    Session session(std::move(inputs));

    const platform::ClassId mainClass =
        config.mainClass >= 0 ? config.mainClass : config.platform.slowestClass();

    result.report = formatEstimates(session.estimates(mainClass),
                                    config.platform.theoreticalMaxSpeedup(mainClass));
    if (config.simulate) result.report += formatSimulation(session.simulate(mainClass));
    result.outcomeCached = session.parallelizeWasCached();
    result.stats = session.parallelize().stats;
    result.passes = session.passes();
    result.ok = true;
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  return result;
}

}  // namespace

std::vector<PassRecord> BatchReport::allPasses() const {
  std::vector<PassRecord> all;
  for (const BatchJobResult& job : jobs)
    all.insert(all.end(), job.passes.begin(), job.passes.end());
  return all;
}

BatchReport runBatch(const std::vector<BatchJob>& jobs, const BatchConfig& config) {
  const auto start = Clock::now();
  BatchReport report;
  report.jobs.resize(jobs.size());

  const int requested = support::ThreadPool::resolveJobs(config.workers);
  const int workers = std::min<int>(requested, static_cast<int>(jobs.size()));
  if (workers <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i)
      report.jobs[i] = compileOne(jobs[i], config);
  } else {
    support::ThreadPool pool(workers);
    std::vector<std::future<BatchJobResult>> futures;
    futures.reserve(jobs.size());
    for (const BatchJob& job : jobs)
      futures.push_back(pool.submit([&job, &config] { return compileOne(job, config); }));
    // Collect in submission order: the merged report is independent of which
    // worker finished first.
    for (std::size_t i = 0; i < jobs.size(); ++i) report.jobs[i] = futures[i].get();
  }

  for (const BatchJobResult& job : report.jobs)
    if (!job.ok) ++report.failures;
  report.wallSeconds = secondsSince(start);
  return report;
}

}  // namespace hetpar::pipeline
