// End-to-end evaluation harness tests: the full paper pipeline on one
// benchmark, asserting the qualitative results of Section VI.
#include "hetpar/pipeline/evaluate.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "affine_programs.hpp"
#include "hetpar/benchsuite/suite.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/platform/presets.hpp"

namespace hetpar::pipeline {
namespace {

const EvalResult& firResultA() {
  static const EvalResult r = evaluateBenchmark(
      "fir_256", benchsuite::find("fir_256").source, platform::platformA(),
      Scenario::Accelerator);
  return r;
}

TEST(Evaluate, MainClassSelection) {
  const platform::Platform a = platform::platformA();
  EXPECT_EQ(mainClassFor(a, Scenario::Accelerator), a.slowestClass());
  EXPECT_EQ(mainClassFor(a, Scenario::SlowerCores), a.fastestClass());
}

TEST(Evaluate, AcceleratorScenarioShape) {
  const EvalResult& r = firResultA();
  EXPECT_GT(r.sequentialSeconds, 0.0);
  EXPECT_NEAR(r.theoreticalLimit, 13.5, 1e-9);
  // Heterogeneous beats homogeneous, both beat sequential, nothing beats
  // the theoretical limit (paper Figure 7(a)).
  EXPECT_GT(r.heterogeneousSpeedup, r.homogeneousSpeedup);
  EXPECT_GT(r.heterogeneousSpeedup, 4.0);
  EXPECT_LT(r.heterogeneousSpeedup, r.theoreticalLimit);
  EXPECT_GT(r.homogeneousSpeedup, 1.5);
}

TEST(Evaluate, StatsShapeMatchesTableI) {
  const EvalResult& r = firResultA();
  EXPECT_GT(r.heterogeneousStats.numIlps, r.homogeneousStats.numIlps);
  EXPECT_GT(r.heterogeneousStats.numVars, r.homogeneousStats.numVars);
  EXPECT_GT(r.heterogeneousStats.numConstraints, r.homogeneousStats.numConstraints);
}

TEST(Evaluate, SlowerCoresScenarioShape) {
  static const EvalResult r = evaluateBenchmark(
      "fir_256", benchsuite::find("fir_256").source, platform::platformA(),
      Scenario::SlowerCores);
  EXPECT_NEAR(r.theoreticalLimit, 2.7, 1e-9);
  // Paper Figure 7(b): heterogeneous > 1x, homogeneous around or below 1x,
  // heterogeneous strictly better.
  EXPECT_GE(r.heterogeneousSpeedup, 1.0);
  EXPECT_GT(r.heterogeneousSpeedup, r.homogeneousSpeedup);
  EXPECT_LT(r.homogeneousSpeedup, 1.6);
  EXPECT_LT(r.heterogeneousSpeedup, r.theoreticalLimit + 1e-9);
}

TEST(Evaluate, WarmArtifactCacheReproducesColdNumbers) {
  const auto& bench = benchsuite::find("fir_256");
  const std::string dir =
      (std::filesystem::temp_directory_path() / "hetpar-evaluate-cache-test").string();
  std::filesystem::remove_all(dir);

  EvalOptions options;
  options.artifactCache = std::make_shared<ArtifactCache>(dir);
  const EvalResult cold = evaluateBenchmark(bench.name, bench.source, platform::platformA(),
                                            Scenario::Accelerator, options);
  EXPECT_EQ(options.artifactCache->stats().hits, 0u);
  EXPECT_EQ(options.artifactCache->stats().misses, 1u);

  const EvalResult warm = evaluateBenchmark(bench.name, bench.source, platform::platformA(),
                                            Scenario::Accelerator, options);
  EXPECT_EQ(options.artifactCache->stats().hits, 1u);
  // The cache hit must be outcome-invisible: identical simulated numbers.
  EXPECT_EQ(warm.sequentialSeconds, cold.sequentialSeconds);
  EXPECT_EQ(warm.heterogeneousSeconds, cold.heterogeneousSeconds);
  EXPECT_EQ(warm.homogeneousSeconds, cold.homogeneousSeconds);
  // ...except the statistics, which honestly report that nothing was solved.
  EXPECT_EQ(warm.heterogeneousStats.numIlps, 0);

  std::filesystem::remove_all(dir);
}

// The requested flow mode reaches the session: an Affine+Live evaluation
// plans the liveness-pruned graph, exactly like a Live session does.
TEST(Evaluate, HonoursRequestedFlowMode) {
  const platform::Platform pf = platform::platformA();
  const platform::ClassId mainClass = mainClassFor(pf, Scenario::Accelerator);
  const auto sessionSpeedup = [&](ir::FlowMode flow) {
    SessionInputs inputs;
    inputs.source = bench::kStencilSource;
    inputs.platform = pf;
    inputs.depMode = ir::DependenceMode::Affine;
    inputs.flowMode = flow;
    Session session(std::move(inputs));
    const Session::SimNumbers sim = session.simulate(mainClass);
    return sim.sequentialSeconds / sim.parallelSeconds;
  };
  const double live = sessionSpeedup(ir::FlowMode::Live);
  // The fixture must tell the two flow modes apart, or the check below
  // proves nothing.
  ASSERT_NE(live, sessionSpeedup(ir::FlowMode::Conservative));

  EvalOptions options;
  options.parallelizer.dependenceMode = ir::DependenceMode::Affine;
  options.parallelizer.flowMode = ir::FlowMode::Live;
  options.runHomogeneousBaseline = false;
  const EvalResult r = evaluateBenchmark(bench::kStencilName, bench::kStencilSource, pf,
                                         Scenario::Accelerator, options);
  EXPECT_EQ(r.heterogeneousSpeedup, live);
}

}  // namespace
}  // namespace hetpar::pipeline
