// Integration tests: Algorithm 1 end-to-end on mini-C programs.
#include "hetpar/parallel/parallelizer.hpp"

#include <gtest/gtest.h>

#include "hetpar/parallel/homogeneous.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/platform/presets.hpp"

namespace hetpar::parallel {
namespace {

struct Run {
  explicit Run(const char* src) : bundle(pipeline::buildFrontend(src)) {}

  htg::FrontendBundle bundle;
  platform::Platform pf;
  std::unique_ptr<cost::TimingModel> timing;
  ParallelizeOutcome outcome;
};

std::unique_ptr<Run> runOn(const char* src, platform::Platform pf,
                           ParallelizerOptions opts = {}) {
  auto r = std::make_unique<Run>(src);
  r->pf = std::move(pf);
  r->timing = std::make_unique<cost::TimingModel>(r->pf);
  Parallelizer par(r->bundle.graph, *r->timing, opts);
  r->outcome = par.run();
  return r;
}

// A heavy DOALL workload: init + map + reduce over a large array.
const char* kDoallProgram = R"(
  int a[8192];
  int b[8192];
  int main() {
    for (int i = 0; i < 8192; i = i + 1) { a[i] = i % 17; }
    for (int i = 0; i < 8192; i = i + 1) { b[i] = a[i] * a[i] + 3; }
    int s = 0;
    for (int i = 0; i < 8192; i = i + 1) { s = s + b[i]; }
    return s;
  }
)";

double speedupAtRoot(const Run& r, ClassId mainClass) {
  const auto& set = r.outcome.table.at(r.bundle.graph.root());
  const int seq = set.sequentialFor(mainClass);
  const int best = set.bestFor(mainClass);
  return set.at(seq).timeSeconds / set.at(best).timeSeconds;
}

TEST(Parallelizer, EveryNodeGetsSequentialCandidatesPerClass) {
  auto r = runOn(kDoallProgram, platform::platformA());
  const int C = r->pf.numClasses();
  r->bundle.graph.forEach([&](const htg::Node& n) {
    if (n.isComm()) return;
    const ParallelSet& set = r->outcome.table.at(n.id);
    for (ClassId c = 0; c < C; ++c)
      EXPECT_GE(set.sequentialFor(c), 0) << "node " << n.id << " class " << c;
  });
}

TEST(Parallelizer, SequentialTimesScaleWithFrequency) {
  auto r = runOn(kDoallProgram, platform::platformA());
  const auto& set = r->outcome.table.at(r->bundle.graph.root());
  const ClassId slow = r->pf.slowestClass();
  const ClassId fast = r->pf.fastestClass();
  const double tSlow = set.at(set.sequentialFor(slow)).timeSeconds;
  const double tFast = set.at(set.sequentialFor(fast)).timeSeconds;
  EXPECT_NEAR(tSlow / tFast, 5.0, 0.01) << "100 vs 500 MHz";
}

TEST(Parallelizer, DoallLoopsYieldLargeHeterogeneousSpeedup) {
  auto r = runOn(kDoallProgram, platform::platformA());
  // Scenario (I): main on the 100 MHz core; theoretical limit 13.5x.
  const double s = speedupAtRoot(*r, r->pf.slowestClass());
  EXPECT_GT(s, 6.0) << "heterogeneous chunking must exploit the fast cores";
  EXPECT_LT(s, 13.5 + 1e-6) << "cannot beat the theoretical limit";
}

TEST(Parallelizer, FastMainScenarioStillGains) {
  auto r = runOn(kDoallProgram, platform::platformA());
  // Scenario (II): main on a 500 MHz core; limit 2.7x. The workload is
  // small, so task-creation overhead keeps the gain well under the limit.
  const double s = speedupAtRoot(*r, r->pf.fastestClass());
  EXPECT_GT(s, 1.15);
  EXPECT_LT(s, 2.7 + 1e-6);
}

TEST(Parallelizer, SerialChainGainsNothing) {
  auto r = runOn(R"(
    int a[512];
    int main() {
      a[0] = 1;
      for (int i = 1; i < 512; i = i + 1) { a[i] = a[i - 1] + i; }
      return a[511];
    }
  )", platform::platformA());
  const double s = speedupAtRoot(*r, r->pf.slowestClass());
  EXPECT_NEAR(s, 1.0, 0.05) << "loop-carried dependence: no parallelism available";
}

TEST(Parallelizer, NeverSlowerThanSequential) {
  // The sequential candidate is always in the set, so best <= sequential.
  auto r = runOn(kDoallProgram, platform::platformB());
  for (ClassId c = 0; c < r->pf.numClasses(); ++c) {
    EXPECT_GE(speedupAtRoot(*r, c), 1.0 - 1e-9);
  }
}

TEST(Parallelizer, IndependentFunctionCallsRunInParallel) {
  auto r = runOn(R"(
    int a[6000]; int b[6000];
    void fa(int v[6000]) { for (int i = 0; i < 6000; i = i + 1) { v[i] = i * 3 + i % 7; } }
    void fb(int v[6000]) { for (int i = 0; i < 6000; i = i + 1) { v[i] = i * 5 + i % 11; } }
    int main() {
      fa(a);
      fb(b);
      return a[1] + b[1];
    }
  )", platform::platformB(), [] {
    ParallelizerOptions o;
    o.enableChunking = false;  // force pure task-level parallelism
    return o;
  }());
  const double s = speedupAtRoot(*r, r->pf.fastestClass());
  EXPECT_GT(s, 1.3) << "two independent calls should overlap";
}

TEST(Parallelizer, StatsCountIlps) {
  auto r = runOn(kDoallProgram, platform::platformA());
  EXPECT_GT(r->outcome.stats.numIlps, 0);
  EXPECT_GT(r->outcome.stats.numVars, 0);
  EXPECT_GT(r->outcome.stats.numConstraints, 0);
  EXPECT_GT(r->outcome.stats.wallSeconds, 0.0);
}

TEST(Parallelizer, HeterogeneousGeneratesMoreIlpsThanHomogeneous) {
  auto het = runOn(kDoallProgram, platform::platformA());
  auto bundle = pipeline::buildFrontend(kDoallProgram);
  const platform::Platform real = platform::platformA();
  HomogeneousRun homog =
      runHomogeneousBaseline(bundle.graph, real, real.slowestClass());
  EXPECT_GT(het->outcome.stats.numIlps, homog.outcome.stats.numIlps)
      << "per-class candidate extraction multiplies ILP count (Table I)";
  EXPECT_GT(het->outcome.stats.numVars, homog.outcome.stats.numVars);
  EXPECT_GT(het->outcome.stats.numConstraints, homog.outcome.stats.numConstraints);
}

TEST(Parallelizer, HomogeneousViewHasOneClass) {
  const platform::Platform real = platform::platformA();
  const platform::Platform view = homogeneousView(real, real.slowestClass());
  EXPECT_EQ(view.numClasses(), 1);
  EXPECT_EQ(view.numCores(), real.numCores());
  EXPECT_NEAR(view.classAt(0).frequencyMHz, 100.0, 1e-9);
}

TEST(Parallelizer, BestRootRefIsValid) {
  auto r = runOn(kDoallProgram, platform::platformA());
  const SolutionRef ref = r->outcome.bestRoot(r->bundle.graph, 0);
  EXPECT_TRUE(ref.valid());
  EXPECT_EQ(ref.node, r->bundle.graph.root());
}

TEST(Parallelizer, ChunkingAblationReducesSpeedup) {
  ParallelizerOptions noChunks;
  noChunks.enableChunking = false;
  auto with = runOn(kDoallProgram, platform::platformA());
  auto without = runOn(kDoallProgram, platform::platformA(), noChunks);
  EXPECT_GE(speedupAtRoot(*with, 0) + 1e-9, speedupAtRoot(*without, 0))
      << "iteration chunking can only help on DOALL-dominated code";
}

TEST(Parallelizer, TinyRegionsSkipIlp) {
  auto r = runOn("int main() { int x = 1; int y = 2; return x + y; }",
                 platform::platformA());
  EXPECT_EQ(r->outcome.stats.numIlps, 0) << "granularity control must skip trivial regions";
  EXPECT_NEAR(speedupAtRoot(*r, 0), 1.0, 1e-9);
}

}  // namespace
}  // namespace hetpar::parallel
