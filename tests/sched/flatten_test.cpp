// Flattener + simulator integration: chosen solutions must become valid
// task graphs whose simulated behavior matches the planning predictions.
#include "hetpar/sched/flatten.hpp"

#include <gtest/gtest.h>

#include "hetpar/parallel/homogeneous.hpp"
#include "hetpar/parallel/parallelizer.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/platform/presets.hpp"
#include "hetpar/sim/mpsoc.hpp"

namespace hetpar::sched {
namespace {

const char* kProgram = R"(
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

struct Fixture {
  htg::FrontendBundle bundle;
  platform::Platform pf;
  std::unique_ptr<cost::TimingModel> timing;
  parallel::ParallelizeOutcome outcome;

  explicit Fixture(platform::Platform p) : bundle(pipeline::buildFrontend(kProgram)), pf(std::move(p)) {
    timing = std::make_unique<cost::TimingModel>(pf);
    parallel::Parallelizer tool(bundle.graph, *timing);
    outcome = tool.run();
  }
};

Fixture& sharedFixture() {
  static Fixture f(platform::platformA());
  return f;
}

TEST(Flatten, SequentialReferenceMatchesSubtreeOps) {
  Fixture& f = sharedFixture();
  const int mainCore = f.pf.firstCoreOfClass(f.pf.slowestClass());
  FlattenResult seq = flattenSequential(f.bundle.graph, *f.timing, mainCore);
  ASSERT_EQ(seq.graph.tasks.size(), 1u);
  const double expected =
      f.timing->seconds(f.pf.slowestClass(), f.bundle.graph.subtreeOpsPerExec(f.bundle.graph.root()));
  EXPECT_NEAR(seq.graph.tasks[0].computeSeconds, expected, expected * 1e-9);
  EXPECT_DOUBLE_EQ(sim::simulate(seq.graph).makespanSeconds, seq.graph.tasks[0].computeSeconds);
}

TEST(Flatten, ParallelSolutionProducesValidGraph) {
  Fixture& f = sharedFixture();
  const auto best = f.outcome.bestRoot(f.bundle.graph, f.pf.slowestClass());
  FlattenResult flat = flatten(f.bundle.graph, f.outcome.table, best, *f.timing,
                               f.pf.firstCoreOfClass(f.pf.slowestClass()));
  EXPECT_TRUE(flat.graph.validate().empty());
  EXPECT_GT(flat.graph.tasks.size(), 1u);
  EXPECT_GE(flat.finalTask, 0);
}

TEST(Flatten, WorkIsConserved) {
  // Total compute across all tasks must be close to the sequential work
  // executed at the assigned cores' speeds: chunked loops split exactly,
  // overheads add a little.
  Fixture& f = sharedFixture();
  const auto best = f.outcome.bestRoot(f.bundle.graph, f.pf.slowestClass());
  FlattenResult flat = flatten(f.bundle.graph, f.outcome.table, best, *f.timing,
                               f.pf.firstCoreOfClass(f.pf.slowestClass()));
  const double totalOps = f.bundle.graph.subtreeOpsPerExec(f.bundle.graph.root());
  // Lower bound: all work on the fastest class. Upper: all on the slowest.
  const double fastest = f.timing->seconds(f.pf.fastestClass(), totalOps);
  const double slowest = f.timing->seconds(f.pf.slowestClass(), totalOps);
  const double compute = flat.graph.totalComputeSeconds();
  EXPECT_GT(compute, 0.8 * fastest);
  EXPECT_LT(compute, 1.2 * slowest);
}

TEST(Flatten, SimulatedTimeTracksIlpPrediction) {
  Fixture& f = sharedFixture();
  const auto& set = f.outcome.table.at(f.bundle.graph.root());
  const int bestIdx = set.bestFor(f.pf.slowestClass());
  const double predicted = set.at(bestIdx).timeSeconds;
  FlattenResult flat = flatten(f.bundle.graph, f.outcome.table,
                               {f.bundle.graph.root(), bestIdx}, *f.timing,
                               f.pf.firstCoreOfClass(f.pf.slowestClass()));
  const double simulated = sim::simulate(flat.graph).makespanSeconds;
  // The DES adds bus serialization the ILP's additive model ignores, so
  // allow a generous band -- but the two must agree to ~25%.
  EXPECT_NEAR(simulated, predicted, predicted * 0.25);
}

TEST(Flatten, HeterogeneousSpeedupShapeOnPlatformA) {
  Fixture& f = sharedFixture();
  const int mainCore = f.pf.firstCoreOfClass(f.pf.slowestClass());
  const double seq =
      sim::simulate(flattenSequential(f.bundle.graph, *f.timing, mainCore).graph).makespanSeconds;
  const auto best = f.outcome.bestRoot(f.bundle.graph, f.pf.slowestClass());
  FlattenResult flat = flatten(f.bundle.graph, f.outcome.table, best, *f.timing, mainCore);
  const double par = sim::simulate(flat.graph).makespanSeconds;
  const double speedup = seq / par;
  EXPECT_GT(speedup, 5.0);
  EXPECT_LT(speedup, 13.5);
}

TEST(Flatten, ObliviousRoundRobinIgnoresClasses) {
  // The homogeneous baseline's tasks land round-robin; on platform A's
  // scenario II this must cost performance vs the heterogeneous mapping.
  htg::FrontendBundle bundle = pipeline::buildFrontend(kProgram);
  const platform::Platform pf = platform::platformA();
  const cost::TimingModel timing(pf);
  const int mainCore = pf.firstCoreOfClass(pf.fastestClass());
  const double seq =
      sim::simulate(flattenSequential(bundle.graph, timing, mainCore).graph).makespanSeconds;

  parallel::HomogeneousRun homog =
      parallel::runHomogeneousBaseline(bundle.graph, pf, pf.fastestClass());
  FlattenOptions oblivious;
  oblivious.classAwareAllocation = false;
  FlattenResult flat = flatten(bundle.graph, homog.outcome.table,
                               homog.outcome.bestRoot(bundle.graph, 0), timing, mainCore,
                               oblivious);
  EXPECT_TRUE(flat.graph.validate().empty());
  const double par = sim::simulate(flat.graph).makespanSeconds;
  // Paper Figure 7(b): the heterogeneity-oblivious tool lands below 1x.
  EXPECT_LT(seq / par, 1.05);
}

TEST(Flatten, SpawnOverheadAppearsInGraph) {
  Fixture& f = sharedFixture();
  const auto best = f.outcome.bestRoot(f.bundle.graph, f.pf.slowestClass());
  FlattenResult flat = flatten(f.bundle.graph, f.outcome.table, best, *f.timing,
                               f.pf.firstCoreOfClass(f.pf.slowestClass()));
  int spawnish = 0;
  for (const SimTask& t : flat.graph.tasks)
    if (t.label.find("spawn") != std::string::npos ||
        t.label.find("chunk") != std::string::npos)
      ++spawnish;
  EXPECT_GT(spawnish, 0);
}

}  // namespace
}  // namespace hetpar::sched
