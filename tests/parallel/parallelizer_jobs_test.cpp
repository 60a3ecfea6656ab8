// Solve-engine tests: jobs-count invariance of the wavefront scheduler,
// stack-safety on degenerate HTG shapes, and ILP region memoization.
// Thread-heavy cases carry the `tsan` ctest label via CMake and run under
// the ThreadSanitizer preset.
#include "hetpar/parallel/parallelizer.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "hetpar/benchsuite/suite.hpp"
#include "hetpar/parallel/homogeneous.hpp"
#include "hetpar/parallel/region_cache.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/platform/presets.hpp"

namespace hetpar::parallel {
namespace {

// ThreadSanitizer slows the solver by an order of magnitude; the tsan preset
// still runs these tests, just on a trimmed workload.
#if defined(__SANITIZE_THREAD__)
constexpr bool kUnderTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kUnderTsan = true;
#else
constexpr bool kUnderTsan = false;
#endif
#else
constexpr bool kUnderTsan = false;
#endif

/// Field-exact candidate comparison: the determinism guarantee is that any
/// jobs count produces THE SAME outcome, down to the last double bit, not
/// merely an equally good one.
void expectSameCandidate(const SolutionCandidate& a, const SolutionCandidate& b,
                         const std::string& where) {
  EXPECT_EQ(a.kind, b.kind) << where;
  EXPECT_EQ(a.mainClass, b.mainClass) << where;
  EXPECT_EQ(a.timeSeconds, b.timeSeconds) << where;
  EXPECT_EQ(a.extraProcs, b.extraProcs) << where;
  EXPECT_EQ(a.taskClass, b.taskClass) << where;
  EXPECT_EQ(a.childTask, b.childTask) << where;
  ASSERT_EQ(a.childChoice.size(), b.childChoice.size()) << where;
  for (std::size_t i = 0; i < a.childChoice.size(); ++i) {
    EXPECT_EQ(a.childChoice[i].node, b.childChoice[i].node) << where << " choice " << i;
    EXPECT_EQ(a.childChoice[i].index, b.childChoice[i].index) << where << " choice " << i;
  }
  EXPECT_EQ(a.chunkIterations, b.chunkIterations) << where;
}

void expectSameOutcome(const ParallelizeOutcome& a, const ParallelizeOutcome& b,
                       const std::string& label) {
  ASSERT_EQ(a.table.size(), b.table.size()) << label;
  for (const auto& [id, setA] : a.table) {
    const auto it = b.table.find(id);
    ASSERT_NE(it, b.table.end()) << label << " node " << id;
    const ParallelSet& setB = it->second;
    ASSERT_EQ(setA.size(), setB.size()) << label << " node " << id;
    for (std::size_t i = 0; i < setA.size(); ++i)
      expectSameCandidate(setA.at(static_cast<int>(i)), setB.at(static_cast<int>(i)),
                          label + " node " + std::to_string(id) + " cand " +
                              std::to_string(i));
  }
}

ParallelizeOutcome planWithJobs(const htg::Graph& graph, const platform::Platform& pf,
                                int jobs, ParallelizerOptions opts = {}) {
  const cost::TimingModel timing(pf);
  opts.jobs = jobs;
  Parallelizer par(graph, timing, opts);
  return par.run();
}

TEST(ParallelizerJobs, FullBenchsuiteOutcomeIsJobsInvariant) {
  // The acceptance bar for the concurrent engine: --jobs 1 and --jobs N
  // yield identical candidates and objective values on every benchmark,
  // under the production options. The solver's only limit is the node cap,
  // which is deterministic, so slower solves under oversubscription cannot
  // change an incumbent. `spectral` gets its own test below, which starves
  // the node budget so that capped solves are covered too.
  const platform::Platform pf = platform::platformA();
  const ParallelizerOptions opts;
  for (const auto& b : benchsuite::suite()) {
    if (b.name == "spectral") continue;
    // tsan multiplies solver cost ~30x; one light benchmark still covers
    // the heterogeneous multi-class engine path under the race detector.
    if (kUnderTsan && b.name != "iir_4") continue;
    SCOPED_TRACE(b.name);
    htg::FrontendBundle bundle = pipeline::buildFrontend(b.source);
    const ParallelizeOutcome seq = planWithJobs(bundle.graph, pf, 1, opts);
    const ParallelizeOutcome par = planWithJobs(bundle.graph, pf, 4, opts);
    expectSameOutcome(seq, par, b.name);
  }
}

TEST(ParallelizerJobs, SpectralInvariantUnderDeterministicLimits) {
  // Deliberately starve the node budget so several solves stop on the
  // cap: interrupted incumbents must ALSO be jobs-invariant, because the
  // interruption criterion is deterministic (nodes, not seconds).
  if (kUnderTsan) GTEST_SKIP() << "solver workload too heavy under tsan";
  const platform::Platform pf = platform::platformA();
  ParallelizerOptions opts;
  opts.ilpMaxNodes = 300;
  htg::FrontendBundle bundle = pipeline::buildFrontend(benchsuite::find("spectral").source);
  const ParallelizeOutcome seq = planWithJobs(bundle.graph, pf, 1, opts);
  const ParallelizeOutcome par = planWithJobs(bundle.graph, pf, 4, opts);
  EXPECT_GT(seq.stats.unprovenSolves, 0) << "the budget no longer binds";
  EXPECT_GT(par.stats.unprovenSolves, 0) << "the budget no longer binds";
  expectSameOutcome(seq, par, "spectral");
}

TEST(ParallelizerJobs, JobsInvariantOnHomogeneousView) {
  // The baseline planner shares the engine; cover the single-class path.
  const platform::Platform real = platform::platformB();
  htg::FrontendBundle bundle = pipeline::buildFrontend(benchsuite::find("fir_256").source);
  ParallelizerOptions seqOpts;
  seqOpts.jobs = 1;
  ParallelizerOptions parOpts;
  parOpts.jobs = 8;
  const HomogeneousRun seq =
      runHomogeneousBaseline(bundle.graph, real, real.fastestClass(), seqOpts);
  const HomogeneousRun par =
      runHomogeneousBaseline(bundle.graph, real, real.fastestClass(), parOpts);
  expectSameOutcome(seq.outcome, par.outcome, "fir_256 homogeneous");
}

/// A pathological HTG: one Block chain tens of thousands of levels deep.
/// Zero op mixes keep every region below the granularity threshold, so the
/// walk is pure parallel-set propagation — exactly the shape that used to
/// recurse once per level.
htg::Graph deepChain(int depth) {
  htg::Graph g;
  for (int i = 0; i < depth; ++i) {
    htg::Node n;
    n.kind = htg::NodeKind::Block;
    n.execCount = 1.0;
    g.addNode(std::move(n));
  }
  htg::Node leaf;
  leaf.kind = htg::NodeKind::Simple;
  leaf.execCount = 1.0;
  g.addNode(std::move(leaf));
  for (int i = 0; i < depth; ++i) g.node(i).children = {i + 1};
  g.setRoot(0);
  return g;
}

TEST(ParallelizerJobs, DeepNestingDoesNotOverflowTheStack) {
  const int depth = 100000;
  const htg::Graph g = deepChain(depth);
  const platform::Platform pf = platform::platformA();
  const ParallelizeOutcome out = planWithJobs(g, pf, 1);
  ASSERT_EQ(out.table.size(), static_cast<std::size_t>(depth) + 1);
  const ParallelSet& root = out.table.at(g.root());
  for (ClassId c = 0; c < pf.numClasses(); ++c) EXPECT_GE(root.sequentialFor(c), 0);
  EXPECT_EQ(out.stats.numIlps, 0);
}

TEST(ParallelizerJobs, DeepNestingSurvivesConcurrentEngine) {
  // The wavefront scheduler posts parent continuations to the pool's queue
  // instead of unwinding them on a worker's stack; a long trivial chain is
  // the worst case.
  const int depth = 100000;
  const htg::Graph g = deepChain(depth);
  const ParallelizeOutcome out = planWithJobs(g, platform::platformA(), 4);
  EXPECT_EQ(out.table.size(), static_cast<std::size_t>(depth) + 1);
}

TEST(ParallelizerJobs, SharedCacheMemoizesAcrossRuns) {
  // Planning the same program twice against the same platform with a shared
  // cache must answer every region request of the second run from memory.
  htg::FrontendBundle bundle = pipeline::buildFrontend(benchsuite::find("fir_256").source);
  const platform::Platform pf = platform::platformA();
  ParallelizerOptions opts;
  opts.regionCache = std::make_shared<IlpRegionCache>();

  const ParallelizeOutcome first = planWithJobs(bundle.graph, pf, 1, opts);
  ASSERT_GT(first.stats.numIlps, 0);
  const ParallelizeOutcome second = planWithJobs(bundle.graph, pf, 1, opts);

  expectSameOutcome(first, second, "cached replan");
  EXPECT_EQ(second.stats.numIlps, 0) << "every solve must be a cache hit";
  EXPECT_EQ(second.stats.cacheMisses, 0);
  EXPECT_EQ(second.stats.cacheHits, first.stats.numIlps + first.stats.cacheHits);
}

TEST(ParallelizerJobs, CacheDoesNotChangeTheOutcome) {
  htg::FrontendBundle bundle = pipeline::buildFrontend(benchsuite::find("iir_4").source);
  const platform::Platform pf = platform::platformB();
  ParallelizerOptions cached;  // default: private region cache
  ParallelizerOptions uncached;
  uncached.enableRegionCache = false;
  const ParallelizeOutcome with = planWithJobs(bundle.graph, pf, 1, cached);
  const ParallelizeOutcome without = planWithJobs(bundle.graph, pf, 1, uncached);
  expectSameOutcome(with, without, "iir_4 cache ablation");
  EXPECT_EQ(without.stats.cacheHits, 0);
  EXPECT_EQ(without.stats.cacheMisses, 0);
}

TEST(ParallelizerJobs, IdenticalSubprogramsHitTheCacheWithinOneRun) {
  // Two structurally identical function bodies over different (same-sized)
  // arrays produce byte-identical regions at some sweep step.
  const char* twins = R"(
    int a[4096]; int b[4096];
    void fa(int v[4096]) { for (int i = 0; i < 4096; i = i + 1) { v[i] = i * 3 + 1; } }
    void fb(int v[4096]) { for (int i = 0; i < 4096; i = i + 1) { v[i] = i * 3 + 1; } }
    int main() {
      fa(a);
      fb(b);
      return a[7] + b[9];
    }
  )";
  htg::FrontendBundle bundle = pipeline::buildFrontend(twins);
  const ParallelizeOutcome out = planWithJobs(bundle.graph, platform::platformA(), 1);
  EXPECT_GT(out.stats.cacheHits, 0) << "twin subtrees must memoize";
}

TEST(ParallelizerJobs, ExhaustedSolverLimitsStillYieldValidPlans) {
  // With a starved node budget every ILP gives up; the engine must fall
  // back to sequential/greedy candidates and never produce a worse-than-
  // sequential "best".
  htg::FrontendBundle bundle = pipeline::buildFrontend(benchsuite::find("fir_256").source);
  const platform::Platform pf = platform::platformA();
  ParallelizerOptions starved;
  starved.ilpMaxNodes = 1;
  const ParallelizeOutcome out = planWithJobs(bundle.graph, pf, 2, starved);
  for (ClassId c = 0; c < pf.numClasses(); ++c) {
    const ParallelSet& root = out.table.at(bundle.graph.root());
    const int seq = root.sequentialFor(c);
    const int best = root.bestFor(c);
    ASSERT_GE(seq, 0);
    ASSERT_GE(best, 0);
    EXPECT_LE(root.at(best).timeSeconds, root.at(seq).timeSeconds + 1e-12);
  }
}

}  // namespace
}  // namespace hetpar::parallel
