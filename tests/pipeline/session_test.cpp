// Session tests: lazy pass execution, timing records, artifact keys, and
// the cache hit path reproducing the cold outcome exactly.
#include "hetpar/pipeline/session.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>

#include "hetpar/htg/dot.hpp"
#include "hetpar/parallel/region_cache.hpp"
#include "hetpar/platform/presets.hpp"
#include "hetpar/support/rng.hpp"
#include "hetpar/verify/metamorphic.hpp"
#include "hetpar/verify/oracle.hpp"

namespace hetpar::pipeline {
namespace {

namespace fs = std::filesystem;

constexpr const char* kSource = R"(
  int main() {
    int a[128]; int b[128]; int s = 0;
    for (int i = 0; i < 128; i = i + 1) { a[i] = i * 3; }
    for (int j = 0; j < 128; j = j + 1) { b[j] = a[j] + 7; }
    for (int k = 0; k < 128; k = k + 1) { s = s + b[k]; }
    return s;
  }
)";

SessionInputs inputs() {
  SessionInputs in;
  in.name = "session_test";
  in.source = kSource;
  in.platform = platform::platformA();
  // The test program is deliberately tiny; drop the granularity threshold so
  // the parallelize pass actually solves ILPs instead of staying sequential.
  in.parallelizer.minRegionTcoMultiple = 0.0;
  return in;
}

TEST(Session, PassesAreLazyAndRunOnce) {
  Session session(inputs());
  EXPECT_TRUE(session.passes().empty());
  session.frontend();
  const std::size_t afterFrontend = session.passes().size();
  EXPECT_EQ(afterFrontend, 4u);  // parse, sema, sections, htg
  session.frontend();            // idempotent: no new records
  EXPECT_EQ(session.passes().size(), afterFrontend);

  session.parallelize();
  session.parallelize();
  EXPECT_EQ(session.passes().size(), afterFrontend + 1);
  EXPECT_EQ(session.passes().back().name, "parallelize");
  EXPECT_GT(session.passes().back().artifactBytes, 0);
}

// The dot overlay of pruned conservative edges reuses the session's
// frontend (one parse, sema and htg run) and renders what a separately
// built conservative graph gives.
TEST(Session, DotOverlayReusesTheFrontend) {
  SessionInputs in = inputs();
  in.depMode = ir::DependenceMode::Affine;
  in.flowMode = ir::FlowMode::Live;
  Session session(std::move(in));
  const std::string dot = session.emitDot();
  int frontendRuns = 0;
  for (const PassRecord& r : session.passes())
    if (r.name == "parse" || r.name == "sema" || r.name == "htg") ++frontendRuns;
  EXPECT_EQ(frontendRuns, 3);
  EXPECT_EQ(session.passes().back().name, "emit");

  const htg::FrontendBundle cons = buildFrontend(kSource);
  EXPECT_EQ(dot, htg::toDotWithBaseline(session.frontend().graph, cons.graph));
}

TEST(Session, OutcomeMatchesDirectParallelizerRun) {
  Session session(inputs());
  const parallel::ParallelizeOutcome& viaSession = session.parallelize();

  const htg::FrontendBundle bundle = buildFrontend(kSource);
  // TimingModel keeps a pointer to the platform: it must outlive the solve.
  const platform::Platform pf = platform::platformA();
  const cost::TimingModel timing(pf);
  parallel::ParallelizerOptions po;
  po.minRegionTcoMultiple = 0.0;
  parallel::Parallelizer tool(bundle.graph, timing, po);
  const parallel::ParallelizeOutcome direct = tool.run();

  EXPECT_TRUE(verify::diffSolutionTables(viaSession.table, direct.table).empty());
}

// The artifact key and both region-cache keys see exactly the options that
// parallel::visitOutcomeFields visits. Every ParallelizerOptions field is
// flipped once, the way a caller sets it: the modes through SessionInputs,
// which the session copies into its effective options.
TEST(Session, OutcomeKeyIsStableAndDiscriminating) {
  Rng rng(4);
  const parallel::IlpRegion task = verify::randomTinyRegion(rng);
  const parallel::ChunkRegion chunk = verify::randomTinyChunkRegion(rng);
  struct Keys {
    std::string outcome, task, chunk;
  };
  const auto keysOf = [&](SessionInputs in) {
    const Session session(std::move(in));
    const std::string prefix = parallel::outcomeFieldBytes(session.inputs().parallelizer);
    return Keys{session.outcomeKey(), parallel::IlpRegionCache::taskKey(task, prefix),
                parallel::IlpRegionCache::chunkKey(chunk, prefix)};
  };
  const Keys base = keysOf(inputs());
  EXPECT_EQ(base.outcome.size(), 32u);
  EXPECT_EQ(Session(inputs()).outcomeKey(), base.outcome);

  SessionInputs other = inputs();
  other.source += " ";
  EXPECT_NE(Session(std::move(other)).outcomeKey(), base.outcome);

  other = inputs();
  other.platform = platform::platformB();
  EXPECT_NE(Session(std::move(other)).outcomeKey(), base.outcome);

  other = inputs();
  other.depMode = ir::DependenceMode::Affine;
  EXPECT_NE(Session(std::move(other)).outcomeKey(), base.outcome);

  using Flip = void (*)(SessionInputs&);
  struct Case {
    const char* field;
    Flip flip;
    bool keyed;
  };
  const Case cases[] = {
      {"maxTasksPerRegion", [](SessionInputs& in) { in.parallelizer.maxTasksPerRegion = 3; },
       true},
      {"chunkCount", [](SessionInputs& in) { in.parallelizer.chunkCount = 8; }, true},
      {"minRegionTcoMultiple",
       [](SessionInputs& in) { in.parallelizer.minRegionTcoMultiple = 2.0; }, true},
      {"ilpMaxNodes", [](SessionInputs& in) { in.parallelizer.ilpMaxNodes = 1000; }, true},
      {"enableChunking", [](SessionInputs& in) { in.parallelizer.enableChunking = false; },
       true},
      {"enableParallelSetMapping",
       [](SessionInputs& in) { in.parallelizer.enableParallelSetMapping = false; }, true},
      {"maxCandidatesPerClass",
       [](SessionInputs& in) { in.parallelizer.maxCandidatesPerClass = 2; }, true},
      // A plan is identical at every `jobs`, with or without the region
      // cache (DESIGN.md §7): same artifact, same keys.
      {"jobs", [](SessionInputs& in) { in.parallelizer.jobs = 8; }, false},
      {"enableRegionCache",
       [](SessionInputs& in) { in.parallelizer.enableRegionCache = false; }, false},
      {"regionCache",
       [](SessionInputs& in) {
         in.parallelizer.regionCache = std::make_shared<parallel::IlpRegionCache>();
       },
       false},
      {"dependenceMode", [](SessionInputs& in) { in.depMode = ir::DependenceMode::Affine; },
       true},
      {"flowMode", [](SessionInputs& in) { in.flowMode = ir::FlowMode::Live; }, true},
  };
  // One case per field: this binding stops compiling when a field is added.
  [[maybe_unused]] const auto& [maxTasksPerRegion, chunkCount, minRegionTcoMultiple,
                                ilpMaxNodes, enableChunking, enableParallelSetMapping,
                                maxCandidatesPerClass, jobs, enableRegionCache, regionCache,
                                dependenceMode, flowMode] = parallel::ParallelizerOptions{};
  for (const auto& [field, flip, keyed] : cases) {
    SessionInputs in = inputs();
    flip(in);
    const Keys k = keysOf(std::move(in));
    EXPECT_EQ(k.outcome != base.outcome, keyed) << field;
    EXPECT_EQ(k.task != base.task, keyed) << field;
    EXPECT_EQ(k.chunk != base.chunk, keyed) << field;
  }
}

TEST(Session, CacheHitReproducesColdOutcome) {
  const std::string dir =
      (fs::temp_directory_path() / "hetpar-session-cache-test").string();
  fs::remove_all(dir);
  auto cache = std::make_shared<ArtifactCache>(dir);

  SessionInputs cold = inputs();
  cold.artifactCache = cache;
  Session coldSession(std::move(cold));
  const parallel::ParallelizeOutcome& coldOutcome = coldSession.parallelize();
  EXPECT_FALSE(coldSession.parallelizeWasCached());
  EXPECT_GT(coldOutcome.stats.numIlps, 0);

  SessionInputs warm = inputs();
  warm.artifactCache = cache;
  Session warmSession(std::move(warm));
  const parallel::ParallelizeOutcome& warmOutcome = warmSession.parallelize();
  EXPECT_TRUE(warmSession.parallelizeWasCached());
  EXPECT_TRUE(verify::diffSolutionTables(coldOutcome.table, warmOutcome.table).empty());
  // A hit solved nothing and says so.
  EXPECT_EQ(warmOutcome.stats.numIlps, 0);
  const PassRecord& rec = warmSession.passes().back();
  EXPECT_EQ(rec.name, "parallelize");
  EXPECT_EQ(rec.cacheHits, 1);
  EXPECT_EQ(rec.cacheMisses, 0);

  // Downstream passes agree between cold and warm sessions.
  const platform::ClassId mainClass = platform::platformA().slowestClass();
  const Session::SimNumbers coldSim = coldSession.simulate(mainClass);
  const Session::SimNumbers warmSim = warmSession.simulate(mainClass);
  EXPECT_EQ(coldSim.sequentialSeconds, warmSim.sequentialSeconds);
  EXPECT_EQ(coldSim.parallelSeconds, warmSim.parallelSeconds);
  EXPECT_EQ(coldSim.taskCount, warmSim.taskCount);
  EXPECT_EQ(coldSession.emitParspec(mainClass), warmSession.emitParspec(mainClass));
  EXPECT_EQ(coldSession.emitAnnotated(mainClass), warmSession.emitAnnotated(mainClass));

  fs::remove_all(dir);
}

TEST(Session, CorruptCacheEntryForcesCleanRebuild) {
  const std::string dir =
      (fs::temp_directory_path() / "hetpar-session-corrupt-test").string();
  fs::remove_all(dir);
  auto cache = std::make_shared<ArtifactCache>(dir);

  SessionInputs first = inputs();
  first.artifactCache = cache;
  Session firstSession(std::move(first));
  firstSession.parallelize();

  // Vandalize the stored entry; the next session must rebuild, not crash.
  {
    std::ofstream out(cache->pathFor(firstSession.outcomeKey()),
                      std::ios::binary | std::ios::trunc);
    out << "not an artifact";
  }
  SessionInputs second = inputs();
  second.artifactCache = cache;
  Session secondSession(std::move(second));
  const parallel::ParallelizeOutcome& rebuilt = secondSession.parallelize();
  EXPECT_FALSE(secondSession.parallelizeWasCached());
  EXPECT_GT(rebuilt.stats.numIlps, 0);
  EXPECT_GE(cache->stats().rejectedCorrupt, 1);

  // ...and the rebuild repaired the entry for the next consumer.
  SessionInputs third = inputs();
  third.artifactCache = cache;
  Session thirdSession(std::move(third));
  thirdSession.parallelize();
  EXPECT_TRUE(thirdSession.parallelizeWasCached());

  fs::remove_all(dir);
}

TEST(Session, EstimatesAndPassTable) {
  Session session(inputs());
  const platform::ClassId mainClass = platform::platformA().slowestClass();
  const Session::Estimates est = session.estimates(mainClass);
  EXPECT_GT(est.sequentialSeconds, 0.0);
  EXPECT_GT(est.parallelSeconds, 0.0);
  EXPECT_LE(est.parallelSeconds, est.sequentialSeconds);

  const std::string table = formatPassTable(session.passes());
  EXPECT_NE(table.find("parallelize"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
}

}  // namespace
}  // namespace hetpar::pipeline
