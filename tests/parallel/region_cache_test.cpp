// IlpRegionCache unit tests: the key must capture exactly the
// model-relevant fields (names/labels/refs excluded, every numeric included),
// hits must return the stored decode with zeroed stats, and a cache shared
// across Parallelizer runs must turn the second run into pure hits without
// changing its outcome.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "hetpar/cost/timing.hpp"
#include "hetpar/ilp/model.hpp"
#include "hetpar/parallel/parallelizer.hpp"
#include "hetpar/parallel/region_cache.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/support/rng.hpp"
#include "hetpar/verify/generator.hpp"
#include "hetpar/verify/metamorphic.hpp"
#include "hetpar/verify/oracle.hpp"

namespace hetpar::parallel {
namespace {

// Every key starts with the options' bytes; which fields they hold is
// checked against all three keys in session_test.
std::string prefix() { return outcomeFieldBytes(ParallelizerOptions{}); }

IlpRegion sampleRegion(std::uint64_t seed) {
  Rng rng(seed);
  return verify::randomTinyRegion(rng);
}

TEST(RegionCacheTest, KeyIgnoresNamesLabelsAndRefs) {
  IlpRegion a = sampleRegion(1);
  IlpRegion b = a;
  b.name = "renamed";
  for (auto& child : b.children) {
    child.label = "relabeled";
    for (auto& menu : child.byClass)
      for (auto& cand : menu) cand.ref = SolutionRef{42, 7};
  }
  EXPECT_EQ(IlpRegionCache::taskKey(a, prefix()), IlpRegionCache::taskKey(b, prefix()));
}

TEST(RegionCacheTest, KeySeesEveryModelField) {
  const IlpRegion base = sampleRegion(2);
  const std::string baseKey = IlpRegionCache::taskKey(base, prefix());

  IlpRegion m = base;
  m.children[0].byClass[0][0].timeSeconds *= 1.0000001;
  EXPECT_NE(IlpRegionCache::taskKey(m, prefix()), baseKey) << "candidate time";

  m = base;
  m.maxProcs += 1;
  EXPECT_NE(IlpRegionCache::taskKey(m, prefix()), baseKey) << "maxProcs";

  m = base;
  m.taskCreationSeconds += 1e-9;
  EXPECT_NE(IlpRegionCache::taskKey(m, prefix()), baseKey) << "TCO";

  m = base;
  m.upperBoundSeconds = base.upperBoundSeconds + 1e-6;
  EXPECT_NE(IlpRegionCache::taskKey(m, prefix()), baseKey) << "pruning bound";
}

TEST(RegionCacheTest, KeysSeeEverySolveOption) {
  // The Parallelizer builds its ilp::SolveOptions from ParallelizerOptions;
  // each solve option must come from a field the key prefix holds. This
  // binding stops compiling when SolveOptions gains a field.
  [[maybe_unused]] const auto& [maxNodes] = ilp::SolveOptions{};
  const IlpRegion task = sampleRegion(2);
  Rng rng(4);
  const ChunkRegion chunk = verify::randomTinyChunkRegion(rng);

  ParallelizerOptions capped;
  capped.ilpMaxNodes += 1;  // becomes SolveOptions::maxNodes
  const std::string cappedPrefix = outcomeFieldBytes(capped);
  EXPECT_NE(IlpRegionCache::taskKey(task, cappedPrefix), IlpRegionCache::taskKey(task, prefix()))
      << "maxNodes";
  EXPECT_NE(IlpRegionCache::chunkKey(chunk, cappedPrefix),
            IlpRegionCache::chunkKey(chunk, prefix()))
      << "maxNodes";
}

TEST(RegionCacheTest, TaskLookupReturnsStoredDecodeWithZeroedStats) {
  IlpRegionCache cache;
  const std::string key = IlpRegionCache::taskKey(sampleRegion(3), prefix());

  IlpParResult miss;
  EXPECT_FALSE(cache.lookupTask(key, miss));
  EXPECT_EQ(cache.size(), 0u);

  IlpParResult stored;
  stored.feasible = true;
  stored.provenOptimal = true;
  stored.timeSeconds = 12.5e-6;
  stored.childTask = {0, 1};
  stored.taskClass = {0, 1};
  stored.childChoice = {{0, 0}, {1, 1}};
  stored.stats.nodesExplored = 77;
  stored.stats.simplexIterations = 1234;
  cache.storeTask(key, stored);
  EXPECT_EQ(cache.size(), 1u);

  IlpParResult hit;
  ASSERT_TRUE(cache.lookupTask(key, hit));
  EXPECT_TRUE(hit.feasible);
  EXPECT_TRUE(hit.provenOptimal);
  EXPECT_EQ(hit.timeSeconds, stored.timeSeconds);
  EXPECT_EQ(hit.childTask, stored.childTask);
  EXPECT_EQ(hit.taskClass, stored.taskClass);
  EXPECT_EQ(hit.childChoice, stored.childChoice);
  // A hit performed no solve: its stats must not double-count the original.
  EXPECT_EQ(hit.stats.nodesExplored, 0);
  EXPECT_EQ(hit.stats.simplexIterations, 0);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookupTask(key, hit));
}

TEST(RegionCacheTest, ChunkKeyAndRoundTrip) {
  Rng rng(4);
  const ChunkRegion region = verify::randomTinyChunkRegion(rng);
  const std::string key = IlpRegionCache::chunkKey(region, prefix());

  ChunkRegion renamed = region;
  renamed.name = "other";
  EXPECT_EQ(IlpRegionCache::chunkKey(renamed, prefix()), key);

  ChunkRegion more = region;
  more.iterations += 1;
  EXPECT_NE(IlpRegionCache::chunkKey(more, prefix()), key);

  IlpRegionCache cache;
  ChunkResult stored;
  stored.feasible = true;
  stored.timeSeconds = 3e-6;
  stored.taskClass = {0, 1};
  stored.taskIterations = {10.0, 6.0};
  stored.stats.nodesExplored = 9;
  cache.storeChunk(key, stored);

  ChunkResult hit;
  ASSERT_TRUE(cache.lookupChunk(key, hit));
  EXPECT_EQ(hit.taskIterations, stored.taskIterations);
  EXPECT_EQ(hit.stats.nodesExplored, 0);
}

TEST(RegionCacheTest, SharedCacheMakesSecondRunAllHits) {
  const std::string source = verify::generateProgram(31).render();
  const platform::Platform pf = verify::generatePlatform(31);
  const htg::FrontendBundle bundle = pipeline::buildFrontend(source);
  const cost::TimingModel timing(pf);

  ParallelizerOptions options = verify::MetamorphicOptions::fuzzOptions();
  options.regionCache = std::make_shared<IlpRegionCache>();
  const ParallelizeOutcome first = Parallelizer(bundle.graph, timing, options).run();
  const ParallelizeOutcome second = Parallelizer(bundle.graph, timing, options).run();

  // Identical model + warm cache: the second run never solves, and every
  // region request it makes is answered by the cache.
  EXPECT_EQ(second.stats.numIlps, 0);
  EXPECT_EQ(second.stats.cacheMisses, 0);
  EXPECT_EQ(second.stats.cacheHits + second.stats.numIlps,
            first.stats.cacheHits + first.stats.numIlps);

  // And the cache must never change the outcome.
  EXPECT_EQ(verify::diffSolutionTables(first.table, second.table), "");
}

TEST(RegionCacheTest, DisabledCacheReportsNoTraffic) {
  const std::string source = verify::generateProgram(31).render();
  const platform::Platform pf = verify::generatePlatform(31);
  const htg::FrontendBundle bundle = pipeline::buildFrontend(source);
  const cost::TimingModel timing(pf);

  ParallelizerOptions options = verify::MetamorphicOptions::fuzzOptions();
  options.enableRegionCache = false;
  const ParallelizeOutcome outcome = Parallelizer(bundle.graph, timing, options).run();
  EXPECT_EQ(outcome.stats.cacheHits, 0);
  EXPECT_EQ(outcome.stats.cacheMisses, 0);

  ParallelizerOptions cached = verify::MetamorphicOptions::fuzzOptions();
  const ParallelizeOutcome withCache = Parallelizer(bundle.graph, timing, cached).run();
  EXPECT_EQ(verify::diffSolutionTables(outcome.table, withCache.table), "");
}

}  // namespace
}  // namespace hetpar::parallel
