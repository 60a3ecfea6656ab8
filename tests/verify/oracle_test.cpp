// Differential optimality check: on enumerable instances, the ILPPAR solver
// and the loop-chunking ILP must match an exhaustive brute-force oracle
// exactly (up to the documented per-task tie-break). This is the direct test
// of the paper's optimality claim — run over well beyond 100 random regions
// (the acceptance floor), with a vacuity guard that a healthy share of the
// optima actually open extra tasks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "hetpar/ilp/branch_and_bound.hpp"
#include "hetpar/parallel/genetic.hpp"
#include "hetpar/parallel/ilppar_model.hpp"
#include "hetpar/support/error.hpp"
#include "hetpar/support/rng.hpp"
#include "hetpar/verify/oracle.hpp"

namespace hetpar {
namespace {

/// The ILP objective carries a 1e-4 us tie-break per opened task, so two
/// independently derived optima agree only up to a tiny slack.
bool closeEnough(double a, double b) {
  const double tol = 1e-6 * std::max(std::abs(a), std::abs(b)) + 1e-9;
  return std::abs(a - b) <= tol;
}

TEST(OracleTest, IlpParMatchesBruteForceOnRandomTinyRegions) {
  constexpr int kRegions = 120;
  Rng rng(0xacc01adeULL);
  int multiTask = 0;
  for (int i = 0; i < kRegions; ++i) {
    const parallel::IlpRegion region = verify::randomTinyRegion(rng);
    const verify::OracleResult oracle = verify::bruteForceTask(region);
    ilp::BranchAndBoundSolver solver;
    const parallel::IlpParResult ilpResult = parallel::solveIlpPar(region, solver);

    ASSERT_TRUE(ilpResult.provenOptimal) << "region " << i;
    ASSERT_EQ(ilpResult.feasible, oracle.feasible) << "region " << i;
    if (!oracle.feasible) continue;
    EXPECT_TRUE(closeEnough(ilpResult.timeSeconds, oracle.bestSeconds))
        << "region " << i << ": ilp " << ilpResult.timeSeconds << " s vs oracle "
        << oracle.bestSeconds << " s over " << oracle.assignmentsTried << " assignments";
    if (static_cast<int>(ilpResult.taskClass.size()) > 1) ++multiTask;
  }
  // Vacuity guard: if the optimum were always "everything in the main task"
  // the comparison would prove nothing about the interesting constraints.
  EXPECT_GE(multiTask, kRegions / 10) << "only " << multiTask << " multi-task optima";
}

TEST(OracleTest, IlpParMatchesBruteForceOnFourClassDeepRegions) {
  // Widened envelope (ROADMAP follow-up from PR 3): push the generator to
  // the oracle's full 4-class cap with deeper nested-candidate menus and
  // multi-class extraProcs. The optimality claim must survive out there too.
  constexpr int kRegions = 40;
  verify::TinyRegionOptions wide;
  wide.maxChildren = 5;
  wide.maxClasses = 4;
  wide.maxTasks = 4;
  wide.maxCandidatesPerClass = 3;

  Rng rng(0x4c1a55e5ULL);
  int fourClass = 0;
  int proven = 0;
  for (int i = 0; i < kRegions; ++i) {
    const parallel::IlpRegion region = verify::randomTinyRegion(rng, wide);
    if (static_cast<int>(region.numProcsPerClass.size()) == 4) ++fourClass;
    const verify::OracleResult oracle = verify::bruteForceTask(region);
    ilp::BranchAndBoundSolver solver;
    const parallel::IlpParResult ilpResult = parallel::solveIlpPar(region, solver);

    if (!ilpResult.provenOptimal) continue;  // node cap hit on a big instance
    ++proven;
    ASSERT_EQ(ilpResult.feasible, oracle.feasible) << "region " << i;
    if (!oracle.feasible) continue;
    EXPECT_TRUE(closeEnough(ilpResult.timeSeconds, oracle.bestSeconds))
        << "region " << i << ": ilp " << ilpResult.timeSeconds << " s vs oracle "
        << oracle.bestSeconds << " s over " << oracle.assignmentsTried << " assignments";
  }
  // Vacuity guards: the widened generator must actually reach the 4th class,
  // and the solver must prove optimality on most of the widened instances.
  EXPECT_GE(fourClass, kRegions / 8) << "only " << fourClass << " four-class regions";
  EXPECT_GE(proven, (3 * kRegions) / 4) << "only " << proven << " proven optima";
}

TEST(OracleTest, ChunkIlpMatchesBruteForceOnFourClassLoops) {
  constexpr int kRegions = 30;
  verify::TinyRegionOptions wide;
  wide.maxClasses = 4;
  wide.maxTasks = 4;

  Rng rng(0x10af0c05ULL);
  int fourClass = 0;
  for (int i = 0; i < kRegions; ++i) {
    const parallel::ChunkRegion region = verify::randomTinyChunkRegion(rng, wide);
    if (static_cast<int>(region.numProcsPerClass.size()) == 4) ++fourClass;
    const verify::OracleResult oracle = verify::bruteForceChunk(region);
    ilp::BranchAndBoundSolver solver;
    const parallel::ChunkResult ilpResult = parallel::solveChunkIlp(region, solver);

    ASSERT_TRUE(ilpResult.provenOptimal) << "region " << i;
    ASSERT_EQ(ilpResult.feasible, oracle.feasible) << "region " << i;
    if (!oracle.feasible) continue;
    EXPECT_TRUE(closeEnough(ilpResult.timeSeconds, oracle.bestSeconds))
        << "region " << i << ": chunk ilp " << ilpResult.timeSeconds << " s vs oracle "
        << oracle.bestSeconds << " s over " << oracle.assignmentsTried << " splits";
  }
  EXPECT_GE(fourClass, kRegions / 8) << "only " << fourClass << " four-class loops";
}

TEST(OracleTest, OracleWitnessScoresAtItsClaimedCost) {
  // The oracle's argmin witness must evaluate to its own reported optimum
  // through the shared evaluator — guards the enumerator against recording
  // a stale witness.
  Rng rng(77);
  for (int i = 0; i < 40; ++i) {
    const parallel::IlpRegion region = verify::randomTinyRegion(rng);
    const verify::OracleResult oracle = verify::bruteForceTask(region);
    if (!oracle.feasible) continue;
    const double witness = parallel::evaluateAssignment(region, oracle.childTask,
                                                        oracle.taskClass, oracle.childPick);
    EXPECT_TRUE(closeEnough(witness, oracle.bestSeconds))
        << "region " << i << ": witness " << witness << " vs " << oracle.bestSeconds;
  }
}

TEST(OracleTest, GaNeverBeatsBruteForceOptimum) {
  Rng rng(0xbeefULL);
  for (int i = 0; i < 30; ++i) {
    const parallel::IlpRegion region = verify::randomTinyRegion(rng);
    const verify::OracleResult oracle = verify::bruteForceTask(region);
    if (!oracle.feasible) continue;
    parallel::GaOptions ga;
    ga.seed = 0x5eedULL + static_cast<std::uint64_t>(i);
    const parallel::IlpParResult evolved = parallel::solveGaPar(region, ga);
    if (!evolved.feasible) continue;
    EXPECT_GE(evolved.timeSeconds, oracle.bestSeconds - 1e-9)
        << "region " << i << ": GA " << evolved.timeSeconds << " s beat the optimum "
        << oracle.bestSeconds << " s";
  }
}

TEST(OracleTest, ChunkIlpMatchesBruteForceOnRandomTinyLoops) {
  constexpr int kRegions = 120;
  Rng rng(0xc0ffeeULL);
  int multiTask = 0;
  for (int i = 0; i < kRegions; ++i) {
    const parallel::ChunkRegion region = verify::randomTinyChunkRegion(rng);
    const verify::OracleResult oracle = verify::bruteForceChunk(region);
    ilp::BranchAndBoundSolver solver;
    const parallel::ChunkResult ilpResult = parallel::solveChunkIlp(region, solver);

    ASSERT_TRUE(ilpResult.provenOptimal) << "region " << i;
    ASSERT_EQ(ilpResult.feasible, oracle.feasible) << "region " << i;
    if (!oracle.feasible) continue;
    EXPECT_TRUE(closeEnough(ilpResult.timeSeconds, oracle.bestSeconds))
        << "region " << i << ": chunk ilp " << ilpResult.timeSeconds << " s vs oracle "
        << oracle.bestSeconds << " s over " << oracle.assignmentsTried << " splits";
    if (static_cast<int>(ilpResult.taskClass.size()) > 1) ++multiTask;
  }
  EXPECT_GE(multiTask, kRegions / 10) << "only " << multiTask << " multi-task optima";
}

TEST(OracleTest, BruteForceRejectsUnenumerableRegions) {
  Rng rng(1);
  parallel::IlpRegion region = verify::randomTinyRegion(rng);
  region.children.resize(20, region.children.front());  // way past the cap
  EXPECT_THROW(verify::bruteForceTask(region), Error);

  // Five classes are past the widened envelope...
  parallel::IlpRegion wide = verify::randomTinyRegion(rng);
  wide.numProcsPerClass.assign(5, 1);
  EXPECT_THROW(verify::bruteForceTask(wide), Error);

  // ...and at exactly four classes the child cap tightens to 5.
  parallel::IlpRegion fourDeep = verify::randomTinyRegion(rng);
  fourDeep.numProcsPerClass.assign(4, 1);
  fourDeep.children.resize(6, fourDeep.children.front());
  EXPECT_THROW(verify::bruteForceTask(fourDeep), Error);

  parallel::ChunkRegion loop = verify::randomTinyChunkRegion(rng);
  loop.iterations = 1'000'000;
  EXPECT_THROW(verify::bruteForceChunk(loop), Error);

  parallel::ChunkRegion wideLoop = verify::randomTinyChunkRegion(rng);
  wideLoop.numProcsPerClass.assign(5, 1);
  wideLoop.secondsPerIter.assign(5, 1e-6);
  EXPECT_THROW(verify::bruteForceChunk(wideLoop), Error);
}

}  // namespace
}  // namespace hetpar
