// Pinned solver work: the branch-and-bound counters of a fixed set of
// ILPPAR and loop-chunking models from the verify generators. The LP engine
// is deterministic, so a change that claims to make node solves cheaper
// without changing a single pivot must leave every number here untouched;
// a change that alters the search path (pricing, ratio test, pivot choice,
// B&B order) shows up here first and has to update the table on purpose.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "hetpar/ilp/branch_and_bound.hpp"
#include "hetpar/parallel/ilppar_model.hpp"
#include "hetpar/support/rng.hpp"
#include "hetpar/verify/oracle.hpp"

namespace hetpar::ilp {
namespace {

struct PinnedWork {
  int seed;  ///< even: ILPPAR task model, odd: loop-chunking model
  long long nodes;
  long long iterations;
  long long refactorizations;
  long long etaUpdates;
  double objective;  ///< the decoded region time in seconds
};

// Recorded with the sparse LU engine. Model sizes run from 32 to 362 rows,
// across the 64-bit word boundaries of the LU's column-count buckets.
constexpr PinnedWork kPinned[] = {
    {0, 17, 1395, 19, 1352, 0.00040691668374049749},        // 197 rows
    {2, 19, 1374, 26, 1330, 0.00032072379082942118},        // 197 rows
    {4, 95, 8767, 152, 8582, 0.00035404026057786974},       // 328 rows
    {7, 25, 183, 13, 123, 8.3280423785469135e-05},          // 32 rows
    {8, 15, 884, 14, 847, 0.00027227770257801987},          // 191 rows
    {9, 31, 229, 17, 155, 2.2182019595491813e-05},          // 41 rows
    {12, 321, 23525, 379, 22909, 0.00029152127705596345},   // 362 rows
    {16, 25, 2315, 36, 2256, 0.00032180448383893427},       // 250 rows
    {23, 35, 328, 18, 242, 1.2808860802394119e-05},         // 58 rows
    {26, 47, 3909, 69, 3806, 0.00032582103990962694},       // 262 rows
    {30, 73, 5923, 109, 5772, 0.00041214649539522116},      // 311 rows
    {31, 83, 711, 43, 501, 4.3746341634536135e-05},         // 58 rows
    {36, 19, 978, 15, 929, 0.00023358360313552082},         // 157 rows
};

class PinnedSolverWork : public ::testing::TestWithParam<PinnedWork> {};

TEST_P(PinnedSolverWork, CountersAndObjectiveUnchanged) {
  const PinnedWork& pin = GetParam();
  Rng rng(static_cast<std::uint64_t>(pin.seed) * 0x9e3779b97f4a7c15ULL + 11);
  verify::TinyRegionOptions tiny;
  tiny.minChildren = 8;
  tiny.maxChildren = 8;
  tiny.maxTasks = 4;
  BranchAndBoundSolver solver;

  SolveStats stats;
  double objective = 0.0;
  if (pin.seed % 2 == 0) {
    const parallel::IlpParResult r =
        parallel::solveIlpPar(verify::randomTinyRegion(rng, tiny), solver);
    ASSERT_TRUE(r.feasible);
    EXPECT_TRUE(r.provenOptimal);
    stats = r.stats;
    objective = r.timeSeconds;
  } else {
    const parallel::ChunkResult r =
        parallel::solveChunkIlp(verify::randomTinyChunkRegion(rng, tiny), solver);
    ASSERT_TRUE(r.feasible);
    EXPECT_TRUE(r.provenOptimal);
    stats = r.stats;
    objective = r.timeSeconds;
  }
  EXPECT_EQ(stats.nodesExplored, pin.nodes);
  EXPECT_EQ(stats.simplexIterations, pin.iterations);
  EXPECT_EQ(stats.refactorizations, pin.refactorizations);
  EXPECT_EQ(stats.etaUpdates, pin.etaUpdates);
  EXPECT_DOUBLE_EQ(objective, pin.objective);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PinnedSolverWork, ::testing::ValuesIn(kPinned),
                         [](const ::testing::TestParamInfo<PinnedWork>& info) {
                           return "seed" + std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace hetpar::ilp
