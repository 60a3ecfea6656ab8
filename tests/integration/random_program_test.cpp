// Property test over randomly generated (valid-by-construction) mini-C
// programs: the whole pipeline — parse, print round-trip, sema, profiling
// interpreter, HTG construction + validation — must hold for every seed.
//
// The generator lives in hetpar/verify/generator.hpp and is shared with the
// differential fuzzer (tools/hetpar-fuzz): any program the fuzzer can
// produce is also in this sweep's input space, seed for seed.
#include <gtest/gtest.h>

#include "hetpar/frontend/parser.hpp"
#include "hetpar/frontend/printer.hpp"
#include "hetpar/htg/validate.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/verify/generator.hpp"

namespace hetpar {
namespace {

class RandomProgramSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramSweep, PipelineHolds) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) * 48611 + 5;
  const std::string src = verify::generateProgram(seed).render();

  // Parse and print round-trip: the printed form re-parses and re-prints
  // identically (printer fixpoint).
  frontend::Program p1 = frontend::parseProgram(src);
  const std::string printed1 = frontend::printProgram(p1);
  frontend::Program p2 = frontend::parseProgram(printed1);
  EXPECT_EQ(frontend::printProgram(p2), printed1) << "seed " << GetParam();

  // Full pipeline: sema + interpreter + HTG.
  ASSERT_NO_THROW({
    const htg::FrontendBundle bundle = pipeline::buildFrontend(src);
    const auto problems = htg::validate(bundle.graph);
    EXPECT_TRUE(problems.empty()) << "seed " << GetParam() << ": " << problems.front();
    EXPECT_NE(bundle.profile.exitValue, 0) << "seed " << GetParam();

    // Determinism: a second run agrees.
    const htg::FrontendBundle again = pipeline::buildFrontend(src);
    EXPECT_EQ(again.profile.exitValue, bundle.profile.exitValue);
    EXPECT_DOUBLE_EQ(again.profile.totalOps, bundle.profile.totalOps);
  }) << "seed " << GetParam() << "\n" << src;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramSweep, ::testing::Range(0, 50));

}  // namespace
}  // namespace hetpar
