// Unit coverage for the metamorphic relation harness itself: name/parse
// round-trips, each relation passes on generated inputs (what the fuzzer
// round-robins over), the single-class relation actually engages on a
// single-class platform, and the table differ detects mutations.
#include <gtest/gtest.h>

#include "hetpar/cost/timing.hpp"
#include "hetpar/parallel/parallelizer.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/support/error.hpp"
#include "hetpar/verify/generator.hpp"
#include "hetpar/verify/metamorphic.hpp"

namespace hetpar {
namespace {

TEST(MetamorphicTest, RelationNamesRoundTrip) {
  for (verify::Relation r : verify::allRelations()) {
    const std::string name = verify::relationName(r);
    const std::vector<verify::Relation> parsed = verify::parseRelations(name);
    ASSERT_EQ(parsed.size(), 1u) << name;
    EXPECT_EQ(parsed[0], r) << name;
  }
}

TEST(MetamorphicTest, ParseRelationsAllAndLists) {
  EXPECT_EQ(verify::parseRelations("all").size(), verify::allRelations().size());
  const auto two = verify::parseRelations("cost-scaling,oracle-task");
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], verify::Relation::CostScaling);
  EXPECT_EQ(two[1], verify::Relation::OracleTask);
  EXPECT_THROW(verify::parseRelations("no-such-relation"), Error);
  EXPECT_THROW(verify::parseRelations(""), Error);
}

TEST(MetamorphicTest, ProgramRelationsPassOnGeneratedInputs) {
  // One mid-size generated case through every program-level relation — the
  // exact pairing the fuzzer uses, pinned here so a pipeline regression
  // fails a unit test and not just a nightly fuzz run.
  verify::GeneratorOptions genOptions;
  genOptions.arraySize = 128;
  const std::string source = verify::generateProgram(9001, genOptions).render();
  const platform::Platform pf = verify::generatePlatform(9001);
  for (verify::Relation r : verify::allRelations()) {
    if (!verify::isProgramRelation(r)) continue;
    const verify::RelationResult result = verify::checkProgramRelation(r, source, pf);
    EXPECT_TRUE(result.passed || result.skipped)
        << result.name << ": " << result.detail;
  }
}

TEST(MetamorphicTest, RegionRelationsPassOnSeeds) {
  for (verify::Relation r : verify::allRelations()) {
    if (verify::isProgramRelation(r)) continue;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const verify::RelationResult result = verify::checkRegionRelation(r, seed);
      EXPECT_TRUE(result.passed || result.skipped)
          << result.name << " seed " << seed << ": " << result.detail;
    }
  }
}

TEST(MetamorphicTest, SectionSoundnessPassesOnIvMutatingLoop) {
  // An IV-mutating body once made the section analysis claim a definite
  // exact full sweep it never performed; the ground-truth trace relation
  // must agree with the (now conservative) analysis on this shape.
  const std::string source = R"(
    int ga[16]; int gb[16]; int gc[16];
    int main() {
      for (int i = 0; i < 16; i = i + 1) {
        gc[i] = gb[i] + 3;
        if (i % 4 == 1) { i = i + 1; }
      }
      int acc = 0;
      for (int i = 0; i < 16; i = i + 1) { acc = acc + ga[i] + gb[i] + gc[i]; }
      return acc + 1;
    }
  )";
  const platform::Platform pf = verify::generatePlatform(1);
  const verify::RelationResult result =
      verify::checkProgramRelation(verify::Relation::SectionSoundness, source, pf);
  EXPECT_FALSE(result.skipped) << result.detail;
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(MetamorphicTest, SingleClassRelationEngagesOnSingleClassPlatform) {
  verify::PlatformGeneratorOptions pfOptions;
  pfOptions.minClasses = 1;
  pfOptions.maxClasses = 1;
  const platform::Platform pf = verify::generatePlatform(5, pfOptions);
  ASSERT_EQ(pf.numClasses(), 1);
  const std::string source = verify::generateProgram(5).render();
  const verify::RelationResult result =
      verify::checkProgramRelation(verify::Relation::SingleClassHomogeneous, source, pf);
  EXPECT_FALSE(result.skipped) << result.detail;
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(MetamorphicTest, DiffSolutionTablesDetectsMutations) {
  const std::string source = verify::generateProgram(17).render();
  const platform::Platform pf = verify::generatePlatform(17);
  const htg::FrontendBundle bundle = pipeline::buildFrontend(source);
  const cost::TimingModel timing(pf);
  parallel::Parallelizer par(bundle.graph, timing,
                             verify::MetamorphicOptions::fuzzOptions());
  const parallel::ParallelizeOutcome outcome = par.run();

  EXPECT_EQ(verify::diffSolutionTables(outcome.table, outcome.table), "");

  parallel::SolutionTable mutated = outcome.table;
  ASSERT_FALSE(mutated.empty());
  auto& set = mutated.begin()->second;
  ASSERT_GT(set.size(), 0u);
  set.at(0).timeSeconds += 1e-12;  // sub-tolerance drift must still be seen
  EXPECT_NE(verify::diffSolutionTables(outcome.table, mutated), "");

  parallel::SolutionTable truncated = outcome.table;
  truncated.erase(truncated.begin());
  EXPECT_NE(verify::diffSolutionTables(outcome.table, truncated), "");
}

}  // namespace
}  // namespace hetpar
