// The fuzz-input generators must produce valid-by-construction inputs:
// every generated program survives the full frontend pipeline, every chunk
// subset is again a valid program (the shrinker's contract), and every
// generated platform validates. Determinism per seed is what makes a fuzz
// failure replayable from its seed alone.
#include <gtest/gtest.h>

#include "hetpar/htg/validate.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/verify/generator.hpp"

namespace hetpar {
namespace {

TEST(GeneratorTest, DeterministicPerSeed) {
  const verify::GeneratedProgram a = verify::generateProgram(42);
  const verify::GeneratedProgram b = verify::generateProgram(42);
  EXPECT_EQ(a.render(), b.render());
  EXPECT_EQ(a.statements, b.statements);

  const verify::GeneratedProgram c = verify::generateProgram(43);
  EXPECT_NE(a.render(), c.render());
}

TEST(GeneratorTest, StatementCountWithinBounds) {
  // The two array-fill calls are emitted as removable chunks too (so the
  // shrinker may drop them), hence the +2 on the upper bound.
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const verify::GeneratedProgram p = verify::generateProgram(seed);
    EXPECT_GE(static_cast<int>(p.statements.size()), p.options.minStatements) << seed;
    EXPECT_LE(static_cast<int>(p.statements.size()), p.options.maxStatements + 2) << seed;
  }
}

TEST(GeneratorTest, EveryChunkSubsetIsValid) {
  // Drop each single chunk in turn: the rendered program must still pass the
  // whole frontend (this is exactly what ddmin probes rely on).
  const verify::GeneratedProgram p = verify::generateProgram(7);
  for (std::size_t drop = 0; drop < p.statements.size(); ++drop) {
    std::vector<std::string> subset;
    for (std::size_t i = 0; i < p.statements.size(); ++i)
      if (i != drop) subset.push_back(p.statements[i]);
    const verify::GeneratedProgram reduced = p.withStatements(subset);
    ASSERT_NO_THROW({
      const htg::FrontendBundle bundle = pipeline::buildFrontend(reduced.render());
      EXPECT_TRUE(htg::validate(bundle.graph).empty());
    }) << "dropping chunk " << drop << ":\n"
       << reduced.render();
  }
  // The empty subset (prologue + epilogue only) is valid too.
  const verify::GeneratedProgram empty = p.withStatements({});
  ASSERT_NO_THROW(pipeline::buildFrontend(empty.render()));
}

TEST(GeneratorTest, PlatformsValidateForManySeeds) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const platform::Platform pf = verify::generatePlatform(seed);
    ASSERT_NO_THROW(pf.validate()) << "seed " << seed;
    EXPECT_GE(pf.numClasses(), 1) << seed;
    EXPECT_LE(pf.numClasses(), 3) << seed;
    EXPECT_GT(pf.taskCreationOverheadSeconds(), 0.0) << seed;
  }
}

TEST(GeneratorTest, PlatformDeterministicPerSeed) {
  const platform::Platform a = verify::generatePlatform(11);
  const platform::Platform b = verify::generatePlatform(11);
  ASSERT_EQ(a.numClasses(), b.numClasses());
  for (int c = 0; c < a.numClasses(); ++c) {
    EXPECT_EQ(a.classAt(c).name, b.classAt(c).name);
    EXPECT_EQ(a.classAt(c).frequencyMHz, b.classAt(c).frequencyMHz);
    EXPECT_EQ(a.classAt(c).count, b.classAt(c).count);
  }
  EXPECT_EQ(a.taskCreationOverheadSeconds(), b.taskCreationOverheadSeconds());
}

TEST(GeneratorTest, ArraySizeOptionIsRespected) {
  verify::GeneratorOptions options;
  options.arraySize = 128;
  const verify::GeneratedProgram p = verify::generateProgram(3, options);
  EXPECT_NE(p.render().find("int ga[128]"), std::string::npos);
  ASSERT_NO_THROW(pipeline::buildFrontend(p.render()));
}

}  // namespace
}  // namespace hetpar
