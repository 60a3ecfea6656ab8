// Replays every committed fuzz regression: each <relation>-seed<N>.c file in
// tests/data/regressions/ (with its .platform sibling) re-runs its relation
// and must pass — a fixed bug stays fixed. Region-level relations have no
// program; their repro is the case seed alone, committed as
// <relation>-seed<N>.seed and replayed through checkRegionRelation. The
// directory starts empty; the fuzzer (tools/hetpar-fuzz) populates it with
// shrunk failing inputs which get committed together with the fix.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "hetpar/platform/parser.hpp"
#include "hetpar/verify/metamorphic.hpp"

#ifndef HETPAR_REGRESSIONS_DIR
#define HETPAR_REGRESSIONS_DIR "tests/data/regressions"
#endif

namespace hetpar {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// "invariants-seed123.c" -> "invariants".
std::string relationOf(const fs::path& path) {
  const std::string stem = path.stem().string();
  const std::size_t dash = stem.rfind("-seed");
  return dash == std::string::npos ? stem : stem.substr(0, dash);
}

/// "oracle-matches-ilp-seed123.seed" -> 123 (0 = malformed).
std::uint64_t seedOf(const fs::path& path) {
  const std::string stem = path.stem().string();
  const std::size_t dash = stem.rfind("-seed");
  if (dash == std::string::npos) return 0;
  return std::strtoull(stem.c_str() + dash + 5, nullptr, 10);
}

TEST(RegressionsTest, AllCommittedReprosPass) {
  const fs::path dir{HETPAR_REGRESSIONS_DIR};
  if (!fs::exists(dir)) GTEST_SKIP() << "no regression directory";

  int replayed = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".c") continue;
    const fs::path platformPath = fs::path(entry.path()).replace_extension(".platform");
    ASSERT_TRUE(fs::exists(platformPath))
        << entry.path() << " has no .platform sibling";

    const std::string source = slurp(entry.path());
    const platform::Platform pf = platform::parsePlatform(slurp(platformPath));
    const std::vector<verify::Relation> relations =
        verify::parseRelations(relationOf(entry.path()));
    ASSERT_EQ(relations.size(), 1u) << entry.path();

    const verify::RelationResult result = verify::checkProgramRelation(relations[0], source, pf);
    EXPECT_TRUE(result.passed || result.skipped) << entry.path() << ": " << result.detail;
    ++replayed;
  }
  // Empty directory = nothing to replay; that is a pass, not a failure.
  RecordProperty("replayed", replayed);
}

TEST(RegressionsTest, AllCommittedSeedReprosPass) {
  const fs::path dir{HETPAR_REGRESSIONS_DIR};
  if (!fs::exists(dir)) GTEST_SKIP() << "no regression directory";

  int replayed = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".seed") continue;
    const std::uint64_t seed = seedOf(entry.path());
    ASSERT_NE(seed, 0u) << entry.path() << ": malformed fixture name";

    const std::vector<verify::Relation> relations =
        verify::parseRelations(relationOf(entry.path()));
    ASSERT_EQ(relations.size(), 1u) << entry.path();
    ASSERT_FALSE(verify::isProgramRelation(relations[0]))
        << entry.path() << ": .seed fixtures are for region-level relations";

    const verify::RelationResult result = verify::checkRegionRelation(relations[0], seed);
    EXPECT_TRUE(result.passed || result.skipped) << entry.path() << ": " << result.detail;
    ++replayed;
  }
  RecordProperty("seedReplayed", replayed);
}

}  // namespace
}  // namespace hetpar
