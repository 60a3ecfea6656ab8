// Acceptance guard for the affine dependence mode: on the example pair
// (bench/affine_programs.hpp) the affine analysis must strictly reduce the
// HTG's total edge count and communicated bytes versus conservative mode,
// and the resulting ILP plan must be strictly faster on at least one preset
// platform. bench/affine_deps prints the same numbers as a table.
#include <gtest/gtest.h>

#include "affine_programs.hpp"
#include "hetpar/htg/validate.hpp"
#include "hetpar/pipeline/evaluate.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/platform/presets.hpp"

namespace hetpar {
namespace {

struct ModePair {
  bench::DepTotals conservative;
  bench::DepTotals affine;
};

ModePair totalsFor(const char* source) {
  const htg::FrontendBundle cons =
      pipeline::buildFrontend(source, ir::DependenceMode::Conservative);
  const htg::FrontendBundle aff = pipeline::buildFrontend(source, ir::DependenceMode::Affine);
  htg::validateOrThrow(cons.graph);
  htg::validateOrThrow(aff.graph);
  return {bench::depTotals(cons.graph), bench::depTotals(aff.graph)};
}

double speedup(const char* source, const platform::Platform& pf, ir::DependenceMode mode) {
  pipeline::Session session(bench::exampleInputs(source, pf, mode));
  return bench::estimatedSpeedup(session);
}

TEST(AffineExamples, StencilStrictlyReducesEdgesAndBytes) {
  const ModePair t = totalsFor(bench::kStencilSource);
  EXPECT_LT(t.affine.edges, t.conservative.edges);
  EXPECT_LT(t.affine.bytes, t.conservative.bytes);
}

TEST(AffineExamples, MatmulStrictlyReducesEdgesAndBytes) {
  const ModePair t = totalsFor(bench::kMatmulSource);
  EXPECT_LT(t.affine.edges, t.conservative.edges);
  EXPECT_LT(t.affine.bytes, t.conservative.bytes);
}

TEST(AffineExamples, IlpSpeedupImprovesOnAPreset) {
  const std::pair<const char*, const char*> programs[] = {
      {bench::kStencilName, bench::kStencilSource},
      {bench::kMatmulName, bench::kMatmulSource},
  };
  for (const auto& [name, source] : programs) {
    const platform::Platform pa = platform::platformA();
    const double consA = speedup(source, pa, ir::DependenceMode::Conservative);
    const double affA = speedup(source, pa, ir::DependenceMode::Affine);
    if (affA > consA) continue;  // improved on preset A — done for this program
    const platform::Platform pb = platform::platformB();
    const double consB = speedup(source, pb, ir::DependenceMode::Conservative);
    const double affB = speedup(source, pb, ir::DependenceMode::Affine);
    EXPECT_GT(affB, consB) << name << ": affine must beat conservative on preset A or B"
                           << " (A: " << affA << " vs " << consA << ")";
  }
}

}  // namespace
}  // namespace hetpar
