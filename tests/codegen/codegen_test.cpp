#include <gtest/gtest.h>

#include <sstream>

#include "hetpar/codegen/annotate.hpp"
#include "hetpar/codegen/mpa_spec.hpp"
#include "hetpar/codegen/premap_spec.hpp"
#include "hetpar/frontend/parser.hpp"
#include "hetpar/parallel/parallelizer.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/platform/presets.hpp"

namespace hetpar::codegen {
namespace {

struct Fixture {
  htg::FrontendBundle bundle;
  platform::Platform pf = platform::platformA();
  std::unique_ptr<cost::TimingModel> timing;
  parallel::ParallelizeOutcome outcome;
  parallel::SolutionRef best;

  Fixture()
      : bundle(pipeline::buildFrontend(R"(
          int a[8192];
          int b[8192];
          int main() {
            for (int i = 0; i < 8192; i = i + 1) { a[i] = i % 13; }
            for (int i = 0; i < 8192; i = i + 1) { b[i] = a[i] * 3 + 1; }
            int s = 0;
            for (int i = 0; i < 8192; i = i + 1) { s = s + b[i]; }
            return s;
          }
        )")) {
    timing = std::make_unique<cost::TimingModel>(pf);
    parallel::Parallelizer tool(bundle.graph, *timing);
    outcome = tool.run();
    best = outcome.bestRoot(bundle.graph, pf.slowestClass());
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

TEST(Annotate, EmitsHetparPragmas) {
  Fixture& f = fixture();
  const std::string out =
      annotateSource(f.bundle.program, f.bundle.graph, f.outcome.table, f.best, f.pf);
  EXPECT_NE(out.find("#pragma hetpar"), std::string::npos);
  EXPECT_NE(out.find("parallel_for"), std::string::npos) << "DOALL loops must be annotated";
  EXPECT_NE(out.find("classes("), std::string::npos);
  EXPECT_NE(out.find("arm_"), std::string::npos) << "class names come from the platform";
}

TEST(Annotate, OutputStillContainsTheProgram) {
  Fixture& f = fixture();
  const std::string out =
      annotateSource(f.bundle.program, f.bundle.graph, f.outcome.table, f.best, f.pf);
  EXPECT_NE(out.find("int main()"), std::string::npos);
  EXPECT_NE(out.find("a[i] = (i % 13)"), std::string::npos);
}

TEST(Annotate, StrippedOutputReparses) {
  // Dropping the pragma/comment lines must leave a valid mini-C program
  // (source-to-source transparency).
  Fixture& f = fixture();
  const std::string out =
      annotateSource(f.bundle.program, f.bundle.graph, f.outcome.table, f.best, f.pf);
  std::string stripped;
  std::istringstream is(out);
  std::string line;
  while (std::getline(is, line)) {
    const auto first = line.find_first_not_of(' ');
    if (first != std::string::npos && line[first] == '#') continue;
    stripped += line + "\n";
  }
  EXPECT_NO_THROW(frontend::parseProgram(stripped));
}

TEST(Annotate, SequentialChoiceHasNoPragmas) {
  Fixture& f = fixture();
  const auto& set = f.outcome.table.at(f.bundle.graph.root());
  const int seq = set.sequentialFor(f.pf.slowestClass());
  const std::string out = annotateSource(f.bundle.program, f.bundle.graph, f.outcome.table,
                                         {f.bundle.graph.root(), seq}, f.pf);
  EXPECT_EQ(out.find("#pragma hetpar parallel"), std::string::npos);
}

TEST(MpaSpec, ListsSectionsAndTasks) {
  Fixture& f = fixture();
  const std::string spec = mpaSpec(f.bundle.graph, f.outcome.table, f.best);
  EXPECT_NE(spec.find("parsection"), std::string::npos);
  EXPECT_NE(spec.find("task T0"), std::string::npos);
  EXPECT_NE(spec.find("iterations"), std::string::npos);
}

TEST(PremapSpec, MapsTasksToClasses) {
  Fixture& f = fixture();
  const std::string spec = premapSpec(f.bundle.graph, f.outcome.table, f.best, f.pf);
  EXPECT_NE(spec.find("map main"), std::string::npos);
  EXPECT_NE(spec.find("-> class arm_"), std::string::npos);
}

TEST(PremapSpec, SequentialChoiceIsHeaderOnly) {
  Fixture& f = fixture();
  const auto& set = f.outcome.table.at(f.bundle.graph.root());
  const int seq = set.sequentialFor(f.pf.slowestClass());
  const std::string spec =
      premapSpec(f.bundle.graph, f.outcome.table, {f.bundle.graph.root(), seq}, f.pf);
  EXPECT_EQ(spec.find("-> class"), std::string::npos);
}

}  // namespace
}  // namespace hetpar::codegen
