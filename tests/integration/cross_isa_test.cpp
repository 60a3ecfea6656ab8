// Cross-ISA cost modeling (paper Section VI: the approach "would also
// perform well for different instruction sets and specialized processing
// units since it uses different execution costs for each statement").
//
// On a platform whose classes run at the SAME clock but differ per op kind
// (DSP: 4x faster float, 2x slower control), the ILP must route float-heavy
// loops to the DSP class and keep integer work on the general-purpose one.
#include <gtest/gtest.h>

#include "hetpar/parallel/parallelizer.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/platform/presets.hpp"

namespace hetpar {
namespace {

const char* kMixedProgram = R"(
  double fsrc[8192];
  double fdst[8192];
  int isrc[8192];
  int idst[8192];
  int main() {
    for (int i = 0; i < 8192; i = i + 1) { fsrc[i] = 0.5 * i; }
    for (int i = 0; i < 8192; i = i + 1) { isrc[i] = i % 23; }
    for (int i = 0; i < 8192; i = i + 1) {
      fdst[i] = sqrt(fsrc[i] + 1.0) * 1.5 + sin(fsrc[i]) * fsrc[i];
    }
    for (int i = 0; i < 8192; i = i + 1) {
      idst[i] = isrc[i] * 3 + isrc[i] % 7;
    }
    int s = 0;
    for (int i = 0; i < 8192; i = i + 1) { s = s + idst[i] + fdst[i]; }
    return s;
  }
)";

TEST(CrossIsa, TimeForKindsAppliesFactors) {
  const platform::Platform pf = platform::crossIsaDemo();
  const platform::ClassId gpp = pf.findClass("gpp");
  const platform::ClassId dsp = pf.findClass("dsp");
  ASSERT_GE(gpp, 0);
  ASSERT_GE(dsp, 0);
  const double pureFloat[4] = {0.0, 1000.0, 0.0, 0.0};
  const double pureInt[4] = {1000.0, 0.0, 0.0, 0.0};
  const double pureControl[4] = {0.0, 0.0, 0.0, 1000.0};
  EXPECT_NEAR(pf.timeForKinds(dsp, pureFloat) / pf.timeForKinds(gpp, pureFloat), 0.25, 1e-12);
  EXPECT_NEAR(pf.timeForKinds(dsp, pureInt) / pf.timeForKinds(gpp, pureInt), 1.0, 1e-12);
  EXPECT_NEAR(pf.timeForKinds(dsp, pureControl) / pf.timeForKinds(gpp, pureControl), 2.0,
              1e-12);
}

TEST(CrossIsa, ProfilerSeparatesKinds) {
  htg::FrontendBundle b = pipeline::buildFrontend(kMixedProgram);
  // Find the float and int compute loops and compare their mixes.
  const htg::Node* floatLoop = nullptr;
  const htg::Node* intLoop = nullptr;
  b.graph.forEach([&](const htg::Node& n) {
    if (n.kind != htg::NodeKind::Loop || n.stmt == nullptr) return;
    if (n.stmt->loc.line == 9) floatLoop = &n;
    if (n.stmt->loc.line == 12) intLoop = &n;
  });
  ASSERT_NE(floatLoop, nullptr);
  ASSERT_NE(intLoop, nullptr);
  const cost::OpMix fm = b.graph.subtreeMixPerExec(floatLoop->id);
  const cost::OpMix im = b.graph.subtreeMixPerExec(intLoop->id);
  EXPECT_GT(fm.of(cost::OpKind::FloatAlu), fm.of(cost::OpKind::IntAlu))
      << "the float kernel is float-dominated (induction updates aside)";
  EXPECT_GT(im.of(cost::OpKind::IntAlu), im.of(cost::OpKind::FloatAlu));
  // Mix totals must agree with the scalar ops view.
  EXPECT_NEAR(fm.total(), b.graph.subtreeOpsPerExec(floatLoop->id), 1e-6);
}

TEST(CrossIsa, IlpRoutesFloatWorkToDsp) {
  htg::FrontendBundle b = pipeline::buildFrontend(kMixedProgram);
  const platform::Platform pf = platform::crossIsaDemo();
  const cost::TimingModel timing(pf);
  parallel::Parallelizer tool(b.graph, timing);
  const parallel::ParallelizeOutcome out = tool.run();

  const platform::ClassId gpp = pf.findClass("gpp");
  const platform::ClassId dsp = pf.findClass("dsp");

  auto dspShare = [&](const htg::Node& loop) {
    const parallel::ParallelSet& set = out.table.at(loop.id);
    const int best = set.bestFor(gpp);  // main task on the GPP
    const parallel::SolutionCandidate& cand = set.at(best);
    if (cand.kind != parallel::SolutionKind::LoopChunked) return -1.0;
    double dspIters = 0.0;
    double total = 0.0;
    for (int t = 0; t < cand.numTasks(); ++t) {
      total += cand.chunkIterations[static_cast<std::size_t>(t)];
      if (cand.taskClass[static_cast<std::size_t>(t)] == dsp)
        dspIters += cand.chunkIterations[static_cast<std::size_t>(t)];
    }
    return total > 0 ? dspIters / total : -1.0;
  };

  const htg::Node* floatLoop = nullptr;
  const htg::Node* intLoop = nullptr;
  b.graph.forEach([&](const htg::Node& n) {
    if (n.kind != htg::NodeKind::Loop || n.stmt == nullptr) return;
    if (n.stmt->loc.line == 9) floatLoop = &n;
    if (n.stmt->loc.line == 12) intLoop = &n;
  });
  ASSERT_NE(floatLoop, nullptr);
  ASSERT_NE(intLoop, nullptr);

  const double floatShare = dspShare(*floatLoop);
  const double intShare = dspShare(*intLoop);
  ASSERT_GE(floatShare, 0.0) << "float loop must have a chunked candidate";
  EXPECT_GT(floatShare, 0.6) << "the 4x-faster float units must attract the bulk of the work";
  if (intShare >= 0.0) {
    EXPECT_LT(intShare, floatShare)
        << "integer work has no reason to prefer the DSP over the GPP";
  }
}

TEST(CrossIsa, SameIsaPlatformsUnchanged) {
  // Default kindFactor == 1 must reproduce the pure-frequency model.
  const platform::Platform a = platform::platformA();
  const double mix[4] = {250.0, 250.0, 250.0, 250.0};
  for (platform::ClassId c = 0; c < a.numClasses(); ++c)
    EXPECT_NEAR(a.timeForKinds(c, mix), a.timeForOps(c, 1000.0), 1e-15);
}

}  // namespace
}  // namespace hetpar
