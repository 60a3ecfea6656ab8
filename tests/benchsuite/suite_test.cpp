// Validates the ten evaluation kernels: they parse, run, produce stable
// checksums, build valid HTGs, and expose the parallelism profile each
// kernel is designed to have.
#include "hetpar/benchsuite/suite.hpp"

#include <gtest/gtest.h>

#include "hetpar/htg/validate.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/support/error.hpp"

namespace hetpar::benchsuite {
namespace {

TEST(Suite, HasTheTenPaperBenchmarks) {
  const auto& all = suite();
  ASSERT_EQ(all.size(), 10u);
  const char* expected[] = {"adpcm_enc", "bound_value", "compress",  "edge_detect",
                            "filterbank", "fir_256",     "iir_4",     "latnrm_32",
                            "mult_10",    "spectral"};
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(all[i].name, expected[i]);
}

TEST(Suite, FindByName) {
  EXPECT_EQ(find("compress").name, "compress");
  EXPECT_THROW(find("nope"), Error);
}

class EveryBenchmark : public ::testing::TestWithParam<int> {};

TEST_P(EveryBenchmark, ParsesRunsAndValidates) {
  const Benchmark& b = suite()[static_cast<std::size_t>(GetParam())];
  htg::FrontendBundle bundle = pipeline::buildFrontend(b.source);
  EXPECT_TRUE(htg::validate(bundle.graph).empty()) << b.name;
  EXPECT_NE(bundle.profile.exitValue, 0) << b.name << ": checksum must be nonzero";
  EXPECT_GT(bundle.profile.totalOps, 10'000.0) << b.name << ": workload too small";
  EXPECT_LT(bundle.profile.totalOps, 50'000'000.0) << b.name << ": workload too large";
}

TEST_P(EveryBenchmark, ChecksumIsDeterministic) {
  const Benchmark& b = suite()[static_cast<std::size_t>(GetParam())];
  htg::FrontendBundle a = pipeline::buildFrontend(b.source);
  htg::FrontendBundle c = pipeline::buildFrontend(b.source);
  EXPECT_EQ(a.profile.exitValue, c.profile.exitValue) << b.name;
}

INSTANTIATE_TEST_SUITE_P(All, EveryBenchmark, ::testing::Range(0, 10),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return suite()[static_cast<std::size_t>(info.param)].name;
                         });

// The kernels were designed with specific parallelism profiles; assert the
// DOALL classification sees them that way.
int countDoallLoops(const htg::Graph& g) {
  int count = 0;
  g.forEach([&](const htg::Node& n) {
    if (n.kind == htg::NodeKind::Loop && n.doall) ++count;
  });
  return count;
}

TEST(Suite, DoallProfiles) {
  struct Expectation {
    const char* name;
    int minDoall;
  };
  const Expectation expectations[] = {
      {"adpcm_enc", 2},    // init frames + encode frames
      {"bound_value", 2},  // both sweep loops (time loop is carried)
      {"compress", 3},     // basis + blocks + dct + quant loops
      {"edge_detect", 2},  // init + sobel rows
      {"filterbank", 2},   // banks + init loops
      {"fir_256", 2},      // taps init + sample loop
      {"iir_4", 1},        // channel loop
      {"latnrm_32", 1},    // frame loop
      {"mult_10", 2},      // init + row loop
      {"spectral", 2},     // window + bins
  };
  for (const auto& e : expectations) {
    htg::FrontendBundle bundle = pipeline::buildFrontend(find(e.name).source);
    EXPECT_GE(countDoallLoops(bundle.graph), e.minDoall) << e.name;
  }
}

TEST(Suite, SerialLoopsStaySerial) {
  // boundary value's outer time loop and spectral's smoothing must NOT be
  // classified DOALL.
  {
    htg::FrontendBundle b = pipeline::buildFrontend(find("bound_value").source);
    bool sawSerialLoop = false;
    b.graph.forEach([&](const htg::Node& n) {
      if (n.kind == htg::NodeKind::Loop && !n.doall && n.iterationsPerExec >= 5.0)
        sawSerialLoop = true;
    });
    EXPECT_TRUE(sawSerialLoop) << "the relaxation time loop is carried";
  }
  {
    htg::FrontendBundle s = pipeline::buildFrontend(find("spectral").source);
    // The recursive smoothing loop reads smooth[k-1]: must be serial.
    bool foundSmoothing = false;
    s.graph.forEach([&](const htg::Node& n) {
      if (n.kind == htg::NodeKind::Loop && !n.doall &&
          n.doallReason.find("smooth") != std::string::npos)
        foundSmoothing = true;
    });
    EXPECT_TRUE(foundSmoothing);
  }
}

TEST(Suite, ReductionsDetectedInChecksumLoops) {
  htg::FrontendBundle b = pipeline::buildFrontend(find("fir_256").source);
  bool sawReduction = false;
  b.graph.forEach([&](const htg::Node& n) {
    if (n.kind == htg::NodeKind::Loop && n.doall && !n.reductionVars.empty())
      sawReduction = true;
  });
  EXPECT_TRUE(sawReduction) << "the final accumulation is a sum reduction";
}

}  // namespace
}  // namespace hetpar::benchsuite
