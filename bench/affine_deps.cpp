// Affine vs conservative dependence analysis on the example pair
// (bench/affine_programs.hpp): per program and mode, the HTG's total
// dependence-edge count, the total flow/comm payload, and the ILP-estimated
// whole-program speedup on both preset platforms (Accelerator-scenario main
// class). The affine rows must strictly reduce edges and bytes and improve
// the estimate — tests/integration/affine_examples_test.cpp guards the same
// claim in ctest.
#include <cstdio>
#include <utility>

#include "affine_programs.hpp"
#include "hetpar/platform/presets.hpp"

namespace {

using namespace hetpar;

const char* modeName(ir::DependenceMode mode) {
  return mode == ir::DependenceMode::Affine ? "affine" : "conservative";
}

}  // namespace

int main() {
  using namespace hetpar;
  const platform::Platform pa = platform::platformA();
  const platform::Platform pb = platform::platformB();
  const std::pair<const char*, const char*> programs[] = {
      {bench::kStencilName, bench::kStencilSource},
      {bench::kMatmulName, bench::kMatmulSource},
  };

  std::printf("Dependence-mode comparison (ILP estimate, Accelerator main class)\n");
  std::printf("%-16s %-13s %6s %10s %11s %11s\n", "program", "dep-mode", "edges",
              "comm B", "speedup(A)", "speedup(B)");
  std::printf("%-16s %-13s %6s %10s %11s %11s\n", "-------", "--------", "-----",
              "------", "----------", "----------");
  for (const auto& [name, source] : programs) {
    for (const ir::DependenceMode mode :
         {ir::DependenceMode::Conservative, ir::DependenceMode::Affine}) {
      std::fprintf(stderr, "[affine_deps] evaluating %s (%s) ...\n", name, modeName(mode));
      pipeline::Session onA(bench::exampleInputs(source, pa, mode));
      pipeline::Session onB(bench::exampleInputs(source, pb, mode));
      const bench::DepTotals totals = bench::depTotals(onA.frontend().graph);
      std::printf("%-16s %-13s %6d %10lld %10.2fx %10.2fx\n", name, modeName(mode),
                  totals.edges, totals.bytes, bench::estimatedSpeedup(onA),
                  bench::estimatedSpeedup(onB));
    }
  }
  return 0;
}
