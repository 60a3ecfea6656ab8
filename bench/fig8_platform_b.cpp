// Reproduces paper Figure 8: speedups on platform configuration (B)
// (2x200 + 2x500 MHz -- the ~2.5x big.LITTLE performance discrepancy) for
// both evaluation scenarios.
//
// Expected shape (paper Section VI-A): homogeneous ~3x in (a), up to 1.7x
// in (b); heterogeneous >6x for boundary value / compress / mult in (a)
// (limit 7x), up to 2.6x in (b) (limit 2.8x); averages 2.9x vs 4.5x in (a).
#include "common.hpp"

#include "hetpar/platform/presets.hpp"

int main(int argc, char** argv) {
  using namespace hetpar;
  const platform::Platform pf = platform::platformB();
  const bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
  pipeline::EvalOptions evalOptions;
  evalOptions.parallelizer.jobs = args.jobs;

  std::vector<std::string> names;
  std::vector<double> homA, hetA, homB, hetB;
  double limitA = 0.0;
  double limitB = 0.0;

  std::printf("Platform configuration (B): %s\n", pf.summary().c_str());
  for (const auto& b : args.benchmarks) {
    std::fprintf(stderr, "[fig8] evaluating %s ...\n", b.name.c_str());
    const pipeline::ScenarioResults pair =
        pipeline::evaluateBenchmarkAllScenarios(b.name, b.source, pf, evalOptions);
    names.push_back(b.name);
    homA.push_back(pair.accelerator.homogeneousSpeedup);
    hetA.push_back(pair.accelerator.heterogeneousSpeedup);
    homB.push_back(pair.slowerCores.homogeneousSpeedup);
    hetB.push_back(pair.slowerCores.heterogeneousSpeedup);
    limitA = pair.accelerator.theoreticalLimit;
    limitB = pair.slowerCores.theoreticalLimit;
  }

  bench::printScenarioTable("Figure 8(a): Accelerator Scenario, platform (B)", limitA, names,
                            homA, hetA);
  bench::printScenarioTable("Figure 8(b): Slower Cores Scenario, platform (B)", limitB, names,
                            homB, hetB);
  return 0;
}
