// Reproduces paper Figure 7: speedups on platform configuration (A)
// (1x100 + 1x250 + 2x500 MHz ARM cores) for both evaluation scenarios,
// comparing the homogeneous baseline [6] against the heterogeneous tool.
//
//   Figure 7(a) -- Accelerator scenario: main processor = the 100 MHz core.
//   Figure 7(b) -- Slower-cores scenario: main processor = a 500 MHz core.
//
// Expected shape (paper Section VI-A): homogeneous reaches ~3-4x in (a) and
// drops below 1x in (b); heterogeneous reaches up to 11-12x in (a), stays
// in 1.2-2.5x in (b), and never regresses below 1x.
#include "common.hpp"

#include "hetpar/platform/presets.hpp"

int main(int argc, char** argv) {
  using namespace hetpar;
  const platform::Platform pf = platform::platformA();
  const bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
  pipeline::EvalOptions evalOptions;
  evalOptions.parallelizer.jobs = args.jobs;

  std::vector<std::string> names;
  std::vector<double> homA, hetA, homB, hetB;
  double limitA = 0.0;
  double limitB = 0.0;

  std::printf("Platform configuration (A): %s\n", pf.summary().c_str());
  for (const auto& b : args.benchmarks) {
    std::fprintf(stderr, "[fig7] evaluating %s ...\n", b.name.c_str());
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

  bench::printScenarioTable("Figure 7(a): Accelerator Scenario, platform (A)", limitA, names,
                            homA, hetA);
  bench::printScenarioTable("Figure 7(b): Slower Cores Scenario, platform (A)", limitB, names,
                            homB, hetB);
  return 0;
}
