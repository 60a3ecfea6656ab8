// Reproduces paper Table I: statistics of the ILP-based parallelization
// algorithms — per benchmark, the parallelization time, number of generated
// ILPs, total variables and constraints for the homogeneous approach [6]
// and the new heterogeneous approach, plus the ratio between them.
//
// Expected shape (paper Section VI-B): the heterogeneous approach creates
// more ILPs (2.4-7.4x, avg 3.5x), more variables (4.9-14.8x, avg 7.0x) and
// more constraints (4.1-11.2x, avg 5.5x) than the homogeneous one, and its
// parallelization time is correspondingly larger. Absolute times depend on
// the solver host (the paper used lp_solve/CPLEX on a 2.4 GHz Opteron; we
// use hetpar's own branch-and-bound solver).
#include <cstdio>

#include "common.hpp"
#include "hetpar/parallel/homogeneous.hpp"
#include "hetpar/parallel/parallelizer.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/platform/presets.hpp"

int main(int argc, char** argv) {
  using namespace hetpar;
  const platform::Platform pf = platform::platformA();
  const bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
  parallel::ParallelizerOptions parOpts;
  parOpts.jobs = args.jobs;

  std::printf("Table I: statistics of the ILP-based parallelization algorithms\n");
  std::printf("platform: %s; main processor class for the baseline view: %s\n\n",
              pf.summary().c_str(), pf.classAt(pf.slowestClass()).name.c_str());
  std::printf("%-12s | %8s %6s %9s %9s | %8s %6s %9s %9s | %6s %6s %6s %6s\n",
              "", "Time", "#ILPs", "#Var", "#Constr", "Time", "#ILPs", "#Var", "#Constr",
              "Time", "#ILPs", "#Var", "#Constr");
  std::printf("%-12s | %40s | %40s | %27s\n", "Benchmark", "Homogeneous approach [6]",
              "New Heterogeneous approach", "Factor");
  std::printf("%s\n", std::string(130, '-').c_str());

  parallel::IlpStatistics homTotal, hetTotal;
  int count = 0;
  for (const auto& b : args.benchmarks) {
    std::fprintf(stderr, "[table1] parallelizing %s ...\n", b.name.c_str());
    htg::FrontendBundle bundle = pipeline::buildFrontend(b.source);

    // Homogeneous approach [6]: single-class view of the platform.
    parallel::HomogeneousRun hom =
        parallel::runHomogeneousBaseline(bundle.graph, pf, pf.slowestClass(), parOpts);
    // New heterogeneous approach: full platform.
    const cost::TimingModel timing(pf);
    parallel::Parallelizer het(bundle.graph, timing, parOpts);
    parallel::ParallelizeOutcome hetOut = het.run();

    const auto& hs = hom.outcome.stats;
    const auto& xs = hetOut.stats;
    auto factor = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    std::printf("%-12s | %8s %6lld %9s %9s | %8s %6lld %9s %9s | %5.1fx %5.1fx %5.1fx %5.1fx\n",
                b.name.c_str(), strings::formatMinSec(hs.wallSeconds).c_str(), hs.numIlps,
                strings::formatThousands(hs.numVars).c_str(),
                strings::formatThousands(hs.numConstraints).c_str(),
                strings::formatMinSec(xs.wallSeconds).c_str(), xs.numIlps,
                strings::formatThousands(xs.numVars).c_str(),
                strings::formatThousands(xs.numConstraints).c_str(),
                factor(xs.wallSeconds, hs.wallSeconds),
                factor(double(xs.numIlps), double(hs.numIlps)),
                factor(double(xs.numVars), double(hs.numVars)),
                factor(double(xs.numConstraints), double(hs.numConstraints)));
    homTotal.merge(hs);
    hetTotal.merge(xs);
    ++count;
  }
  if (count > 0) {
    auto factor = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double c = count;
    std::printf("%s\n", std::string(130, '-').c_str());
    std::printf("%-12s | %8s %6.0f %9s %9s | %8s %6.0f %9s %9s | %5.1fx %5.1fx %5.1fx %5.1fx\n",
                "average", strings::formatMinSec(homTotal.wallSeconds / c).c_str(),
                double(homTotal.numIlps) / c,
                strings::formatThousands(static_cast<long long>(homTotal.numVars / count)).c_str(),
                strings::formatThousands(static_cast<long long>(homTotal.numConstraints / count)).c_str(),
                strings::formatMinSec(hetTotal.wallSeconds / c).c_str(),
                double(hetTotal.numIlps) / c,
                strings::formatThousands(static_cast<long long>(hetTotal.numVars / count)).c_str(),
                strings::formatThousands(static_cast<long long>(hetTotal.numConstraints / count)).c_str(),
                factor(hetTotal.wallSeconds, homTotal.wallSeconds),
                factor(double(hetTotal.numIlps), double(homTotal.numIlps)),
                factor(double(hetTotal.numVars), double(homTotal.numVars)),
                factor(double(hetTotal.numConstraints), double(homTotal.numConstraints)));
  }
  return 0;
}
