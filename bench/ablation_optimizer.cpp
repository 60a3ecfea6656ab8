// ILP vs genetic algorithm (the authors' earlier approach [7]) on the same
// partitioning-and-mapping problems. The paper argues for ILP because
// "solvers guarantee to find the optimal solution if one exists"; this
// harness quantifies the gap on representative region shapes.
#include <chrono>
#include <cstdio>

#include "hetpar/parallel/genetic.hpp"
#include "hetpar/support/rng.hpp"

namespace {

using namespace hetpar;
using namespace hetpar::parallel;

IlpRegion randomRegion(int children, int classes, std::uint64_t seed) {
  Rng rng(seed);
  IlpRegion r;
  r.name = "rand";
  r.seqPC = 0;
  r.maxProcs = 4;
  r.maxTasks = 4;
  r.taskCreationSeconds = 25e-6;
  r.numProcsPerClass.assign(static_cast<std::size_t>(classes), 2);
  for (int i = 0; i < children; ++i) {
    IlpChild c;
    const double base = rng.uniform(0.2e-3, 3e-3);
    for (int cls = 0; cls < classes; ++cls) {
      IlpCandidate cand;
      cand.timeSeconds = base / (1.0 + cls * 1.5);
      cand.extraProcs.assign(static_cast<std::size_t>(classes), 0);
      c.byClass.push_back({cand});
    }
    r.children.push_back(std::move(c));
  }
  // Sprinkle forward dependences.
  for (int i = 0; i < children; ++i)
    for (int j = i + 1; j < children; ++j)
      if (rng.chance(0.15)) {
        IlpEdgeSpec e;
        e.from = i;
        e.to = j;
        e.commSeconds = rng.uniform(1e-6, 60e-6);
        r.edges.push_back(e);
      }
  return r;
}

}  // namespace

int main() {
  std::printf("Optimizer ablation: ILP (this paper) vs genetic algorithm [7]\n");
  std::printf("%-22s %12s %12s %10s %10s %8s\n", "region", "ILP (ms)", "GA (ms)", "gap",
              "ILP time", "GA time");
  std::printf("%s\n", std::string(80, '-').c_str());

  double worstGap = 0.0;
  for (int children : {4, 6, 8, 10}) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      const IlpRegion region = randomRegion(children, 3, seed);

      const auto t0 = std::chrono::steady_clock::now();
      ilp::BranchAndBoundSolver solver;
      const IlpParResult ilpRes = solveIlpPar(region, solver);
      const double ilpSec =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

      const auto t1 = std::chrono::steady_clock::now();
      const IlpParResult gaRes = solveGaPar(region);
      const double gaSec =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t1).count();

      if (!ilpRes.feasible || !gaRes.feasible) {
        std::printf("n=%d seed=%llu: infeasible run\n", children,
                    static_cast<unsigned long long>(seed));
        continue;
      }
      const double gap = gaRes.timeSeconds / ilpRes.timeSeconds - 1.0;
      worstGap = std::max(worstGap, gap);
      std::printf("n=%-2d seed=%llu %-10s %11.4f %12.4f %9.1f%% %9.3fs %7.3fs\n", children,
                  static_cast<unsigned long long>(seed), ilpRes.provenOptimal ? "(optimal)" : "",
                  ilpRes.timeSeconds * 1e3, gaRes.timeSeconds * 1e3, gap * 100.0, ilpSec,
                  gaSec);
    }
  }
  std::printf("\nworst GA gap over the sweep: %.1f%% above the ILP optimum\n", worstGap * 100.0);
  return 0;
}
