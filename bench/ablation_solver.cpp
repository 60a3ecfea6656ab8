// LP engine ablation: the production sparse revised simplex (LU +
// product-form updates) against the dense explicit-inverse reference
// (verify/dense_factor.hpp) on ILPPAR-shaped models, plus warm-vs-cold
// restarts and end-to-end branch-and-bound region solves. Records per-LP solve time, speedup and
// iteration throughput in the "simplex" section of BENCH_parallelizer.json.
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "hetpar/ilp/branch_and_bound.hpp"
#include "hetpar/ilp/simplex.hpp"
#include "hetpar/parallel/ilppar_model.hpp"
#include "hetpar/support/rng.hpp"
#include "hetpar/support/strings.hpp"
#include "hetpar/verify/dense_factor.hpp"
#include "common.hpp"

namespace {

using namespace hetpar;
using namespace hetpar::ilp;

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// ILPPAR-shaped sparse LP: a few nonzeros per row (budget rows touch one
/// class's variables, linking rows touch a handful), never dense. With
/// `nv` structural variables and `nc` constraints buildLp lands at
/// nv + nc columns.
Model sparseLp(int nv, int nc, std::uint64_t seed) {
  Rng rng(seed);
  Model m("lp");
  std::vector<Var> xs;
  for (int i = 0; i < nv; ++i)
    xs.push_back(m.addContinuous(0, 10, hetpar::strings::format("x%d", i)));
  for (int r = 0; r < nc; ++r) {
    LinearExpr lhs;
    const int nnz = static_cast<int>(rng.range(3, 6));
    for (int k = 0; k < nnz; ++k) {
      const auto i = static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(nv)));
      lhs += LinearExpr::term(double(rng.range(1, 5)), xs[i]);
    }
    m.addLe(lhs, double(rng.range(nc, 4 * nc)));
  }
  LinearExpr obj;
  for (int i = 0; i < nv; ++i)
    obj += LinearExpr::term(double(rng.range(1, 9)), xs[static_cast<std::size_t>(i)]);
  m.setObjective(obj, Sense::Maximize);
  return m;
}

StandardForm standardForm(const Model& m) {
  std::vector<double> lb, ub;
  for (const auto& v : m.vars()) {
    lb.push_back(v.lowerBound);
    ub.push_back(v.upperBound);
  }
  return buildLp(m, lb, ub);
}

struct EngineResult {
  double perLpSeconds = 0.0;
  double iterationsPerSecond = 0.0;
  long long iterations = 0;
};

/// Cold-solves each problem `reps` times under one engine.
EngineResult timeColdSolves(const std::vector<StandardForm>& problems,
                            BasisFactorFactory makeFactor, int reps) {
  EngineResult out;
  long long solves = 0;
  const double start = now();
  for (int rep = 0; rep < reps; ++rep) {
    for (const StandardForm& sf : problems) {
      BoundedSimplex splx(1e-9, makeFactor);
      const LpResult r = splx.solve(sf.problem);
      out.iterations += r.iterations;
      ++solves;
    }
  }
  const double wall = now() - start;
  out.perLpSeconds = wall / static_cast<double>(solves);
  out.iterationsPerSecond = wall > 0 ? static_cast<double>(out.iterations) / wall : 0.0;
  return out;
}

/// Branch-and-bound restart pattern: re-solve under alternating one-bound
/// tightenings, warm-starting from the previous optimal basis.
double timeWarmRestarts(const StandardForm& sf0, BasisFactorFactory makeFactor, int reps) {
  StandardForm sf = sf0;
  BoundedSimplex splx(1e-9, makeFactor);
  SimplexBasis basis;
  splx.solve(sf.problem, 0, nullptr, &basis);
  const double start = now();
  for (int rep = 0; rep < reps; ++rep) {
    sf.problem.upper[0] = sf.problem.upper[0] > 5 ? 5.0 : 10.0;
    SimplexBasis next;
    splx.solve(sf.problem, 0, &basis, &next);
    basis = next;
  }
  return (now() - start) / static_cast<double>(reps);
}

parallel::IlpRegion representativeRegion(int children, int classes) {
  parallel::IlpRegion r;
  r.name = "bench";
  r.seqPC = 0;
  r.maxProcs = 4;
  r.maxTasks = 4;
  r.taskCreationSeconds = 25e-6;
  r.numProcsPerClass.assign(static_cast<std::size_t>(classes), 2);
  for (int i = 0; i < children; ++i) {
    parallel::IlpChild c;
    for (int cls = 0; cls < classes; ++cls) {
      parallel::IlpCandidate cand;
      cand.timeSeconds = (1.0 + i % 3) * 1e-3 / (1 + cls);
      cand.extraProcs.assign(static_cast<std::size_t>(classes), 0);
      c.byClass.push_back({cand});
    }
    r.children.push_back(std::move(c));
    if (i > 0 && i % 2 == 0) {
      parallel::IlpEdgeSpec e;
      e.from = i - 1;
      e.to = i;
      e.commSeconds = 5e-6;
      r.edges.push_back(e);
    }
  }
  return r;
}

double timeIlpParSolves(const parallel::IlpRegion& region, BasisFactorFactory makeFactor,
                        int reps) {
  const double start = now();
  for (int rep = 0; rep < reps; ++rep) {
    BranchAndBoundSolver solver({}, makeFactor);
    parallel::solveIlpPar(region, solver);
  }
  return (now() - start) / static_cast<double>(reps);
}

}  // namespace

int main() {
  // ~330 structural variables over ~300 constraints — the model size the
  // fuzz profile's widened 4-task / 16-chunk regions produce. The dense
  // engine pays O(rows^2) per iteration here; the sparse factors do not.
  constexpr int kVars = 330;
  constexpr int kRows = 300;
  constexpr int kModels = 8;
  constexpr int kReps = 3;

  std::vector<StandardForm> problems;
  for (int i = 0; i < kModels; ++i)
    problems.push_back(standardForm(sparseLp(kVars, kRows, 42 + std::uint64_t(i))));
  const int lpCols = problems.front().problem.numCols;

  const EngineResult dense = timeColdSolves(problems, verify::makeDenseInverseFactor, kReps);
  const EngineResult revised = timeColdSolves(problems, makeSparseLuFactor, kReps);
  const double speedup = revised.perLpSeconds > 0
                             ? dense.perLpSeconds / revised.perLpSeconds
                             : 0.0;

  const double warmDense =
      timeWarmRestarts(problems.front(), verify::makeDenseInverseFactor, 200);
  const double warmRevised = timeWarmRestarts(problems.front(), makeSparseLuFactor, 200);

  const parallel::IlpRegion region = representativeRegion(8, 3);
  const double regionDense = timeIlpParSolves(region, verify::makeDenseInverseFactor, 20);
  const double regionRevised = timeIlpParSolves(region, makeSparseLuFactor, 20);

  std::printf("LP engine ablation (%d models, %d cols each, %d reps)\n", kModels, lpCols,
              kReps);
  std::printf("%-22s %14s %14s %9s\n", "workload", "dense", "revised", "speedup");
  std::printf("%-22s %11.3f ms %11.3f ms %8.2fx\n", "cold LP solve",
              dense.perLpSeconds * 1e3, revised.perLpSeconds * 1e3, speedup);
  std::printf("%-22s %11.3f ms %11.3f ms %8.2fx\n", "warm restart",
              warmDense * 1e3, warmRevised * 1e3,
              warmRevised > 0 ? warmDense / warmRevised : 0.0);
  std::printf("%-22s %11.3f ms %11.3f ms %8.2fx\n", "ILPPAR region (bnb)",
              regionDense * 1e3, regionRevised * 1e3,
              regionRevised > 0 ? regionDense / regionRevised : 0.0);
  std::printf("iterations/s: dense %.0f, revised %.0f\n", dense.iterationsPerSecond,
              revised.iterationsPerSecond);

  std::ostringstream json;
  json << "{\n    \"lp_cols\": " << lpCols << ",\n"
       << "    \"models\": " << kModels << ",\n"
       << "    \"dense_per_lp_seconds\": " << dense.perLpSeconds << ",\n"
       << "    \"revised_per_lp_seconds\": " << revised.perLpSeconds << ",\n"
       << "    \"speedup\": " << speedup << ",\n"
       << "    \"dense_iterations_per_second\": " << dense.iterationsPerSecond << ",\n"
       << "    \"revised_iterations_per_second\": " << revised.iterationsPerSecond << ",\n"
       << "    \"warm_dense_seconds\": " << warmDense << ",\n"
       << "    \"warm_revised_seconds\": " << warmRevised << ",\n"
       << "    \"ilppar_region_dense_seconds\": " << regionDense << ",\n"
       << "    \"ilppar_region_revised_seconds\": " << regionRevised << "\n  }";
  hetpar::bench::updateBenchJson("BENCH_parallelizer.json", "simplex", json.str());
  std::fprintf(stderr, "[ablation_solver] updated BENCH_parallelizer.json\n");
  return 0;
}
