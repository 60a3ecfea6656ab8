#include "hetpar/parallel/ilppar_model.hpp"

#include <algorithm>
#include <cmath>

#include "hetpar/support/error.hpp"
#include "hetpar/support/strings.hpp"

namespace hetpar::parallel {

using ilp::LinearExpr;
using ilp::Model;
using ilp::Relation;
using ilp::Sense;
using ilp::Var;
using ilp::VarType;

namespace {
// The model is built in microseconds: second-scale coefficients (1e-6..1e0)
// would sit too close to the simplex tolerances.
constexpr double kScale = 1e6;
}  // namespace

Model buildIlpParModel(const IlpRegion& region, IlpParVars& vars) {
  const int N = static_cast<int>(region.children.size());
  const int C = static_cast<int>(region.numProcsPerClass.size());
  // One slot per child PLUS the main task: the main task is pinned to seqPC,
  // so the optimum may leave it idle and host every child on extracted tasks
  // of a faster class. Capping at N (instead of N + 1) silently cut those
  // assignments off — found by the exhaustive oracle in hetpar/verify.
  const int T = std::max(1, std::min(region.maxTasks, N + 1));
  require<SolverError>(N > 0, "ILPPAR needs at least one child");
  require<SolverError>(region.seqPC >= 0 && region.seqPC < C, "bad seqPC");

  Model m("ilppar_" + region.name);
  vars = IlpParVars{};
  vars.numTasks = T;

  // --- Eq 1-2: node-to-task assignment --------------------------------------
  vars.x.assign(static_cast<std::size_t>(N), {});
  for (int n = 0; n < N; ++n) {
    LinearExpr sum;
    for (int t = 0; t < T; ++t) {
      Var x = m.addBool(strings::format("x_n%d_t%d", n, t));
      m.varInfo(x).branchPriority = 2;
      vars.x[static_cast<std::size_t>(n)].push_back(x);
      sum += LinearExpr(x);
    }
    m.addEq(sum, 1.0, strings::format("node%d_in_one_task", n));
  }
  auto X = [&](int n, int t) { return vars.x[static_cast<std::size_t>(n)][static_cast<std::size_t>(t)]; };

  // --- Eq 10: cycle freedom via monotone task ids over topological order ----
  for (int n = 0; n + 1 < N; ++n) {
    LinearExpr idN, idNext;
    for (int t = 0; t < T; ++t) {
      idN += LinearExpr::term(t, X(n, t));
      idNext += LinearExpr::term(t, X(n + 1, t));
    }
    m.addGe(idNext, idN, strings::format("monotone_taskid_%d", n));
  }

  // --- Eq 12-13: task-to-class mapping ---------------------------------------
  vars.map.assign(static_cast<std::size_t>(T), {});
  for (int t = 0; t < T; ++t) {
    LinearExpr sum;
    for (int c = 0; c < C; ++c) {
      Var v = m.addBool(strings::format("map_t%d_c%d", t, c));
      m.varInfo(v).branchPriority = 3;
      if (t == 0) {
        // The main task is pinned to seqPC (Algorithm 1 explores classes by
        // re-running ILPPAR per class).
        auto& info = m.varInfo(v);
        info.lowerBound = info.upperBound = (c == region.seqPC) ? 1.0 : 0.0;
      }
      vars.map[static_cast<std::size_t>(t)].push_back(v);
      sum += LinearExpr(v);
    }
    m.addEq(sum, 1.0, strings::format("task%d_one_class", t));
  }
  auto MAP = [&](int t, int c) { return vars.map[static_cast<std::size_t>(t)][static_cast<std::size_t>(c)]; };

  // --- Task-opened indicators + symmetry break -------------------------------
  vars.used.clear();
  for (int t = 0; t < T; ++t) {
    Var u = m.addBool(strings::format("used_t%d", t));
    m.varInfo(u).branchPriority = 3;
    if (t == 0) {
      auto& info = m.varInfo(u);
      info.lowerBound = 1.0;  // main task always exists
    }
    vars.used.push_back(u);
    for (int n = 0; n < N; ++n)
      m.addGe(LinearExpr(u), LinearExpr(X(n, t)), strings::format("used%d_ge_x%d", t, n));
  }
  for (int t = 1; t + 1 < T; ++t)
    m.addGe(LinearExpr(vars.used[static_cast<std::size_t>(t)]),
            LinearExpr(vars.used[static_cast<std::size_t>(t + 1)]),
            strings::format("used_contiguous_%d", t));

  // --- Eq 3-4: parallel-set choice -------------------------------------------
  vars.p.assign(static_cast<std::size_t>(N), {});
  for (int n = 0; n < N; ++n) {
    const IlpChild& child = region.children[static_cast<std::size_t>(n)];
    require<SolverError>(static_cast<int>(child.byClass.size()) == C,
                              "child candidate table does not cover all classes");
    auto& pn = vars.p[static_cast<std::size_t>(n)];
    pn.assign(static_cast<std::size_t>(C), {});
    LinearExpr sum;
    for (int c = 0; c < C; ++c) {
      require<SolverError>(!child.byClass[static_cast<std::size_t>(c)].empty(),
                                "child lacks a candidate for some class");
      for (std::size_t s = 0; s < child.byClass[static_cast<std::size_t>(c)].size(); ++s) {
        Var v = m.addBool(strings::format("p_n%d_c%d_s%zu", n, c, s));
        m.varInfo(v).branchPriority = 1;
        pn[static_cast<std::size_t>(c)].push_back(v);
        sum += LinearExpr(v);
      }
    }
    m.addEq(sum, 1.0, strings::format("node%d_one_candidate", n));
  }

  // --- Eq 17-18: class consistency --------------------------------------------
  // Equivalent inequality-only linearization of
  //   sum_s p[n][c][s] = sum_t x[n][t] AND map[t][c]:
  // when node n sits in task t, its chosen candidate's class must be t's
  // class: sum_s p[n][c][s] <= map[t][c] + (1 - x[n][t]). Together with
  // "exactly one candidate" (Eq 4) and "exactly one class per task" (Eq 13)
  // this pins the candidate to the hosting task's class without the AND
  // variables (3x fewer rows, no auxiliary binaries).
  for (int n = 0; n < N; ++n) {
    for (int c = 0; c < C; ++c) {
      LinearExpr chosen;
      for (Var pv : vars.p[static_cast<std::size_t>(n)][static_cast<std::size_t>(c)])
        chosen += LinearExpr(pv);
      for (int t = 0; t < T; ++t) {
        if (t == 0) {
          // Task 0's class is the constant seqPC.
          if (c == region.seqPC) continue;  // no restriction when classes agree
          m.addLe(chosen, 1.0 - LinearExpr(X(n, 0)),
                  strings::format("class_consistency_n%d_c%d_t0", n, c));
        } else {
          m.addLe(chosen, LinearExpr(MAP(t, c)) + 1.0 - LinearExpr(X(n, t)),
                  strings::format("class_consistency_n%d_c%d_t%d", n, c, t));
        }
      }
    }
  }

  // --- Candidate time selection ------------------------------------------------
  // sel_n = sum_{c,s} time * p[n][c][s]; a big-M row transfers it into the
  // owning task's cost.
  std::vector<LinearExpr> sel(static_cast<std::size_t>(N));
  std::vector<double> maxTime(static_cast<std::size_t>(N), 0.0);
  for (int n = 0; n < N; ++n) {
    const IlpChild& child = region.children[static_cast<std::size_t>(n)];
    for (int c = 0; c < C; ++c) {
      for (std::size_t s = 0; s < child.byClass[static_cast<std::size_t>(c)].size(); ++s) {
        const double tUs = child.byClass[static_cast<std::size_t>(c)][s].timeSeconds * kScale;
        sel[static_cast<std::size_t>(n)] +=
            LinearExpr::term(tUs, vars.p[static_cast<std::size_t>(n)][static_cast<std::size_t>(c)][s]);
        maxTime[static_cast<std::size_t>(n)] = std::max(maxTime[static_cast<std::size_t>(n)], tUs);
      }
    }
  }

  // --- Eq 8: per-task execution cost -------------------------------------------
  // TCO is charged per *created* task; the main task is the already-running
  // thread and spawns the others, so tasks 1..T-1 pay it.
  const double tcoUs = region.taskCreationSeconds * kScale;
  std::vector<LinearExpr> cost(static_cast<std::size_t>(T));
  for (int t = 1; t < T; ++t)
    cost[static_cast<std::size_t>(t)] +=
        LinearExpr::term(tcoUs, vars.used[static_cast<std::size_t>(t)]);

  std::vector<double> minTime(static_cast<std::size_t>(N), 0.0);
  for (int n = 0; n < N; ++n) {
    const IlpChild& child = region.children[static_cast<std::size_t>(n)];
    double lo = ilp::kInfinity;
    for (int c = 0; c < C; ++c)
      for (const IlpCandidate& cand : child.byClass[static_cast<std::size_t>(c)])
        lo = std::min(lo, cand.timeSeconds * kScale);
    minTime[static_cast<std::size_t>(n)] = std::isfinite(lo) ? lo : 0.0;
  }
  for (int n = 0; n < N; ++n) {
    for (int t = 0; t < T; ++t) {
      Var z = m.addContinuous(0.0, ilp::kInfinity, strings::format("z_n%d_t%d", n, t));
      // z >= sel_n - M * (1 - x[n][t])  with M = max candidate time of n
      const double M = maxTime[static_cast<std::size_t>(n)];
      m.addGe(LinearExpr(z),
              sel[static_cast<std::size_t>(n)] - M + LinearExpr::term(M, X(n, t)),
              strings::format("zload_n%d_t%d", n, t));
      // Strengthening cut: whatever candidate is chosen, node n costs at
      // least its cheapest candidate on whichever task hosts it. This keeps
      // the LP relaxation's bound away from zero (pure big-M rows collapse
      // under fractional x).
      if (minTime[static_cast<std::size_t>(n)] > 0)
        m.addGe(LinearExpr(z),
                LinearExpr::term(minTime[static_cast<std::size_t>(n)], X(n, t)),
                strings::format("zmin_n%d_t%d", n, t));
      cost[static_cast<std::size_t>(t)] += LinearExpr(z);
    }
  }

  // --- Eq 5-7 + communication ----------------------------------------------------
  // pred[t][u] for t < u (monotone ids make backward dependences impossible).
  vars.pred.assign(static_cast<std::size_t>(T), {});
  for (int t = 0; t < T; ++t) {
    for (int u = t + 1; u < T; ++u) {
      Var pr = m.addBool(strings::format("pred_t%d_u%d", t, u));
      vars.pred[static_cast<std::size_t>(t)].push_back(pr);
    }
  }
  auto PRED = [&](int t, int u) {  // t < u
    return vars.pred[static_cast<std::size_t>(t)][static_cast<std::size_t>(u - t - 1)];
  };

  for (std::size_t e = 0; e < region.edges.size(); ++e) {
    const IlpEdgeSpec& edge = region.edges[e];
    const double commUs = edge.commSeconds * kScale;
    if (edge.from >= 0 && edge.to < N) {
      // Real child pair: predecessor relation (Eq 6) plus consumer-side
      // communication charge when cut.
      for (int t = 0; t < T; ++t) {
        for (int u = t + 1; u < T; ++u) {
          m.addGe(LinearExpr(PRED(t, u)),
                  LinearExpr(X(edge.from, t)) + LinearExpr(X(edge.to, u)) - 1.0,
                  strings::format("pred_e%zu_t%d_u%d", e, t, u));
        }
      }
      if (!edge.orderingOnly && commUs > 0) {
        // cut_e >= x[from][t] - x[to][t]  (1 iff endpoints differ)
        Var cut = m.addBool(strings::format("cut_e%zu", e));
        for (int t = 0; t < T; ++t)
          m.addGe(LinearExpr(cut), LinearExpr(X(edge.from, t)) - LinearExpr(X(edge.to, t)),
                  strings::format("cutdef_e%zu_t%d", e, t));
        for (int t = 0; t < T; ++t) {
          Var v = m.addContinuous(0.0, ilp::kInfinity, strings::format("v_e%zu_t%d", e, t));
          // v >= comm * (cut + x[to][t] - 1)
          m.addGe(LinearExpr(v),
                  LinearExpr::term(commUs, cut) + LinearExpr::term(commUs, X(edge.to, t)) -
                      commUs,
                  strings::format("vload_e%zu_t%d", e, t));
          cost[static_cast<std::size_t>(t)] += LinearExpr(v);
        }
      }
    } else if (edge.from < 0 && edge.to < N) {
      // CommIn -> child: payload travels from the main task's context.
      if (!edge.orderingOnly && commUs > 0) {
        for (int t = 1; t < T; ++t) {
          Var v = m.addContinuous(0.0, ilp::kInfinity, strings::format("vin_e%zu_t%d", e, t));
          m.addGe(LinearExpr(v), LinearExpr::term(commUs, X(edge.to, t)),
                  strings::format("vinload_e%zu_t%d", e, t));
          cost[static_cast<std::size_t>(t)] += LinearExpr(v);
        }
      }
    } else if (edge.from >= 0 && edge.to >= N) {
      // Child -> CommOut: producer ships results back to the main context.
      if (!edge.orderingOnly && commUs > 0) {
        for (int t = 1; t < T; ++t) {
          Var v = m.addContinuous(0.0, ilp::kInfinity, strings::format("vout_e%zu_t%d", e, t));
          m.addGe(LinearExpr(v), LinearExpr::term(commUs, X(edge.from, t)),
                  strings::format("voutload_e%zu_t%d", e, t));
          cost[static_cast<std::size_t>(t)] += LinearExpr(v);
        }
      }
    }
  }

  // --- Eq 9: accumulated path costs ------------------------------------------------
  double bigM = 1.0 + static_cast<double>(T) * tcoUs;
  for (int n = 0; n < N; ++n) bigM += maxTime[static_cast<std::size_t>(n)];
  for (const IlpEdgeSpec& edge : region.edges) bigM += std::max(0.0, edge.commSeconds * kScale);

  vars.accum.clear();
  for (int t = 0; t < T; ++t) {
    Var a = m.addContinuous(0.0, ilp::kInfinity, strings::format("accum_t%d", t));
    vars.accum.push_back(a);
  }
  for (int t = 0; t < T; ++t) {
    m.addGe(LinearExpr(vars.accum[static_cast<std::size_t>(t)]), cost[static_cast<std::size_t>(t)],
            strings::format("accum%d_ge_cost", t));
    for (int u = 0; u < t; ++u) {
      // accum_t >= accum_u + cost_t - M * (1 - pred[u][t])
      m.addGe(LinearExpr(vars.accum[static_cast<std::size_t>(t)]),
              LinearExpr(vars.accum[static_cast<std::size_t>(u)]) +
                  cost[static_cast<std::size_t>(t)] - bigM + LinearExpr::term(bigM, PRED(u, t)),
              strings::format("path_u%d_t%d", u, t));
    }
  }

  // --- Eq 14-16: processor budgets ------------------------------------------------
  // procsused[t][c] >= U_{s,c} * (p[n][c'][s] + x[n][t] - 1)
  std::vector<std::vector<Var>> procsused(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    for (int c = 0; c < C; ++c) {
      Var pu = m.addContinuous(0.0, ilp::kInfinity, strings::format("procsused_t%d_c%d", t, c));
      procsused[static_cast<std::size_t>(t)].push_back(pu);
    }
  }
  for (int n = 0; n < N; ++n) {
    const IlpChild& child = region.children[static_cast<std::size_t>(n)];
    for (int cTag = 0; cTag < C; ++cTag) {
      for (std::size_t s = 0; s < child.byClass[static_cast<std::size_t>(cTag)].size(); ++s) {
        const auto& cand = child.byClass[static_cast<std::size_t>(cTag)][s];
        for (int c = 0; c < C && c < static_cast<int>(cand.extraProcs.size()); ++c) {
          const double U = cand.extraProcs[static_cast<std::size_t>(c)];
          if (U <= 0) continue;
          for (int t = 0; t < T; ++t) {
            m.addGe(
                LinearExpr(procsused[static_cast<std::size_t>(t)][static_cast<std::size_t>(c)]),
                LinearExpr::term(U, vars.p[static_cast<std::size_t>(n)][static_cast<std::size_t>(
                                        cTag)][s]) +
                    LinearExpr::term(U, X(n, t)) - U,
                strings::format("procsused_n%d_c%d_s%zu_t%d", n, c, s, t));
          }
        }
      }
    }
  }
  // "mapped-and-used" indicators so empty tasks do not consume budget.
  for (int c = 0; c < C; ++c) {
    LinearExpr allocated;
    if (c == region.seqPC) allocated += 1.0;  // the main task's processor
    for (int t = 1; t < T; ++t) {
      Var mu = m.addAnd(MAP(t, c), vars.used[static_cast<std::size_t>(t)],
                        strings::format("mu_t%d_c%d", t, c));
      allocated += LinearExpr(mu);
    }
    for (int t = 0; t < T; ++t)
      allocated += LinearExpr(procsused[static_cast<std::size_t>(t)][static_cast<std::size_t>(c)]);
    m.addLe(allocated, static_cast<double>(region.numProcsPerClass[static_cast<std::size_t>(c)]),
            strings::format("budget_class%d", c));
  }
  // Algorithm 1's shrinking upper bound i on allocatable processing units.
  {
    LinearExpr total;
    for (int t = 0; t < T; ++t) {
      total += LinearExpr(vars.used[static_cast<std::size_t>(t)]);
      for (int c = 0; c < C; ++c)
        total += LinearExpr(procsused[static_cast<std::size_t>(t)][static_cast<std::size_t>(c)]);
    }
    m.addLe(total, static_cast<double>(region.maxProcs), "budget_total");
  }

  // --- Eq 11: objective --------------------------------------------------------------
  vars.exectime = m.addContinuous(
      0.0,
      region.upperBoundSeconds > 0 ? region.upperBoundSeconds * kScale * (1.0 + 1e-9)
                                   : ilp::kInfinity,
      "exectime");
  for (int t = 0; t < T; ++t)
    m.addGe(LinearExpr(vars.exectime), LinearExpr(vars.accum[static_cast<std::size_t>(t)]),
            strings::format("exectime_ge_accum%d", t));
  // Strengthening cut: the makespan is at least the average task load;
  // combined with the zmin cuts this gives the relaxation a work-based
  // lower bound (total-min-work / T).
  {
    LinearExpr totalCost;
    for (int t = 0; t < T; ++t) totalCost += cost[static_cast<std::size_t>(t)];
    m.addGe(LinearExpr::term(static_cast<double>(T), vars.exectime), totalCost,
            "exectime_ge_average_load");
  }
  // A vanishing penalty on opened tasks closes tasks that would otherwise
  // stay open with no work (they would leak processor budget).
  LinearExpr objective = LinearExpr(vars.exectime);
  for (int t = 1; t < T; ++t)
    objective += LinearExpr::term(1e-4, vars.used[static_cast<std::size_t>(t)]);
  m.setObjective(objective, Sense::Minimize);
  return m;
}

ChunkResult solveChunkIlp(const ChunkRegion& region, ilp::BranchAndBoundSolver& solver) {
  const int C = static_cast<int>(region.numProcsPerClass.size());
  const int T = std::max(1, region.maxTasks);
  const double ITER = static_cast<double>(region.iterations);
  require<SolverError>(region.iterations > 0, "chunk region without iterations");
  require<SolverError>(static_cast<int>(region.secondsPerIter.size()) == C,
                       "per-class iteration times missing");

  Model m("chunkilp_" + region.name);

  // cnt_t: iterations executed by task t (integer -> single-iteration
  // balancing granularity).
  std::vector<Var> cnt;
  {
    LinearExpr total;
    for (int t = 0; t < T; ++t) {
      cnt.push_back(m.addVar(ilp::VarType::Integer, 0.0, ITER,
                             strings::format("cnt_t%d", t)));
      m.varInfo(cnt.back()).branchPriority = 2;
      total += LinearExpr(cnt.back());
    }
    m.addEq(total, ITER, "all_iterations_covered");
  }

  // map/used as in the general model (Eq 12-13).
  std::vector<std::vector<Var>> map(static_cast<std::size_t>(T));
  std::vector<Var> used;
  for (int t = 0; t < T; ++t) {
    LinearExpr sum;
    for (int c = 0; c < C; ++c) {
      Var v = m.addBool(strings::format("map_t%d_c%d", t, c));
      m.varInfo(v).branchPriority = 3;
      if (t == 0) {
        auto& info = m.varInfo(v);
        info.lowerBound = info.upperBound = (c == region.seqPC) ? 1.0 : 0.0;
      }
      map[static_cast<std::size_t>(t)].push_back(v);
      sum += LinearExpr(v);
    }
    m.addEq(sum, 1.0, strings::format("task%d_one_class", t));
    Var u = m.addBool(strings::format("used_t%d", t));
    m.varInfo(u).branchPriority = 3;
    if (t == 0) m.varInfo(u).lowerBound = 1.0;
    used.push_back(u);
    // A task only executes iterations if it is open.
    m.addLe(LinearExpr(cnt[static_cast<std::size_t>(t)]), LinearExpr::term(ITER, u),
            strings::format("cnt%d_needs_used", t));
  }
  for (int t = 1; t + 1 < T; ++t)
    m.addGe(LinearExpr(used[static_cast<std::size_t>(t)]),
            LinearExpr(used[static_cast<std::size_t>(t + 1)]),
            strings::format("used_contiguous_%d", t));

  // Per-task cost: w_{t,c} >= perIter_c * cnt_t - M(1 - map_{t,c}).
  double maxPerIter = 0.0;
  for (double s : region.secondsPerIter) maxPerIter = std::max(maxPerIter, s);
  const double bigM = maxPerIter * ITER * kScale + 1.0;

  Var exectime = m.addContinuous(
      0.0,
      region.upperBoundSeconds > 0 ? region.upperBoundSeconds * kScale * (1.0 + 1e-9)
                                   : ilp::kInfinity,
      "exectime");
  for (int t = 0; t < T; ++t) {
    LinearExpr cost;
    const double tcoUs = region.taskCreationSeconds * kScale;
    if (t > 0) {
      double latency = region.commInLatency + region.commOutLatency;
      cost += LinearExpr::term(tcoUs + latency * kScale, used[static_cast<std::size_t>(t)]);
      const double slope =
          (region.commInSecondsPerIter + region.commOutSecondsPerIter) * kScale;
      if (slope > 0) cost += LinearExpr::term(slope, cnt[static_cast<std::size_t>(t)]);
    }
    if (t == 0) {
      // Main task's class is pinned: no linearization needed.
      cost += LinearExpr::term(region.secondsPerIter[static_cast<std::size_t>(region.seqPC)] *
                                   kScale,
                               cnt[0]);
    } else {
      Var w = m.addContinuous(0.0, ilp::kInfinity, strings::format("w_t%d", t));
      for (int c = 0; c < C; ++c) {
        const double perIterUs = region.secondsPerIter[static_cast<std::size_t>(c)] * kScale;
        // w >= perIter_c * cnt_t - M * (1 - map_{t,c})
        m.addGe(LinearExpr(w),
                LinearExpr::term(perIterUs, cnt[static_cast<std::size_t>(t)]) - bigM +
                    LinearExpr::term(bigM, map[static_cast<std::size_t>(t)][static_cast<std::size_t>(c)]),
                strings::format("wload_t%d_c%d", t, c));
      }
      // Strengthening: whatever the class, an iteration costs at least the
      // fastest class's time.
      double minPerIter = ilp::kInfinity;
      for (double s : region.secondsPerIter) minPerIter = std::min(minPerIter, s);
      m.addGe(LinearExpr(w),
              LinearExpr::term(minPerIter * kScale, cnt[static_cast<std::size_t>(t)]),
              strings::format("wmin_t%d", t));
      cost += LinearExpr(w);
    }
    m.addGe(LinearExpr(exectime), cost, strings::format("exectime_ge_cost%d", t));
  }

  // Eq 16: per-class budgets over opened tasks (chunks have no nested
  // solutions, so procsused terms vanish).
  for (int c = 0; c < C; ++c) {
    LinearExpr allocated;
    if (c == region.seqPC) allocated += 1.0;
    for (int t = 1; t < T; ++t) {
      Var mu = m.addAnd(map[static_cast<std::size_t>(t)][static_cast<std::size_t>(c)],
                        used[static_cast<std::size_t>(t)], strings::format("mu_t%d_c%d", t, c));
      allocated += LinearExpr(mu);
    }
    m.addLe(allocated, static_cast<double>(region.numProcsPerClass[static_cast<std::size_t>(c)]),
            strings::format("budget_class%d", c));
  }
  {
    LinearExpr total;
    for (int t = 0; t < T; ++t) total += LinearExpr(used[static_cast<std::size_t>(t)]);
    m.addLe(total, static_cast<double>(region.maxProcs), "budget_total");
  }

  LinearExpr objective = LinearExpr(exectime);
  for (int t = 1; t < T; ++t) objective += LinearExpr::term(1e-4, used[static_cast<std::size_t>(t)]);
  m.setObjective(objective, Sense::Minimize);

  const ilp::Solution sol = solver.solve(m);
  ChunkResult result;
  result.stats = solver.lastStats();
  if (!sol.hasValues()) return result;
  result.feasible = true;
  result.provenOptimal = sol.status == ilp::SolveStatus::Optimal;
  result.timeSeconds = sol.value(exectime) / kScale;

  int usedTasks = 0;
  for (int t = 0; t < T; ++t)
    if (sol.boolean(used[static_cast<std::size_t>(t)])) usedTasks = t + 1;
  usedTasks = std::max(usedTasks, 1);
  result.taskClass.assign(static_cast<std::size_t>(usedTasks), region.seqPC);
  result.taskIterations.assign(static_cast<std::size_t>(usedTasks), 0.0);
  for (int t = 0; t < usedTasks; ++t) {
    for (int c = 0; c < C; ++c)
      if (sol.boolean(map[static_cast<std::size_t>(t)][static_cast<std::size_t>(c)]))
        result.taskClass[static_cast<std::size_t>(t)] = c;
    result.taskIterations[static_cast<std::size_t>(t)] =
        static_cast<double>(sol.integral(cnt[static_cast<std::size_t>(t)]));
  }
  return result;
}

IlpParResult solveIlpPar(const IlpRegion& region, ilp::BranchAndBoundSolver& solver) {
  IlpParVars vars;
  const Model model = buildIlpParModel(region, vars);
  const ilp::Solution sol = solver.solve(model);

  IlpParResult result;
  result.stats = solver.lastStats();
  if (!sol.hasValues()) return result;
  result.feasible = true;
  result.provenOptimal = sol.status == ilp::SolveStatus::Optimal;
  result.timeSeconds = sol.value(vars.exectime) / kScale;

  const int N = static_cast<int>(region.children.size());
  const int T = vars.numTasks;
  const int C = static_cast<int>(region.numProcsPerClass.size());

  // Used tasks are contiguous (symmetry break), so the task count is the
  // number of used indicators set.
  int usedTasks = 0;
  for (int t = 0; t < T; ++t)
    if (sol.boolean(vars.used[static_cast<std::size_t>(t)])) usedTasks = t + 1;
  usedTasks = std::max(usedTasks, 1);

  result.taskClass.resize(static_cast<std::size_t>(usedTasks), region.seqPC);
  for (int t = 0; t < usedTasks; ++t)
    for (int c = 0; c < C; ++c)
      if (sol.boolean(vars.map[static_cast<std::size_t>(t)][static_cast<std::size_t>(c)]))
        result.taskClass[static_cast<std::size_t>(t)] = c;

  result.childTask.resize(static_cast<std::size_t>(N), 0);
  result.childChoice.resize(static_cast<std::size_t>(N), {0, 0});
  for (int n = 0; n < N; ++n) {
    for (int t = 0; t < T; ++t)
      if (sol.boolean(vars.x[static_cast<std::size_t>(n)][static_cast<std::size_t>(t)]))
        result.childTask[static_cast<std::size_t>(n)] = t;
    bool found = false;
    for (int c = 0; c < C && !found; ++c) {
      const auto& pc = vars.p[static_cast<std::size_t>(n)][static_cast<std::size_t>(c)];
      for (std::size_t s = 0; s < pc.size() && !found; ++s) {
        if (sol.boolean(pc[s])) {
          result.childChoice[static_cast<std::size_t>(n)] = {c, static_cast<int>(s)};
          found = true;
        }
      }
    }
    HETPAR_CHECK_MSG(found, "ILPPAR solution chose no candidate for a child");
  }
  return result;
}

}  // namespace hetpar::parallel
