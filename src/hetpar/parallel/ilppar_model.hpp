// The ILPPAR partitioning-and-mapping model (paper Section IV, Eq 1-18).
//
// One invocation parallelizes one hierarchical node: it maps the node's
// children onto newly extracted tasks (Eq 1-2), chooses one parallel
// solution candidate per child from the parallel sets collected deeper in
// the hierarchy (Eq 3-4), tracks predecessor relations induced by data flow
// (Eq 5-7), accumulates class-dependent execution plus communication plus
// task-creation costs along critical paths (Eq 8-9), keeps the task graph
// cycle-free via monotone task ids over the topological child order
// (Eq 10), maps every task to a processor class (Eq 12-13), respects the
// per-class processor budgets including processors consumed by nested
// solutions (Eq 14-16), and forces the chosen child candidates' classes to
// agree with their tasks' classes (Eq 17-18). The objective minimizes the
// node's completion time (Eq 11).
//
// Linearization notes (documented deviations, see DESIGN.md): conjunctions
// that only need a lower bound (pred, procsused, comm charges) use the
// `z >= a + b - 1` half of Eq 7 directly instead of materializing an AND
// variable; class-consistency (Eq 17-18) uses an equivalent inequality-only
// form (`sum_s p <= map + 1 - x`). Communication is charged to the receiving
// task (inter-task and comm-in edges) or the producing task (comm-out edges)
// rather than tracked as a separate `commcost_u` term — the path sums are
// identical.
#pragma once

#include <string>
#include <vector>

#include "hetpar/ilp/branch_and_bound.hpp"
#include "hetpar/ilp/model.hpp"
#include "hetpar/parallel/solution.hpp"

namespace hetpar::parallel {

/// One candidate a child offers the ILP, tagged with its main class.
struct IlpCandidate {
  double timeSeconds = 0.0;    ///< contribution per execution of the parent
  std::vector<int> extraProcs; ///< per class, beyond the candidate's main proc
  SolutionRef ref;             ///< original candidate (invalid for loop chunks)
};

/// One child of the node being parallelized.
struct IlpChild {
  /// byClass[c] = candidates whose main task runs on class c. Every class
  /// must offer at least one candidate (the sequential one).
  std::vector<std::vector<IlpCandidate>> byClass;
  std::string label;
};

/// Edge among children; endpoints use child indices, with -1 for the
/// Communication-In node and numChildren for the Communication-Out node.
struct IlpEdgeSpec {
  int from = -1;
  int to = -1;
  double commSeconds = 0.0;  ///< cost if cut, already iteration-scaled
  bool orderingOnly = false; ///< anti/output dependences: order, no payload
};

/// Full problem instance for one ILPPAR call.
struct IlpRegion {
  std::string name;
  std::vector<IlpChild> children;
  std::vector<IlpEdgeSpec> edges;
  ClassId seqPC = 0;        ///< class pinned to the main task (Algorithm 1)
  int maxProcs = 1;         ///< allocatable processing units (Algorithm 1's i)
  int maxTasks = 1;         ///< tasks the model may open (<= maxProcs)
  double taskCreationSeconds = 0.0;     ///< TCO
  std::vector<int> numProcsPerClass;    ///< NUMPROCS_c
  /// Known-achievable execution time (e.g. the sequential candidate);
  /// encoded as `exectime <= bound` so branch-and-bound prunes by
  /// infeasibility. 0 disables the bound.
  double upperBoundSeconds = 0.0;
};

/// Decoded ILPPAR solution.
struct IlpParResult {
  bool feasible = false;
  bool provenOptimal = false;
  double timeSeconds = 0.0;
  std::vector<int> childTask;                    ///< per child
  std::vector<ClassId> taskClass;                ///< per used task, [0]=main
  std::vector<std::pair<ClassId, int>> childChoice;  ///< (class, index in byClass[class])
  ilp::SolveStats stats;
};

/// Variable handles, exposed for white-box tests and ablations.
struct IlpParVars {
  std::vector<std::vector<ilp::Var>> x;     ///< x[n][t] (Eq 1)
  std::vector<std::vector<ilp::Var>> map;   ///< map[t][c] (Eq 12)
  std::vector<std::vector<std::vector<ilp::Var>>> p;  ///< p[n][c][s] (Eq 3)
  std::vector<ilp::Var> used;               ///< task-opened indicators
  std::vector<std::vector<ilp::Var>> pred;  ///< pred[t][u], t<u (Eq 5)
  std::vector<ilp::Var> accum;              ///< accumcost_t (Eq 9)
  ilp::Var exectime;                        ///< objective (Eq 11)
  int numTasks = 0;
};

/// Builds the MILP for `region`. `vars` receives the variable handles.
ilp::Model buildIlpParModel(const IlpRegion& region, IlpParVars& vars);

/// Builds and solves; decodes the assignment into an IlpParResult.
IlpParResult solveIlpPar(const IlpRegion& region, ilp::BranchAndBoundSolver& solver);

// ---------------------------------------------------------------------------
// DOALL loop splitting at iteration granularity.
//
// For a DOALL loop the children presented to the ILP are iterations, which
// are identical and independent; materializing one binary per iteration
// would drown the solver in a symmetric partitioning problem. The
// iteration-count model keeps the same decisions (how many tasks, which
// class each maps to, how much work each receives, Eq 12-16 budgets) with an
// integer iteration count per task instead of per-chunk binaries.
// ---------------------------------------------------------------------------

struct ChunkRegion {
  std::string name;
  long long iterations = 0;             ///< total loop iterations per node execution
  std::vector<double> secondsPerIter;   ///< sequential body+control time, per class
  /// Inbound/outbound payload per iteration share, split into the bus's
  /// fixed latency (paid once per task) and bandwidth slope (per iteration).
  double commInLatency = 0.0;
  double commInSecondsPerIter = 0.0;
  double commOutLatency = 0.0;
  double commOutSecondsPerIter = 0.0;
  ClassId seqPC = 0;
  int maxProcs = 1;
  int maxTasks = 1;
  double taskCreationSeconds = 0.0;
  std::vector<int> numProcsPerClass;
  /// Same pruning bound as IlpRegion::upperBoundSeconds.
  double upperBoundSeconds = 0.0;
};

struct ChunkResult {
  bool feasible = false;
  bool provenOptimal = false;
  double timeSeconds = 0.0;
  std::vector<ClassId> taskClass;       ///< per used task, [0] = main (seqPC)
  std::vector<double> taskIterations;   ///< iterations per used task
  ilp::SolveStats stats;
};

ChunkResult solveChunkIlp(const ChunkRegion& region, ilp::BranchAndBoundSolver& solver);

}  // namespace hetpar::parallel
