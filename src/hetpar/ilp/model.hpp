// Mixed-integer linear programming model builder.
//
// The parallelizer (hetpar/parallel) emits its partitioning-and-mapping
// problem (paper Section IV, Eq 1-18) as a `Model`, which
// ilp::BranchAndBoundSolver solves. The paper's tool hands the same kind of
// model to lp_solve or CPLEX.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "hetpar/ilp/expr.hpp"

namespace hetpar::ilp {

enum class VarType { Continuous, Integer, Binary };

enum class Relation { LessEqual, GreaterEqual, Equal };

enum class Sense { Minimize, Maximize };

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// One linear constraint: `expr (<=|>=|=) 0` after normalization; we store
/// the variable part and the right-hand side separately.
struct Constraint {
  LinearExpr lhs;     ///< variable terms only (constant folded into rhs)
  Relation relation;  ///< lhs `relation` rhs
  double rhs;
  std::string name;
};

struct VarInfo {
  std::string name;
  VarType type = VarType::Continuous;
  double lowerBound = 0.0;
  double upperBound = kInfinity;
  /// Branch-and-bound picks fractional variables of the highest priority
  /// first (structural decisions before derived indicators).
  int branchPriority = 0;
};

/// A solved assignment. `values[i]` is the value of variable index `i`.
enum class SolveStatus { Optimal, Feasible, Infeasible, Unbounded, IterationLimit, Error };

struct Solution {
  SolveStatus status = SolveStatus::Error;
  double objective = 0.0;
  std::vector<double> values;

  bool hasValues() const {
    return status == SolveStatus::Optimal || status == SolveStatus::Feasible;
  }
  double value(Var v) const { return values.at(static_cast<std::size_t>(v.index())); }
  /// Rounds a binary/integer variable's value to the nearest integer.
  long long integral(Var v) const;
  bool boolean(Var v) const { return integral(v) != 0; }
};

/// MILP model: variables with bounds/types, constraints, one objective.
class Model {
 public:
  explicit Model(std::string name = "model") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // --- Variables -----------------------------------------------------------
  Var addVar(VarType type, double lb, double ub, std::string name);
  Var addBool(std::string name) { return addVar(VarType::Binary, 0.0, 1.0, std::move(name)); }
  Var addContinuous(double lb, double ub, std::string name) {
    return addVar(VarType::Continuous, lb, ub, std::move(name));
  }

  /// Adds variable z with constraints enforcing z = x AND y for binary x, y
  /// (paper Eq 7: z >= x + y - 1, z <= x, z <= y).
  Var addAnd(Var x, Var y, std::string name);

  std::size_t numVars() const { return vars_.size(); }
  const VarInfo& varInfo(Var v) const { return vars_.at(static_cast<std::size_t>(v.index())); }
  VarInfo& varInfo(Var v) { return vars_.at(static_cast<std::size_t>(v.index())); }
  const std::vector<VarInfo>& vars() const { return vars_; }

  // --- Constraints ---------------------------------------------------------
  /// Adds `lhs relation rhs`; any constant in `lhs`/`rhs` expressions is
  /// folded so the stored constraint has variables on the left only.
  void addConstraint(const LinearExpr& lhs, Relation relation, const LinearExpr& rhs,
                     std::string name = {});
  void addLe(const LinearExpr& lhs, const LinearExpr& rhs, std::string name = {}) {
    addConstraint(lhs, Relation::LessEqual, rhs, std::move(name));
  }
  void addGe(const LinearExpr& lhs, const LinearExpr& rhs, std::string name = {}) {
    addConstraint(lhs, Relation::GreaterEqual, rhs, std::move(name));
  }
  void addEq(const LinearExpr& lhs, const LinearExpr& rhs, std::string name = {}) {
    addConstraint(lhs, Relation::Equal, rhs, std::move(name));
  }

  std::size_t numConstraints() const { return constraints_.size(); }
  const std::vector<Constraint>& constraints() const { return constraints_; }

  std::size_t numIntegerVars() const;

  // --- Objective -----------------------------------------------------------
  void setObjective(const LinearExpr& objective, Sense sense);
  const LinearExpr& objective() const { return objective_; }
  Sense sense() const { return sense_; }

  /// Checks a candidate assignment against all constraints/bounds/integrality
  /// within `tol`; used by tests and by the branch-and-bound solver's own
  /// paranoia checks.
  bool isFeasible(const std::vector<double>& values, double tol = 1e-6) const;

  /// Objective value of an assignment.
  double evalObjective(const std::vector<double>& values) const;

  /// LP-format-like textual dump for debugging.
  std::string str() const;

 private:
  std::string name_;
  std::vector<VarInfo> vars_;
  std::vector<Constraint> constraints_;
  LinearExpr objective_;
  Sense sense_ = Sense::Minimize;
};

/// Solver knobs. Defaults suit the parallelizer's many small ILPs.
struct SolveOptions {
  long long maxNodes = 2'000'000;  ///< branch-and-bound node cap: the only early stop
};

/// Per-solve statistics (feeds the paper's Table I).
struct SolveStats {
  std::size_t numVars = 0;
  std::size_t numConstraints = 0;
  std::size_t numIntegerVars = 0;
  long long nodesExplored = 0;
  long long simplexIterations = 0;
  double wallSeconds = 0.0;
  /// The search ended without proving optimality: it stopped on
  /// `SolveOptions::maxNodes`, or dropped a fully-fixed node the LP engine
  /// gave up on (the result is the best incumbent, if any).
  bool unproven = false;
  /// LP-engine behavior (see FactorStats): basis factorizations, eta-file
  /// pivot updates between them, and the peak factor fill seen.
  long long refactorizations = 0;
  long long etaUpdates = 0;
  long long peakFillNonzeros = 0;
};

}  // namespace hetpar::ilp
