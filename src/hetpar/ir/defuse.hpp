// Statement-level def/use analysis.
//
// hetpar's data-flow edges (paper Section III-A) operate at variable
// granularity: an array is one object whose whole byte size is the
// communication payload when a data-flow edge is cut. Each statement gets
// the set of variables it defines and uses; hierarchical statements
// aggregate their headers and bodies. Calls are resolved through per-callee
// side-effect summaries (the call graph is acyclic by sema).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "hetpar/frontend/ast.hpp"
#include "hetpar/frontend/sema.hpp"

namespace hetpar::ir {

struct DefUse {
  std::set<std::string> defs;
  std::set<std::string> uses;
};

/// Side effects of calling a function, summarized over its whole body.
struct FunctionEffects {
  std::vector<bool> paramRead;     ///< by parameter position
  std::vector<bool> paramWritten;  ///< by parameter position (arrays only)
  std::set<std::string> globalsRead;
  std::set<std::string> globalsWritten;
};

class DefUseAnalysis {
 public:
  /// `program` must have been through sema (`analyze`).
  DefUseAnalysis(const frontend::Program& program, const frontend::SemaResult& sema);

  /// Aggregated def/use of `stmt` including its header expressions and all
  /// statements nested below it.
  const DefUse& of(const frontend::Stmt& stmt) const;

  const FunctionEffects& effects(const frontend::Function& fn) const;

  /// Byte size of variable `name` in the scope of `fn` (0 if unknown).
  long long byteSizeOf(const frontend::Function* fn, const std::string& name) const;

 private:
  DefUse analyzeStmt(const frontend::Stmt& stmt, const frontend::Function* fn);
  void collectExprUses(const frontend::Expr& expr, const frontend::Function* fn, DefUse& du);
  FunctionEffects computeEffects(const frontend::Function& fn);

  const frontend::Program& program_;
  const frontend::SemaResult& sema_;
  std::map<const frontend::Stmt*, DefUse> perStmt_;
  std::map<const frontend::Function*, FunctionEffects> effects_;
};

}  // namespace hetpar::ir
