// Semantic analysis for mini-C.
//
// Resolves names, checks light type/shape rules, rejects recursion (the HTG
// inlines call costs, so the call graph must be a DAG), and assigns every
// statement a unique id (the parallelizer, cost model, and codegen all key
// on statement ids). Finally it binds every name to its slot and every call
// to its callee on the AST (frontend::Binding), which is all the profiling
// interpreter needs to run on flat frames.
#pragma once

#include <map>
#include <string>

#include "hetpar/frontend/ast.hpp"

namespace hetpar::frontend {

/// Storage limits on array declarations, in elements. The profiling
/// interpreter allocates every array a program declares (8 bytes per
/// element), so sema turns a hostile size into a located SemaError rather
/// than a failed allocation. The largest suite array (spectral's
/// double[128][256]) has 32,768 elements. Array parameters alias their
/// argument and count toward neither limit.
inline constexpr long long kMaxArrayElements = 1LL << 22;  ///< one array
inline constexpr long long kMaxTotalArrayElements = 1LL << 24;  ///< all arrays declared

/// Per-function view of every name visible inside it (globals + params +
/// locals). Sema enforces that names are unique within a function across
/// nested scopes, so a flat map is sufficient for all later analyses.
using SymbolTable = std::map<std::string, Type>;

struct SemaResult {
  int numStatements = 0;  ///< ids are 0..numStatements-1, assigned pre-order
  int numCallSites = 0;   ///< calls to user functions, numbered by CallExpr::site
  SymbolTable globals;
  std::map<const Function*, SymbolTable> functionScopes;
  /// Functions in reverse-topological call order (callees before callers);
  /// the cost model profiles in this order.
  std::vector<const Function*> bottomUpOrder;

  /// Type of `name` as seen from `fn` (falls back to globals).
  const Type* lookup(const Function* fn, const std::string& name) const;
};

/// Analyzes `program` in place (renames locals, assigns statement ids,
/// binds names and calls). Throws hetpar::SemaError on any violation.
SemaResult analyze(Program& program);

}  // namespace hetpar::frontend
