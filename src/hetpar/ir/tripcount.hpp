// Static trip-count analysis for canonical counted loops.
//
// The interpreter-based profiler provides exact execution counts; this
// static analysis is the fallback for code paths that profiling did not
// reach and is used for HTG iteration-count annotations (paper: leaves are
// "annotated with iteration counts").
#pragma once

#include <map>
#include <optional>
#include <string>

#include "hetpar/frontend/ast.hpp"

namespace hetpar::ir {

/// Induction variable, start value and nonzero step of a canonical loop
/// `for (var = start; ...; var = var +/- c)`.
struct CanonicalLoop {
  std::string var;
  long long start = 0;
  long long step = 0;
};

/// Matches the loop's init and step against the canonical shape, folding
/// constants through `env` (may be null); nullopt when either does not match
/// or the step is zero. The one matcher behind staticTripCount and
/// ir::ivRangeOf.
std::optional<CanonicalLoop> matchCanonicalLoop(const frontend::ForStmt& loop,
                                                const std::map<std::string, long long>* env);

/// Trip count of `for (i = c0; i REL c1; i = i +/- c2) ...` with integer
/// literal constants; nullopt when the loop is not in that canonical shape.
/// The `env` overload also folds variables the constant-propagation client
/// proved constant at the loop head (ir/dataflow.hpp), so
/// symbolic-looking-but-constant bounds stop degrading to "unknown".
std::optional<long long> staticTripCount(const frontend::ForStmt& loop);
std::optional<long long> staticTripCount(const frontend::ForStmt& loop,
                                         const std::map<std::string, long long>* env);

/// `l op r` in mini-C's 64-bit integer arithmetic, for + - * / % only
/// (nullopt for any other operator). + - * wrap in two's complement; a zero
/// divisor and LLONG_MIN / -1 (or % -1), which trap on the host, yield
/// nullopt, so a constant folder declines them instead of crashing.
std::optional<long long> foldIntArith(frontend::BinaryOp op, long long l, long long r);

/// Evaluates an integer-constant expression (literals and + - * / % of
/// them); nullopt if the expression involves variables or floats. The `env`
/// overload resolves variable references through the given constant map.
std::optional<long long> evalConstInt(const frontend::Expr& expr);
std::optional<long long> evalConstInt(const frontend::Expr& expr,
                                      const std::map<std::string, long long>* env);

}  // namespace hetpar::ir
