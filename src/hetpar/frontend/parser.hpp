// Recursive-descent parser for mini-C.
#pragma once

#include <string_view>

#include "hetpar/frontend/ast.hpp"

namespace hetpar::frontend {

/// Deepest syntax-tree nesting parseProgram accepts. Each statement, each
/// expression (a parenthesized one included), each prefix operator and each
/// operator of a binary chain is one level, counted from the function body.
/// Every pass after the parser recurses over the tree, so the cap bounds
/// their stack use too.
constexpr int kMaxNestingDepth = 256;

/// Parses a translation unit. Throws hetpar::ParseError with line/column
/// information on syntax errors and on nesting deeper than
/// kMaxNestingDepth. The returned Program has not been through sema yet
/// (statement ids are unassigned).
Program parseProgram(std::string_view source);

/// Deep copy of an expression tree (used for desugaring compound
/// assignments and by analyses that rewrite expressions).
ExprPtr cloneExpr(const Expr& e);

}  // namespace hetpar::frontend
