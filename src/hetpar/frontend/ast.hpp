// Abstract syntax tree for "mini-C", the ANSI-C subset hetpar parallelizes.
//
// The subset covers what the UTDSP-style benchmarks need: int/float/double
// scalars and fixed-size 1-D/2-D arrays, functions, assignments, `if`,
// `for`, `while`, `return`, calls, and the usual arithmetic/logic operators.
// The paper's parallelizer operates on *statements* (each HTG node
// represents one statement), so statements carry unique ids assigned by
// sema; hierarchical statements (loops, ifs, blocks) own their children,
// mirroring the hierarchy the HTG will adopt. Sema also binds every name to
// its one storage slot and every call to its callee, so the profiling
// interpreter never looks a name up.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace hetpar::frontend {

struct SourceLoc {
  int line = 0;
  int column = 0;
};

// --- Types ------------------------------------------------------------------

enum class ScalarType { Int, Float, Double, Void };

/// A mini-C type: a scalar, or a fixed-size 1-D/2-D array of scalars.
struct Type {
  ScalarType scalar = ScalarType::Int;
  std::vector<int> dims;  ///< empty for scalars; {n} or {n, m} for arrays

  bool isArray() const { return !dims.empty(); }
  bool isVoid() const { return scalar == ScalarType::Void && dims.empty(); }

  /// Number of scalar elements (1 for scalars).
  long long elementCount() const;

  /// Size of one scalar element in bytes (int/float: 4, double: 8).
  int elementBytes() const;

  /// Total storage in bytes; the HTG uses this as data-flow edge payload.
  long long byteSize() const { return elementCount() * elementBytes(); }

  std::string str() const;

  friend bool operator==(const Type& a, const Type& b) {
    return a.scalar == b.scalar && a.dims == b.dims;
  }
};

/// Where a name lives, as bound by sema: a global's index in
/// Program::globals, or a local's index in its function's call frame
/// (parameters first). Sema alpha-renames locals apart from each other and
/// from every global, so each name has exactly one binding.
struct Binding {
  bool global = false;
  int index = -1;  ///< -1 until sema binds the name
};

// --- Expressions --------------------------------------------------------------

enum class ExprKind { IntLit, FloatLit, VarRef, Index, Unary, Binary, Call };

struct Expr {
  explicit Expr(ExprKind k) : kind(k) {}
  virtual ~Expr() = default;
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;

  ExprKind kind;
  SourceLoc loc;
};

using ExprPtr = std::unique_ptr<Expr>;

struct IntLit final : Expr {
  explicit IntLit(long long v) : Expr(ExprKind::IntLit), value(v) {}
  long long value;
};

struct FloatLit final : Expr {
  explicit FloatLit(double v) : Expr(ExprKind::FloatLit), value(v) {}
  double value;
};

struct VarRef final : Expr {
  explicit VarRef(std::string n) : Expr(ExprKind::VarRef), name(std::move(n)) {}
  std::string name;
  Binding binding;
};

/// Array access `name[i]` or `name[i][j]`.
struct IndexExpr final : Expr {
  IndexExpr(std::string n, std::vector<ExprPtr> idx)
      : Expr(ExprKind::Index), name(std::move(n)), indices(std::move(idx)) {}
  std::string name;
  Binding binding;
  std::vector<ExprPtr> indices;
};

enum class UnaryOp { Neg, Not };

struct UnaryExpr final : Expr {
  UnaryExpr(UnaryOp o, ExprPtr e) : Expr(ExprKind::Unary), op(o), operand(std::move(e)) {}
  UnaryOp op;
  ExprPtr operand;
};

enum class BinaryOp { Add, Sub, Mul, Div, Mod, Lt, Le, Gt, Ge, Eq, Ne, And, Or };

struct BinaryExpr final : Expr {
  BinaryExpr(BinaryOp o, ExprPtr l, ExprPtr r)
      : Expr(ExprKind::Binary), op(o), lhs(std::move(l)), rhs(std::move(r)) {}
  BinaryOp op;
  ExprPtr lhs;
  ExprPtr rhs;
};

/// The math builtins, evaluated by the interpreter directly.
enum class Builtin { None, Sqrt, Fabs, Sin, Cos, Exp, Log, Abs };

/// The builtin called `name`, or Builtin::None.
Builtin builtinFunction(const std::string& name);

struct Function;

/// Call to a user function or a math builtin (sqrt, fabs, sin, cos, exp, log).
struct CallExpr final : Expr {
  CallExpr(std::string c, std::vector<ExprPtr> a)
      : Expr(ExprKind::Call), callee(std::move(c)), args(std::move(a)) {}
  std::string callee;
  std::vector<ExprPtr> args;
  /// Resolved by sema: the builtin, or else the user function and this
  /// call's site number (0..SemaResult::numCallSites-1).
  Builtin builtin = Builtin::None;
  const Function* function = nullptr;
  int site = -1;
};

// --- Statements ----------------------------------------------------------------

enum class StmtKind { Decl, Assign, If, For, While, Return, Expr, Block };

struct Stmt {
  explicit Stmt(StmtKind k) : kind(k) {}
  virtual ~Stmt() = default;
  Stmt(const Stmt&) = delete;
  Stmt& operator=(const Stmt&) = delete;

  StmtKind kind;
  SourceLoc loc;
  /// Unique per Program, assigned by sema::analyze; -1 before that.
  int id = -1;
};

using StmtPtr = std::unique_ptr<Stmt>;

struct DeclStmt final : Stmt {
  DeclStmt(Type t, std::string n, ExprPtr i)
      : Stmt(StmtKind::Decl), type(std::move(t)), name(std::move(n)), init(std::move(i)) {}
  Type type;
  std::string name;
  Binding binding;
  ExprPtr init;  ///< may be null
};

/// `target = value`, `target[i] = value`, or `target[i][j] = value`.
struct AssignStmt final : Stmt {
  AssignStmt(std::string t, std::vector<ExprPtr> idx, ExprPtr v)
      : Stmt(StmtKind::Assign), target(std::move(t)), indices(std::move(idx)),
        value(std::move(v)) {}
  std::string target;
  Binding binding;
  std::vector<ExprPtr> indices;  ///< empty for scalar targets
  ExprPtr value;
};

struct IfStmt final : Stmt {
  IfStmt() : Stmt(StmtKind::If) {}
  ExprPtr cond;
  std::vector<StmtPtr> thenBody;
  std::vector<StmtPtr> elseBody;
};

/// Canonical counted loop `for (init; cond; step) body`.
struct ForStmt final : Stmt {
  ForStmt() : Stmt(StmtKind::For) {}
  StmtPtr init;  ///< AssignStmt or DeclStmt; may be null
  ExprPtr cond;  ///< may be null (infinite loops are rejected by sema)
  StmtPtr step;  ///< AssignStmt; may be null
  std::vector<StmtPtr> body;
};

struct WhileStmt final : Stmt {
  WhileStmt() : Stmt(StmtKind::While) {}
  ExprPtr cond;
  std::vector<StmtPtr> body;
};

struct ReturnStmt final : Stmt {
  explicit ReturnStmt(ExprPtr v) : Stmt(StmtKind::Return), value(std::move(v)) {}
  ExprPtr value;  ///< may be null for `return;`
};

/// Expression evaluated for side effects (in mini-C: a call).
struct ExprStmt final : Stmt {
  explicit ExprStmt(ExprPtr e) : Stmt(StmtKind::Expr), expr(std::move(e)) {}
  ExprPtr expr;
};

struct BlockStmt final : Stmt {
  BlockStmt() : Stmt(StmtKind::Block) {}
  std::vector<StmtPtr> body;
};

// --- Top level -------------------------------------------------------------------

struct Param {
  Type type;
  std::string name;
  Binding binding;
};

struct Function {
  Type returnType;
  std::string name;
  std::vector<Param> params;
  std::vector<StmtPtr> body;
  SourceLoc loc;
  int numLocals = 0;  ///< call-frame size, parameters included (set by sema)
};

/// A complete translation unit: global declarations plus functions.
/// The entry point is `main`.
struct Program {
  std::vector<StmtPtr> globals;  ///< DeclStmt only
  std::vector<std::unique_ptr<Function>> functions;

  /// nullptr if absent.
  Function* findFunction(const std::string& name) const;
  /// Throws hetpar::SemaError if `main` is missing.
  Function& entry() const;
};

/// Calls `fn` for every statement in the subtree rooted at `stmt`
/// (pre-order, including `stmt` itself and for-init/step statements).
void forEachStmt(Stmt& stmt, const std::function<void(Stmt&)>& fn);
void forEachStmt(const Program& program, const std::function<void(Stmt&)>& fn);

/// Direct hierarchical children of a statement (loop/if/block bodies; for
/// init/step are *not* children — they belong to the loop header).
std::vector<Stmt*> childStatements(Stmt& stmt);

}  // namespace hetpar::frontend
