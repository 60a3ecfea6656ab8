#include "hetpar/frontend/sema.hpp"

#include <set>

#include "hetpar/support/error.hpp"
#include "hetpar/support/strings.hpp"

namespace hetpar::frontend {

namespace {

[[noreturn]] void fail(const SourceLoc& loc, const std::string& what) {
  throw SemaError(strings::format("sema error at line %d: %s", loc.line, what.c_str()));
}

/// Alpha-renames locals so every name within a function is unique and
/// distinct from all globals, and binds every name use to its slot
/// (frontend::Binding) and every call to its callee. C scoping (blocks,
/// loop headers, branches) is honored during the rewrite; afterwards a flat
/// per-function symbol table is exact, which keeps every downstream
/// analysis simple. Locals get frame slots in declaration order, parameters
/// first. A name sema later rejects as undeclared stays unbound.
class Renamer {
 public:
  Renamer(Program& program, SemaResult& result) : program_(program), result_(result) {
    for (std::size_t i = 0; i < program.globals.size(); ++i)
      globals_.emplace(static_cast<const DeclStmt&>(*program.globals[i]).name,
                       Binding{true, static_cast<int>(i)});
  }

  void bindGlobals() {
    for (auto& g : program_.globals) {
      auto& d = static_cast<DeclStmt&>(*g);
      d.binding = globals_.at(d.name);
      if (d.init) renameExpr(*d.init);  // sees the globals only
    }
  }

  void renameFunctions() {
    for (auto& f : program_.functions) renameFunction(*f);
  }

 private:
  void renameFunction(Function& fn) {
    used_.clear();
    for (const auto& [name, binding] : globals_) used_.insert(name);
    counters_.clear();
    locals_.clear();
    scopes_.clear();
    scopes_.emplace_back();
    for (auto& p : fn.params) declare(p.name, p.binding);
    for (auto& s : fn.body) renameStmt(*s);
    scopes_.pop_back();
    fn.numLocals = static_cast<int>(locals_.size());
  }

  void declare(std::string& name, Binding& binding) {
    require<SemaError>(scopes_.back().count(name) == 0,
                       "redeclaration of '" + name + "' in the same scope");
    std::string unique = name;
    while (used_.count(unique) > 0)
      unique = name + "_" + std::to_string(++counters_[name]);
    used_.insert(unique);
    scopes_.back()[name] = unique;
    binding = Binding{false, static_cast<int>(locals_.size())};
    locals_.emplace(unique, binding);
    name = unique;
  }

  /// Renames a use and binds it. The binding looks the renamed name up in
  /// the function's flat table, as sema's checks do, so a use after a closed
  /// sibling scope reaches that scope's declaration.
  void resolve(std::string& name, Binding& binding) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) {
        name = found->second;
        break;
      }
    }
    if (auto it = locals_.find(name); it != locals_.end()) binding = it->second;
    else if (auto g = globals_.find(name); g != globals_.end()) binding = g->second;
  }

  void renameExpr(Expr& e) {
    switch (e.kind) {
      case ExprKind::VarRef: {
        auto& x = static_cast<VarRef&>(e);
        resolve(x.name, x.binding);
        break;
      }
      case ExprKind::Index: {
        auto& x = static_cast<IndexExpr&>(e);
        resolve(x.name, x.binding);
        for (auto& i : x.indices) renameExpr(*i);
        break;
      }
      case ExprKind::Unary:
        renameExpr(*static_cast<UnaryExpr&>(e).operand);
        break;
      case ExprKind::Binary: {
        auto& x = static_cast<BinaryExpr&>(e);
        renameExpr(*x.lhs);
        renameExpr(*x.rhs);
        break;
      }
      case ExprKind::Call: {
        auto& x = static_cast<CallExpr&>(e);
        x.builtin = builtinFunction(x.callee);
        if (x.builtin == Builtin::None) {
          x.function = program_.findFunction(x.callee);  // sema rejects an unknown one
          x.site = result_.numCallSites++;
        }
        for (auto& a : x.args) renameExpr(*a);
        break;
      }
      default:
        break;
    }
  }

  void renameBody(std::vector<StmtPtr>& body) {
    scopes_.emplace_back();
    for (auto& s : body) renameStmt(*s);
    scopes_.pop_back();
  }

  void renameStmt(Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::Decl: {
        auto& d = static_cast<DeclStmt&>(stmt);
        if (d.init) renameExpr(*d.init);  // initializer sees the outer name
        declare(d.name, d.binding);
        break;
      }
      case StmtKind::Assign: {
        auto& a = static_cast<AssignStmt&>(stmt);
        resolve(a.target, a.binding);
        for (auto& i : a.indices) renameExpr(*i);
        renameExpr(*a.value);
        break;
      }
      case StmtKind::If: {
        auto& s = static_cast<IfStmt&>(stmt);
        renameExpr(*s.cond);
        renameBody(s.thenBody);
        renameBody(s.elseBody);
        break;
      }
      case StmtKind::For: {
        auto& s = static_cast<ForStmt&>(stmt);
        scopes_.emplace_back();  // loop-header declarations scope to the loop
        if (s.init) renameStmt(*s.init);
        if (s.cond) renameExpr(*s.cond);
        if (s.step) renameStmt(*s.step);
        renameBody(s.body);
        scopes_.pop_back();
        break;
      }
      case StmtKind::While: {
        auto& s = static_cast<WhileStmt&>(stmt);
        renameExpr(*s.cond);
        renameBody(s.body);
        break;
      }
      case StmtKind::Return: {
        auto& s = static_cast<ReturnStmt&>(stmt);
        if (s.value) renameExpr(*s.value);
        break;
      }
      case StmtKind::Expr:
        renameExpr(*static_cast<ExprStmt&>(stmt).expr);
        break;
      case StmtKind::Block:
        renameBody(static_cast<BlockStmt&>(stmt).body);
        break;
    }
  }

  Program& program_;
  SemaResult& result_;
  std::map<std::string, Binding> globals_;
  std::map<std::string, Binding> locals_;  ///< renamed name -> frame slot
  std::set<std::string> used_;
  std::map<std::string, int> counters_;
  std::vector<std::map<std::string, std::string>> scopes_;
};

class Sema {
 public:
  explicit Sema(Program& program) : program_(program) {}

  SemaResult run() {
    for (const auto& g : program_.globals)
      require<SemaError>(g->kind == StmtKind::Decl, "global scope allows declarations only");
    Renamer renamer(program_, result_);
    renamer.bindGlobals();  // before collectGlobals checks the initializers' calls
    collectGlobals();
    renamer.renameFunctions();
    for (auto& f : program_.functions) analyzeFunction(*f);
    require<SemaError>(program_.findFunction("main") != nullptr,
                       "program has no 'main' function");
    checkCallGraph();
    assignIds();
    return std::move(result_);
  }

 private:
  void collectGlobals() {
    for (const auto& g : program_.globals) {
      const auto& d = static_cast<const DeclStmt&>(*g);
      if (d.type.isVoid()) fail(d.loc, "variable '" + d.name + "' has void type");
      checkStorage(d);
      const bool inserted = result_.globals.emplace(d.name, d.type).second;
      if (!inserted) fail(d.loc, "duplicate global '" + d.name + "'");
      if (d.init) checkExpr(*d.init, result_.globals, nullptr);
    }
  }

  void analyzeFunction(Function& fn) {
    require<SemaError>(seenFunctions_.insert(fn.name).second,
                       "duplicate function '" + fn.name + "'");
    require<SemaError>(builtinFunction(fn.name) == Builtin::None,
                       "function '" + fn.name + "' shadows a math builtin");
    SymbolTable scope = result_.globals;
    for (const auto& p : fn.params) {
      if (p.type.isVoid()) fail(fn.loc, "parameter '" + p.name + "' has void type");
      // Parameters may shadow globals (scope.insert_or_assign), but not
      // repeat each other.
      require<SemaError>(scope.count(p.name) == 0 || result_.globals.count(p.name) > 0,
                         "duplicate parameter '" + p.name + "' in '" + fn.name + "'");
      scope.insert_or_assign(p.name, p.type);
    }
    for (auto& s : fn.body) checkStmt(*s, scope, fn);
    result_.functionScopes.emplace(&fn, std::move(scope));
  }

  /// Enforces the array storage limits. With an acyclic call graph every
  /// declaration has at most one live object, so the sum over all array
  /// declarations bounds what the interpreter allocates.
  void checkStorage(const DeclStmt& d) {
    if (!d.type.isArray()) return;
    const long long n = d.type.elementCount();
    if (n > kMaxArrayElements)
      fail(d.loc, strings::format("array '%s' has %lld elements, more than the limit of %lld",
                                  d.name.c_str(), n, kMaxArrayElements));
    totalArrayElements_ += n;
    if (totalArrayElements_ > kMaxTotalArrayElements)
      fail(d.loc, strings::format("array '%s' brings the program's arrays to %lld elements, "
                                  "more than the limit of %lld",
                                  d.name.c_str(), totalArrayElements_, kMaxTotalArrayElements));
  }

  void declare(const DeclStmt& d, SymbolTable& scope) {
    if (d.type.isVoid()) fail(d.loc, "variable '" + d.name + "' has void type");
    checkStorage(d);
    // Unique within the function (flat scope keeps analyses simple); may
    // shadow a same-named global.
    if (scope.count(d.name) > 0 && result_.globals.count(d.name) == 0)
      fail(d.loc, "redeclaration of '" + d.name + "'");
    scope.insert_or_assign(d.name, d.type);
  }

  void checkStmt(Stmt& stmt, SymbolTable& scope, const Function& fn) {
    switch (stmt.kind) {
      case StmtKind::Decl: {
        auto& d = static_cast<DeclStmt&>(stmt);
        if (d.init) {
          checkExpr(*d.init, scope, &fn);
          if (d.type.isArray()) fail(d.loc, "array initializers are not supported");
        }
        declare(d, scope);
        break;
      }
      case StmtKind::Assign: {
        auto& a = static_cast<AssignStmt&>(stmt);
        auto it = scope.find(a.target);
        if (it == scope.end()) fail(a.loc, "assignment to undeclared '" + a.target + "'");
        const Type& t = it->second;
        if (a.indices.size() != t.dims.size())
          fail(a.loc, strings::format("'%s' expects %zu indices, got %zu", a.target.c_str(),
                                      t.dims.size(), a.indices.size()));
        for (const auto& i : a.indices) checkExpr(*i, scope, &fn);
        checkExpr(*a.value, scope, &fn);
        break;
      }
      case StmtKind::If: {
        auto& s = static_cast<IfStmt&>(stmt);
        checkExpr(*s.cond, scope, &fn);
        for (auto& c : s.thenBody) checkStmt(*c, scope, fn);
        for (auto& c : s.elseBody) checkStmt(*c, scope, fn);
        break;
      }
      case StmtKind::For: {
        auto& s = static_cast<ForStmt&>(stmt);
        if (s.init) checkStmt(*s.init, scope, fn);
        if (s.cond) checkExpr(*s.cond, scope, &fn);
        if (s.step) checkStmt(*s.step, scope, fn);
        require<SemaError>(s.cond != nullptr, "for-loops must have a condition");
        for (auto& c : s.body) checkStmt(*c, scope, fn);
        break;
      }
      case StmtKind::While: {
        auto& s = static_cast<WhileStmt&>(stmt);
        checkExpr(*s.cond, scope, &fn);
        for (auto& c : s.body) checkStmt(*c, scope, fn);
        break;
      }
      case StmtKind::Return: {
        auto& s = static_cast<ReturnStmt&>(stmt);
        if (s.value) {
          checkExpr(*s.value, scope, &fn);
          if (fn.returnType.isVoid())
            fail(s.loc, "'" + fn.name + "' returns void but returns a value");
        } else if (!fn.returnType.isVoid()) {
          fail(s.loc, "'" + fn.name + "' must return a value");
        }
        break;
      }
      case StmtKind::Expr: {
        auto& s = static_cast<ExprStmt&>(stmt);
        checkExpr(*s.expr, scope, &fn);
        break;
      }
      case StmtKind::Block: {
        auto& s = static_cast<BlockStmt&>(stmt);
        for (auto& c : s.body) checkStmt(*c, scope, fn);
        break;
      }
    }
  }

  void checkExpr(const Expr& expr, const SymbolTable& scope, const Function* fn) {
    switch (expr.kind) {
      case ExprKind::IntLit:
      case ExprKind::FloatLit:
        break;
      case ExprKind::VarRef: {
        const auto& e = static_cast<const VarRef&>(expr);
        auto it = scope.find(e.name);
        if (it == scope.end()) fail(e.loc, "use of undeclared '" + e.name + "'");
        // Bare array references are only valid as call arguments; those are
        // checked in the Call case, so a VarRef reaching here must be scalar.
        break;
      }
      case ExprKind::Index: {
        const auto& e = static_cast<const IndexExpr&>(expr);
        auto it = scope.find(e.name);
        if (it == scope.end()) fail(e.loc, "use of undeclared '" + e.name + "'");
        if (e.indices.size() != it->second.dims.size())
          fail(e.loc, strings::format("'%s' expects %zu indices, got %zu", e.name.c_str(),
                                      it->second.dims.size(), e.indices.size()));
        for (const auto& i : e.indices) checkExpr(*i, scope, fn);
        break;
      }
      case ExprKind::Unary:
        checkExpr(*static_cast<const UnaryExpr&>(expr).operand, scope, fn);
        break;
      case ExprKind::Binary: {
        const auto& e = static_cast<const BinaryExpr&>(expr);
        checkExpr(*e.lhs, scope, fn);
        checkExpr(*e.rhs, scope, fn);
        break;
      }
      case ExprKind::Call: {
        const auto& e = static_cast<const CallExpr&>(expr);
        if (e.builtin != Builtin::None) {
          if (e.args.size() != 1) fail(e.loc, "builtin '" + e.callee + "' takes one argument");
          checkExpr(*e.args[0], scope, fn);
          break;
        }
        const Function* callee = e.function;
        if (callee == nullptr) fail(e.loc, "call to unknown function '" + e.callee + "'");
        if (callee->params.size() != e.args.size())
          fail(e.loc, strings::format("'%s' takes %zu arguments, got %zu", e.callee.c_str(),
                                      callee->params.size(), e.args.size()));
        for (std::size_t i = 0; i < e.args.size(); ++i) {
          const Param& p = callee->params[i];
          const Expr& arg = *e.args[i];
          if (p.type.isArray()) {
            // Array parameters must be passed whole arrays by name.
            if (arg.kind != ExprKind::VarRef)
              fail(arg.loc, "array parameter '" + p.name + "' needs an array argument");
            const auto& ref = static_cast<const VarRef&>(arg);
            auto it = scope.find(ref.name);
            if (it == scope.end()) fail(arg.loc, "use of undeclared '" + ref.name + "'");
            if (it->second.dims != p.type.dims || it->second.scalar != p.type.scalar)
              fail(arg.loc, "array argument '" + ref.name + "' does not match parameter '" +
                                p.name + "' of type " + p.type.str());
          } else {
            checkExpr(arg, scope, fn);
          }
        }
        if (fn != nullptr) callEdges_.emplace(fn->name, e.callee);
        else fail(e.loc, "calls are not allowed in global initializers");
        break;
      }
    }
  }

  void checkCallGraph() {
    // DFS cycle detection over user functions; also records bottom-up order.
    std::map<std::string, int> state;  // 0 unvisited, 1 in stack, 2 done
    std::vector<const Function*> order;
    std::function<void(const Function&)> dfs = [&](const Function& fn) {
      state[fn.name] = 1;
      for (const auto& [caller, callee] : callEdges_) {
        if (caller != fn.name) continue;
        const Function* next = program_.findFunction(callee);
        HETPAR_CHECK(next != nullptr);
        if (state[callee] == 1)
          throw SemaError("recursive call involving '" + callee +
                          "' (mini-C programs must have acyclic call graphs)");
        if (state[callee] == 0) dfs(*next);
      }
      state[fn.name] = 2;
      order.push_back(&fn);
    };
    for (const auto& f : program_.functions)
      if (state[f->name] == 0) dfs(*f);
    result_.bottomUpOrder = std::move(order);
  }

  void assignIds() {
    int next = 0;
    forEachStmt(program_, [&](Stmt& s) { s.id = next++; });
    result_.numStatements = next;
  }

  Program& program_;
  SemaResult result_;
  std::set<std::string> seenFunctions_;
  long long totalArrayElements_ = 0;
  std::multimap<std::string, std::string> callEdges_;  // caller -> callee
};

}  // namespace

const Type* SemaResult::lookup(const Function* fn, const std::string& name) const {
  if (fn != nullptr) {
    auto fit = functionScopes.find(fn);
    if (fit != functionScopes.end()) {
      auto it = fit->second.find(name);
      if (it != fit->second.end()) return &it->second;
    }
  }
  auto it = globals.find(name);
  return it == globals.end() ? nullptr : &it->second;
}

SemaResult analyze(Program& program) { return Sema(program).run(); }

}  // namespace hetpar::frontend
