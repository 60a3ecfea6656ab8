#include "hetpar/cost/interp.hpp"

#include <climits>
#include <cmath>
#include <memory>
#include <type_traits>
#include <variant>

#include "hetpar/support/error.hpp"
#include "hetpar/support/strings.hpp"

namespace hetpar::cost {

namespace {

using namespace frontend;

/// Scalar runtime value. Integers and floats are kept separate to preserve
/// C's integer division / modulo semantics.
struct Value {
  bool isFloat = false;
  long long i = 0;
  double f = 0.0;

  static Value ofInt(long long v) { return {false, v, 0.0}; }
  static Value ofFloat(double v) { return {true, 0, v}; }
  double asDouble() const { return isFloat ? f : double(i); }
  long long asInt() const { return isFloat ? (long long)f : i; }
  bool truthy() const { return isFloat ? f != 0.0 : i != 0; }
};

/// Array object; shared between caller and callee frames (C decay-to-pointer
/// semantics).
struct ArrayObj {
  ScalarType elem = ScalarType::Int;
  std::vector<long long> idata;
  std::vector<double> fdata;
  std::vector<int> dims;

  explicit ArrayObj(const Type& t) : elem(t.scalar), dims(t.dims) {
    const std::size_t n = static_cast<std::size_t>(t.elementCount());
    if (elem == ScalarType::Int) idata.assign(n, 0);
    else fdata.assign(n, 0.0);
  }

  /// `idx` points at one subscript per dimension.
  std::size_t flatten(const long long* idx, std::size_t n) const {
    HETPAR_CHECK(n == dims.size());
    std::size_t flat = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const long long i = idx[k];
      if (i < 0 || i >= dims[k])
        throw Error(strings::format("array index %lld out of bounds [0,%d)", i, dims[k]));
      flat = flat * static_cast<std::size_t>(dims[k]) + static_cast<std::size_t>(i);
    }
    return flat;
  }

  Value get(const long long* idx, std::size_t n) const {
    const std::size_t k = flatten(idx, n);
    return elem == ScalarType::Int ? Value::ofInt(idata[k]) : Value::ofFloat(fdata[k]);
  }

  void set(const long long* idx, std::size_t n, const Value& v) {
    const std::size_t k = flatten(idx, n);
    if (elem == ScalarType::Int) idata[k] = v.asInt();
    else fdata[k] = v.asDouble();
  }
};

/// Element accesses use the raw pointer; only array arguments share
/// ownership with the callee frame.
using ArrayRef = std::shared_ptr<ArrayObj>;
/// A storage slot; empty until its declaration runs. A frame holds one slot
/// per local of its function, indexed by the sema binding.
using Slot = std::variant<std::monostate, Value, ArrayRef>;
using Frame = std::vector<Slot>;

struct ExecResult {
  bool returned = false;
  Value value;
};

class Interp {
 public:
  Interp(const Program& program, const frontend::SemaResult& sema, const OpCosts& costs,
         const InterpLimits& limits, const AccessObserver* observer)
      : program_(program), costs_(costs), limits_(limits), observer_(observer),
        globals_(program.globals.size()), sites_(static_cast<std::size_t>(sema.numCallSites)) {
    profile_.stmts.resize(static_cast<std::size_t>(sema.numStatements));
  }

  ProgramProfile run() {
    Frame none;  // global initializers read globals only
    for (const auto& g : program_.globals) {
      countEnter(*g);
      execDecl(static_cast<const DeclStmt&>(*g), none);
    }
    if (observer_ != nullptr && observer_->onGlobalArray) {
      for (std::size_t i = 0; i < globals_.size(); ++i)
        if (auto* arr = std::get_if<ArrayRef>(&globals_[i]))
          observer_->onGlobalArray(static_cast<const DeclStmt&>(*program_.globals[i]).name,
                                   arr->get());
    }
    Function& main = program_.entry();
    require(main.params.empty(), "main() must not take parameters");
    Frame frame(static_cast<std::size_t>(main.numLocals));
    ExecResult r = execBody(main.body, frame);
    profile_.exitValue = r.returned ? r.value.asInt() : 0;
    profile_.totalOps = totalOps_;
    // Fold the per-site counts into the profile's maps once.
    for (const Site& site : sites_) {
      if (site.calls == 0) continue;
      if (site.stmt >= 0) profile_.callSiteCalls[{site.stmt, site.call->callee}] += site.calls;
      profile_.functionCalls[site.call->callee] += site.calls;
    }
    return std::move(profile_);
  }

 private:
  // --- op accounting ---------------------------------------------------------
  void charge(double ops, OpKind kind = OpKind::IntAlu) {
    totalOps_ += ops;
    require(totalOps_ <= double(limits_.maxSteps), "interpreter exceeded its step budget");
    for (int id : attribution_) {
      StmtProfile& sp = profile_.stmts[static_cast<std::size_t>(id)];
      sp.ops += ops;
      sp.mix.of(kind) += ops;
    }
  }

  void countEnter(const Stmt& s) {
    ++profile_.stmts[static_cast<std::size_t>(s.id)].execCount;
  }

  /// RAII: ops charged while alive are attributed to `stmt` (plus any outer
  /// attribution targets along the call chain).
  class Attribute {
   public:
    Attribute(Interp& in, const Stmt& stmt) : in_(in) {
      in_.attribution_.push_back(stmt.id);
    }
    Attribute(const Attribute&) = delete;
    Attribute& operator=(const Attribute&) = delete;
    ~Attribute() { in_.attribution_.pop_back(); }

   private:
    Interp& in_;
  };

  // --- variable access ----------------------------------------------------------
  Slot& slot(const Binding& b, Frame& frame) {
    return (b.global ? globals_ : frame)[static_cast<std::size_t>(b.index)];
  }

  /// The `T` in `name`'s slot. This runs once per variable access: test
  /// first, and build the message only on the throwing path. An empty slot
  /// belongs to a declaration that has not run (one in a branch not taken).
  template <class T>
  T& held(const Binding& b, Frame& frame, const std::string& name) {
    Slot& s = slot(b, frame);
    if (T* v = std::get_if<T>(&s)) return *v;
    if (std::holds_alternative<std::monostate>(s))
      throw Error("runtime: unknown variable '" + name + "'");
    throw Error("runtime: '" + name +
                (std::is_same_v<T, Value> ? "' is not scalar" : "' is not an array"));
  }

  /// Evaluates `indices` (charging each subscript's address computation)
  /// onto the top of subscripts_ and returns where they start. Nested
  /// subscripts (a[b[i]]) push and pop above, so one buffer serves all.
  std::size_t pushSubscripts(const std::vector<ExprPtr>& indices, Frame& frame) {
    const std::size_t base = subscripts_.size();
    for (const auto& i : indices) {
      const long long v = eval(*i, frame).asInt();
      subscripts_.push_back(v);
      charge(costs_.indexExtra, OpKind::Memory);
    }
    return base;
  }

  void observe(const ArrayObj* arr, std::size_t base, bool isWrite) {
    if (observer_ == nullptr || !observer_->onAccess) return;
    observed_.assign(subscripts_.begin() + static_cast<std::ptrdiff_t>(base), subscripts_.end());
    observer_->onAccess(arr, observed_, isWrite, attribution_);
  }

  // --- expressions -----------------------------------------------------------------
  Value eval(const Expr& expr, Frame& frame) {
    switch (expr.kind) {
      case ExprKind::IntLit:
        return Value::ofInt(static_cast<const IntLit&>(expr).value);
      case ExprKind::FloatLit:
        return Value::ofFloat(static_cast<const FloatLit&>(expr).value);
      case ExprKind::VarRef: {
        const auto& e = static_cast<const VarRef&>(expr);
        const Value v = held<Value>(e.binding, frame, e.name);
        charge(costs_.load, OpKind::Memory);
        return v;
      }
      case ExprKind::Index: {
        const auto& e = static_cast<const IndexExpr&>(expr);
        const ArrayObj* arr = held<ArrayRef>(e.binding, frame, e.name).get();
        const std::size_t base = pushSubscripts(e.indices, frame);
        charge(costs_.load, OpKind::Memory);
        observe(arr, base, false);
        const Value v = arr->get(subscripts_.data() + base, e.indices.size());
        subscripts_.resize(base);
        return v;
      }
      case ExprKind::Unary: {
        const auto& e = static_cast<const UnaryExpr&>(expr);
        const Value v = eval(*e.operand, frame);
        if (e.op == UnaryOp::Neg) {
          charge(v.isFloat ? costs_.floatArith : costs_.intArith,
               v.isFloat ? OpKind::FloatAlu : OpKind::IntAlu);
          return v.isFloat ? Value::ofFloat(-v.f) : Value::ofInt(-v.i);
        }
        charge(costs_.logic, OpKind::IntAlu);
        return Value::ofInt(v.truthy() ? 0 : 1);
      }
      case ExprKind::Binary:
        return evalBinary(static_cast<const BinaryExpr&>(expr), frame);
      case ExprKind::Call:
        return evalCall(static_cast<const CallExpr&>(expr), frame);
    }
    throw InternalError("interp: unknown expression kind");
  }

  Value evalBinary(const BinaryExpr& e, Frame& frame) {
    // Short-circuit logic first.
    if (e.op == BinaryOp::And || e.op == BinaryOp::Or) {
      const Value l = eval(*e.lhs, frame);
      charge(costs_.logic, OpKind::IntAlu);
      if (e.op == BinaryOp::And && !l.truthy()) return Value::ofInt(0);
      if (e.op == BinaryOp::Or && l.truthy()) return Value::ofInt(1);
      const Value r = eval(*e.rhs, frame);
      return Value::ofInt(r.truthy() ? 1 : 0);
    }
    const Value l = eval(*e.lhs, frame);
    const Value r = eval(*e.rhs, frame);
    const bool fl = l.isFloat || r.isFloat;
    switch (e.op) {
      case BinaryOp::Add:
        charge(fl ? costs_.floatArith : costs_.intArith, fl ? OpKind::FloatAlu : OpKind::IntAlu);
        return fl ? Value::ofFloat(l.asDouble() + r.asDouble()) : Value::ofInt(l.i + r.i);
      case BinaryOp::Sub:
        charge(fl ? costs_.floatArith : costs_.intArith, fl ? OpKind::FloatAlu : OpKind::IntAlu);
        return fl ? Value::ofFloat(l.asDouble() - r.asDouble()) : Value::ofInt(l.i - r.i);
      case BinaryOp::Mul:
        charge(fl ? costs_.floatMul : costs_.intMul, fl ? OpKind::FloatAlu : OpKind::IntAlu);
        return fl ? Value::ofFloat(l.asDouble() * r.asDouble()) : Value::ofInt(l.i * r.i);
      case BinaryOp::Div:
        charge(fl ? costs_.floatDiv : costs_.intDiv, fl ? OpKind::FloatAlu : OpKind::IntAlu);
        if (fl) {
          require(r.asDouble() != 0.0, "runtime: division by zero");
          return Value::ofFloat(l.asDouble() / r.asDouble());
        }
        require(r.i != 0, "runtime: division by zero");
        require(l.i != LLONG_MIN || r.i != -1, "runtime: integer division overflow");
        return Value::ofInt(l.i / r.i);
      case BinaryOp::Mod:
        charge(costs_.intDiv, OpKind::IntAlu);
        require(!fl, "runtime: % requires integers");
        require(r.i != 0, "runtime: modulo by zero");
        require(l.i != LLONG_MIN || r.i != -1, "runtime: integer modulo overflow");
        return Value::ofInt(l.i % r.i);
      case BinaryOp::Lt:
        charge(costs_.compare, OpKind::IntAlu);
        return Value::ofInt(l.asDouble() < r.asDouble() ? 1 : 0);
      case BinaryOp::Le:
        charge(costs_.compare, OpKind::IntAlu);
        return Value::ofInt(l.asDouble() <= r.asDouble() ? 1 : 0);
      case BinaryOp::Gt:
        charge(costs_.compare, OpKind::IntAlu);
        return Value::ofInt(l.asDouble() > r.asDouble() ? 1 : 0);
      case BinaryOp::Ge:
        charge(costs_.compare, OpKind::IntAlu);
        return Value::ofInt(l.asDouble() >= r.asDouble() ? 1 : 0);
      case BinaryOp::Eq:
        charge(costs_.compare, OpKind::IntAlu);
        return Value::ofInt(l.asDouble() == r.asDouble() ? 1 : 0);
      case BinaryOp::Ne:
        charge(costs_.compare, OpKind::IntAlu);
        return Value::ofInt(l.asDouble() != r.asDouble() ? 1 : 0);
      default:
        throw InternalError("interp: unexpected binary op");
    }
  }

  Value evalCall(const CallExpr& e, Frame& frame) {
    if (e.builtin != Builtin::None) {
      const Value a = eval(*e.args[0], frame);
      charge(costs_.builtinMath, OpKind::FloatAlu);
      const double x = a.asDouble();
      switch (e.builtin) {
        case Builtin::Sqrt:
          require(x >= 0.0, "runtime: sqrt of negative value");
          return Value::ofFloat(std::sqrt(x));
        case Builtin::Fabs: return Value::ofFloat(std::fabs(x));
        case Builtin::Sin: return Value::ofFloat(std::sin(x));
        case Builtin::Cos: return Value::ofFloat(std::cos(x));
        case Builtin::Exp: return Value::ofFloat(std::exp(x));
        case Builtin::Log:
          require(x > 0.0, "runtime: log of non-positive value");
          return Value::ofFloat(std::log(x));
        case Builtin::Abs: return Value::ofInt(std::llabs(a.asInt()));
        case Builtin::None: break;
      }
      throw InternalError("interp: unknown builtin");
    }

    HETPAR_CHECK(e.function != nullptr);
    const Function& callee = *e.function;
    charge(costs_.callOverhead, OpKind::Control);

    // Count the call against the innermost attributed statement.
    Site& site = sites_[static_cast<std::size_t>(e.site)];
    site.call = &e;
    site.stmt = attribution_.empty() ? -1 : attribution_.back();
    ++site.calls;

    Frame calleeFrame(static_cast<std::size_t>(callee.numLocals));
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      const Param& p = callee.params[i];
      Slot& param = calleeFrame[static_cast<std::size_t>(p.binding.index)];
      if (p.type.isArray()) {
        const auto& ref = static_cast<const VarRef&>(*e.args[i]);
        param = held<ArrayRef>(ref.binding, frame, ref.name);
      } else {
        param = eval(*e.args[i], frame);
      }
    }
    ExecResult r = execBody(callee.body, calleeFrame);
    return r.returned ? r.value : Value::ofInt(0);
  }

  // --- statements ------------------------------------------------------------------
  ExecResult execBody(const std::vector<StmtPtr>& body, Frame& frame) {
    for (const auto& s : body) {
      ExecResult r = exec(*s, frame);
      if (r.returned) return r;
    }
    return {};
  }

  /// (Re)initializes the declared slot: a loop body's declarations start
  /// from zero on every iteration.
  void execDecl(const DeclStmt& s, Frame& frame) {
    if (s.type.isArray()) {
      slot(s.binding, frame) = std::make_shared<ArrayObj>(s.type);
    } else {
      Value v = s.init ? eval(*s.init, frame) : Value::ofInt(0);
      if (s.type.scalar == ScalarType::Int) v = Value::ofInt(v.asInt());
      else v = Value::ofFloat(v.asDouble());
      charge(costs_.store, OpKind::Memory);
      slot(s.binding, frame) = v;
    }
  }

  ExecResult exec(const Stmt& stmt, Frame& frame) {
    switch (stmt.kind) {
      case StmtKind::Decl: {
        countEnter(stmt);
        Attribute attr(*this, stmt);
        execDecl(static_cast<const DeclStmt&>(stmt), frame);
        return {};
      }
      case StmtKind::Assign: {
        countEnter(stmt);
        Attribute attr(*this, stmt);
        const auto& s = static_cast<const AssignStmt&>(stmt);
        if (s.indices.empty()) {
          Value& target = held<Value>(s.binding, frame, s.target);
          const Value v = eval(*s.value, frame);
          charge(costs_.store, OpKind::Memory);
          // Preserve the declared scalar kind of the target.
          target = target.isFloat ? Value::ofFloat(v.asDouble()) : Value::ofInt(v.asInt());
        } else {
          ArrayObj* arr = held<ArrayRef>(s.binding, frame, s.target).get();
          const std::size_t base = pushSubscripts(s.indices, frame);
          const Value v = eval(*s.value, frame);
          charge(costs_.store, OpKind::Memory);
          observe(arr, base, true);
          arr->set(subscripts_.data() + base, s.indices.size(), v);
          subscripts_.resize(base);
        }
        return {};
      }
      case StmtKind::If: {
        countEnter(stmt);
        const auto& s = static_cast<const IfStmt&>(stmt);
        bool taken;
        {
          Attribute attr(*this, stmt);
          taken = eval(*s.cond, frame).truthy();
          charge(costs_.branch, OpKind::Control);
        }
        return execBody(taken ? s.thenBody : s.elseBody, frame);
      }
      case StmtKind::For: {
        countEnter(stmt);
        const auto& s = static_cast<const ForStmt&>(stmt);
        {
          Attribute attr(*this, stmt);
          if (s.init) {
            if (s.init->kind == StmtKind::Decl)
              execDecl(static_cast<const DeclStmt&>(*s.init), frame);
            else
              exec(*s.init, frame);
          }
        }
        while (true) {
          bool cont;
          {
            Attribute attr(*this, stmt);
            cont = !s.cond || eval(*s.cond, frame).truthy();
            charge(costs_.branch, OpKind::Control);
          }
          if (!cont) break;
          ExecResult r = execBody(s.body, frame);
          if (r.returned) return r;
          if (s.step) {
            Attribute attr(*this, stmt);
            exec(*s.step, frame);
          }
        }
        return {};
      }
      case StmtKind::While: {
        countEnter(stmt);
        const auto& s = static_cast<const WhileStmt&>(stmt);
        while (true) {
          bool cont;
          {
            Attribute attr(*this, stmt);
            cont = eval(*s.cond, frame).truthy();
            charge(costs_.branch, OpKind::Control);
          }
          if (!cont) break;
          ExecResult r = execBody(s.body, frame);
          if (r.returned) return r;
        }
        return {};
      }
      case StmtKind::Return: {
        countEnter(stmt);
        Attribute attr(*this, stmt);
        const auto& s = static_cast<const ReturnStmt&>(stmt);
        ExecResult r;
        r.returned = true;
        if (s.value) r.value = eval(*s.value, frame);
        return r;
      }
      case StmtKind::Expr: {
        countEnter(stmt);
        Attribute attr(*this, stmt);
        eval(*static_cast<const ExprStmt&>(stmt).expr, frame);
        return {};
      }
      case StmtKind::Block: {
        countEnter(stmt);
        return execBody(static_cast<const BlockStmt&>(stmt).body, frame);
      }
    }
    throw InternalError("interp: unknown statement kind");
  }

  const Program& program_;
  const OpCosts& costs_;
  const InterpLimits& limits_;
  const AccessObserver* observer_;
  Frame globals_;  ///< indexed like Program::globals
  /// Calls counted per call site (CallExpr::site), folded into the
  /// profile's maps at the end of run().
  struct Site {
    const CallExpr* call = nullptr;
    int stmt = -1;  ///< the innermost attributed statement, the same on every call
    long long calls = 0;
  };
  std::vector<Site> sites_;
  std::vector<int> attribution_;
  std::vector<long long> subscripts_;  ///< stack of pending array subscripts
  std::vector<long long> observed_;    ///< one access's subscripts, for observer_
  double totalOps_ = 0.0;
  ProgramProfile profile_;
};

}  // namespace

ProgramProfile interpret(const frontend::Program& program, const frontend::SemaResult& sema,
                         const OpCosts& costs, const InterpLimits& limits,
                         const AccessObserver* observer) {
  return Interp(program, sema, costs, limits, observer).run();
}

}  // namespace hetpar::cost
