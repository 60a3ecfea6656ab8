#include "hetpar/ir/sections.hpp"

#include <algorithm>
#include <climits>
#include <numeric>

#include "hetpar/ir/affine.hpp"
#include "hetpar/support/error.hpp"
#include "hetpar/support/strings.hpp"

namespace hetpar::ir {

using frontend::AssignStmt;
using frontend::BinaryExpr;
using frontend::BlockStmt;
using frontend::CallExpr;
using frontend::DeclStmt;
using frontend::Expr;
using frontend::ExprKind;
using frontend::ExprStmt;
using frontend::ForStmt;
using frontend::Function;
using frontend::IfStmt;
using frontend::IndexExpr;
using frontend::Program;
using frontend::ReturnStmt;
using frontend::Stmt;
using frontend::StmtKind;
using frontend::Type;
using frontend::UnaryExpr;
using frontend::VarRef;
using frontend::WhileStmt;

namespace {

long long gcdNZ(long long a, long long b) { return std::gcd(a < 0 ? -a : a, b < 0 ? -b : b); }

/// ⊤ with no certainty: the defensive fallback for anything unanalyzable.
SectionInfo topSection() { return SectionInfo{ArraySection{}, false, false}; }

/// Per-dimension triplets of `s` against `type` (whole sections expand to
/// the full extent; scalars yield an empty list).
std::vector<DimSection> materialize(const ArraySection& s, const Type& type) {
  std::vector<DimSection> dims;
  if (!s.whole && s.dims.size() == type.dims.size()) return s.dims;
  dims.reserve(type.dims.size());
  for (int extent : type.dims) dims.push_back(DimSection{0, extent - 1, 1});
  return dims;
}

/// b's progression is a subset of a's, per dimension.
bool containsSection(const ArraySection& a, const ArraySection& b, const Type& type) {
  if (a.whole) return true;
  const std::vector<DimSection> da = materialize(a, type);
  const std::vector<DimSection> db = materialize(b, type);
  if (da.size() != db.size()) return false;
  for (std::size_t k = 0; k < da.size(); ++k) {
    const DimSection& w = da[k];
    const DimSection& t = db[k];
    if (t.lo < w.lo || t.hi > w.hi) return false;
    if (t.stride % w.stride != 0) return false;
    if ((t.lo - w.lo) % w.stride != 0) return false;
  }
  return true;
}

/// Smallest per-dimension progression hull containing both sections.
ArraySection hullUnion(const ArraySection& a, const ArraySection& b) {
  if (a.whole || b.whole || a.dims.size() != b.dims.size()) return ArraySection{};
  ArraySection out;
  out.whole = false;
  out.dims.reserve(a.dims.size());
  for (std::size_t k = 0; k < a.dims.size(); ++k) {
    const DimSection& x = a.dims[k];
    const DimSection& y = b.dims[k];
    DimSection d;
    d.lo = std::min(x.lo, y.lo);
    d.hi = std::max(x.hi, y.hi);
    d.stride = gcdNZ(gcdNZ(x.stride, y.stride), x.lo - y.lo);
    if (d.stride == 0) d.stride = 1;
    out.dims.push_back(d);
  }
  return out;
}

/// Merge of two access infos for the same variable. Exactness survives only
/// when one hull contains the other (the union is then itself a clean
/// progression); anything else keeps the sound hull but loses the
/// kill-test certainty.
SectionInfo mergeTwo(const SectionInfo& a, const SectionInfo& b, const Type* type) {
  if (type != nullptr) {
    if (containsSection(a.hull, b.hull, *type))
      return SectionInfo{a.hull, a.definite, a.exact};
    if (containsSection(b.hull, a.hull, *type))
      return SectionInfo{b.hull, b.definite, b.exact};
  }
  SectionInfo out;
  out.hull = type == nullptr ? ArraySection{} : hullUnion(a.hull, b.hull);
  out.definite = a.definite && b.definite;
  out.exact = false;
  return out;
}

void mergeInfo(std::map<std::string, SectionInfo>& m, const std::string& name,
               const SectionInfo& info, const Type* type) {
  auto [it, inserted] = m.try_emplace(name, info);
  if (!inserted) it->second = mergeTwo(it->second, info, type);
}

/// True when the subtree contains a return (an early function exit breaks
/// the "all iterations run to completion" widening assumption).
bool subtreeHasReturn(const Stmt& stmt) {
  bool found = false;
  frontend::forEachStmt(const_cast<Stmt&>(stmt),
                        [&](Stmt& s) { found = found || s.kind == StmtKind::Return; });
  return found;
}

}  // namespace

struct SectionAnalysis::Context {
  std::map<std::string, IvRange> ivs;
  bool definite = true;
  bool* sawReturn = nullptr;  ///< per-function: an earlier return was seen
};

SectionAnalysis::SectionAnalysis(const Program& program, const frontend::SemaResult& sema,
                                 ConstEnvFn constEnv)
    : program_(program), sema_(sema), constEnv_(std::move(constEnv)) {
  // Callees before callers so call sites find section effects ready.
  for (const Function* fn : sema.bottomUpOrder)
    effects_.emplace(fn, computeEffects(*fn));
  bool sawReturn = false;
  Context ctx;
  ctx.sawReturn = &sawReturn;
  for (const auto& g : program.globals) analyzeStmt(*g, nullptr, ctx);
  // All per-statement summaries exist now; drop the hook so the analysis
  // never calls back into a provider that may have been destroyed.
  constEnv_ = nullptr;
}

const AccessSummary& SectionAnalysis::of(const Stmt& stmt) const {
  auto it = perStmt_.find(&stmt);
  HETPAR_CHECK_MSG(it != perStmt_.end(), "statement has no section summary");
  return it->second;
}

const FunctionSectionEffects& SectionAnalysis::effects(const Function& fn) const {
  auto it = effects_.find(&fn);
  HETPAR_CHECK_MSG(it != effects_.end(), "function has no section effects");
  return it->second;
}

const Type* SectionAnalysis::typeOf(const Function* fn, const std::string& name) const {
  return sema_.lookup(fn, name);
}

SectionInfo SectionAnalysis::liftAccess(const std::string& name,
                                        const std::vector<frontend::ExprPtr>& indices,
                                        const Function* fn, const Context& ctx) {
  const Type* type = sema_.lookup(fn, name);
  if (indices.empty()) {
    // Scalar (or whole-object) access: the hull is trivially the object.
    return SectionInfo{ArraySection{}, ctx.definite, true};
  }
  if (type == nullptr || type->dims.size() != indices.size()) return topSection();

  ArraySection sec;
  sec.whole = false;
  std::vector<std::string> usedIvs;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const long long extent = type->dims[k];
    const auto form = liftAffine(*indices[k]);
    if (!form) return topSection();
    DimSection d;
    if (form->isConstant()) {
      // An out-of-bounds constant subscript has no sound in-bounds section:
      // clamping would fabricate a definite+exact access to an element the
      // program never touches (and feed covers() a bogus kill).
      if (form->c0 < 0 || form->c0 > extent - 1) return topSection();
      d.lo = d.hi = form->c0;
      d.stride = 1;
    } else {
      const auto it = ctx.ivs.find(form->iv);
      if (it == ctx.ivs.end()) return topSection();  // not an enclosing canonical IV
      const IvRange& r = it->second;
      // A subscript or stride past the range of long long has no section.
      long long e1 = 0, e2 = 0, step = 0;
      if (__builtin_mul_overflow(form->c1, r.first, &e1) ||
          __builtin_add_overflow(form->c0, e1, &e1) ||
          __builtin_mul_overflow(form->c1, r.last, &e2) ||
          __builtin_add_overflow(form->c0, e2, &e2) ||
          __builtin_mul_overflow(form->c1, r.step, &step) || step == LLONG_MIN)
        return topSection();
      d.lo = std::min(e1, e2);
      d.hi = std::max(e1, e2);
      d.stride = step < 0 ? -step : step;
      if (d.stride == 0) d.stride = 1;
      // Clamp to the array bounds along the progression: whole strides up
      // from lo, down from hi. A distance rounded up to a whole number of
      // strides stays below 2^64, and the clamped bound lies within one
      // stride of the array, so unsigned arithmetic gives it exactly.
      const auto stride = static_cast<unsigned long long>(d.stride);
      const auto strides = [stride](unsigned long long dist) {
        return (dist + stride - 1) / stride * stride;
      };
      const auto ulo = static_cast<unsigned long long>(d.lo);
      const auto uhi = static_cast<unsigned long long>(d.hi);
      if (d.lo < 0) d.lo = static_cast<long long>(ulo + strides(0 - ulo));
      if (d.hi > extent - 1)
        d.hi = static_cast<long long>(uhi - strides(uhi - static_cast<unsigned long long>(extent - 1)));
      if (d.lo > d.hi) return topSection();  // fully out of bounds: give up
      usedIvs.push_back(form->iv);
    }
    sec.dims.push_back(d);
  }
  // A repeated IV across dimensions (a[i][i]) touches a diagonal; the
  // rectangular hull is sound but not exact.
  std::sort(usedIvs.begin(), usedIvs.end());
  const bool repeated = std::adjacent_find(usedIvs.begin(), usedIvs.end()) != usedIvs.end();
  return SectionInfo{std::move(sec), ctx.definite, !repeated};
}

void SectionAnalysis::collectExprReads(const Expr& expr, const Function* fn,
                                       const Context& ctx, AccessSummary& out) {
  switch (expr.kind) {
    case ExprKind::IntLit:
    case ExprKind::FloatLit:
      break;
    case ExprKind::VarRef: {
      const auto& e = static_cast<const VarRef&>(expr);
      mergeInfo(out.reads, e.name, SectionInfo{ArraySection{}, ctx.definite, true},
                sema_.lookup(fn, e.name));
      break;
    }
    case ExprKind::Index: {
      const auto& e = static_cast<const IndexExpr&>(expr);
      mergeInfo(out.reads, e.name, liftAccess(e.name, e.indices, fn, ctx),
                sema_.lookup(fn, e.name));
      for (const auto& i : e.indices) collectExprReads(*i, fn, ctx, out);
      break;
    }
    case ExprKind::Unary:
      collectExprReads(*static_cast<const UnaryExpr&>(expr).operand, fn, ctx, out);
      break;
    case ExprKind::Binary: {
      const auto& e = static_cast<const BinaryExpr&>(expr);
      collectExprReads(*e.lhs, fn, ctx, out);
      collectExprReads(*e.rhs, fn, ctx, out);
      break;
    }
    case ExprKind::Call: {
      const auto& e = static_cast<const CallExpr&>(expr);
      if (e.builtin != frontend::Builtin::None) {
        for (const auto& a : e.args) collectExprReads(*a, fn, ctx, out);
        break;
      }
      const Function* callee = e.function;
      HETPAR_CHECK(callee != nullptr);
      const FunctionSectionEffects& fx = effects(*callee);
      auto demoted = [&](SectionInfo info) {
        info.definite = info.definite && ctx.definite;
        return info;
      };
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        const Expr& arg = *e.args[i];
        if (callee->params[i].type.isArray()) {
          const auto& ref = static_cast<const VarRef&>(arg);
          const Type* type = sema_.lookup(fn, ref.name);
          if (auto it = fx.paramReads.find(i); it != fx.paramReads.end())
            mergeInfo(out.reads, ref.name, demoted(it->second), type);
          if (auto it = fx.paramWrites.find(i); it != fx.paramWrites.end())
            mergeInfo(out.writes, ref.name, demoted(it->second), type);
        } else {
          collectExprReads(arg, fn, ctx, out);
        }
      }
      for (const auto& [g, info] : fx.globalReads)
        mergeInfo(out.reads, g, demoted(info), sema_.lookup(nullptr, g));
      for (const auto& [g, info] : fx.globalWrites)
        mergeInfo(out.writes, g, demoted(info), sema_.lookup(nullptr, g));
      break;
    }
  }
}

AccessSummary SectionAnalysis::analyzeStmt(const Stmt& stmt, const Function* fn,
                                           const Context& ctx) {
  // A previously seen return means this statement may never run.
  Context here = ctx;
  if (here.sawReturn != nullptr && *here.sawReturn) here.definite = false;

  AccessSummary su;
  auto absorb = [&](const AccessSummary& child, bool demote) {
    for (const auto& [v, info] : child.reads) {
      SectionInfo i2 = info;
      if (demote) i2.definite = false;
      mergeInfo(su.reads, v, i2, sema_.lookup(fn, v));
    }
    for (const auto& [v, info] : child.writes) {
      SectionInfo i2 = info;
      if (demote) i2.definite = false;
      mergeInfo(su.writes, v, i2, sema_.lookup(fn, v));
    }
  };

  switch (stmt.kind) {
    case StmtKind::Decl: {
      const auto& s = static_cast<const DeclStmt&>(stmt);
      if (s.init) {
        collectExprReads(*s.init, fn, here, su);
        mergeInfo(su.writes, s.name, SectionInfo{ArraySection{}, here.definite, true},
                  sema_.lookup(fn, s.name));
      }
      break;
    }
    case StmtKind::Assign: {
      const auto& s = static_cast<const AssignStmt&>(stmt);
      for (const auto& i : s.indices) collectExprReads(*i, fn, here, su);
      collectExprReads(*s.value, fn, here, su);
      mergeInfo(su.writes, s.target, liftAccess(s.target, s.indices, fn, here),
                sema_.lookup(fn, s.target));
      break;
    }
    case StmtKind::If: {
      const auto& s = static_cast<const IfStmt&>(stmt);
      collectExprReads(*s.cond, fn, here, su);
      Context branch = here;
      branch.definite = false;
      for (const auto& c : s.thenBody) absorb(analyzeStmt(*c, fn, branch), true);
      for (const auto& c : s.elseBody) absorb(analyzeStmt(*c, fn, branch), true);
      break;
    }
    case StmtKind::For: {
      const auto& s = static_cast<const ForStmt&>(stmt);
      if (s.init) absorb(analyzeStmt(*s.init, fn, here), false);
      Context body = here;
      auto ivr = constEnv_ ? ivRangeOf(s, constEnv_(s)) : ivRangeOf(s);
      // The widening over ivRangeOf assumes the canonical step is the only
      // update of the IV. A body (or cond) write to it — direct assignment,
      // a shadowing redeclaration, or a callee writing a same-named global —
      // makes the actual accesses escape the computed hull, so drop the
      // range and the certainty; subscripts over the IV then take ⊤.
      if (ivr) {
        bool ivMutated = s.cond != nullptr && exprWritesVar(*s.cond, ivr->first);
        for (const auto& c : s.body)
          ivMutated = ivMutated || stmtWritesVar(*c, ivr->first);
        if (ivMutated) {
          body.ivs.erase(ivr->first);  // defensive: no outer range may survive
          ivr.reset();
        }
      }
      if (ivr)
        body.ivs[ivr->first] = ivr->second;
      else
        body.definite = false;  // unknown trip count or unstable IV
      // An early exit breaks the "every iteration completes" widening.
      for (const auto& c : s.body)
        if (subtreeHasReturn(*c)) body.definite = false;
      if (s.cond) collectExprReads(*s.cond, fn, body, su);
      if (s.step) absorb(analyzeStmt(*s.step, fn, body), false);
      for (const auto& c : s.body) absorb(analyzeStmt(*c, fn, body), !body.definite);
      break;
    }
    case StmtKind::While: {
      const auto& s = static_cast<const WhileStmt&>(stmt);
      collectExprReads(*s.cond, fn, here, su);
      Context body = here;
      body.definite = false;  // iteration space unknown
      for (const auto& c : s.body) absorb(analyzeStmt(*c, fn, body), true);
      break;
    }
    case StmtKind::Return: {
      const auto& s = static_cast<const ReturnStmt&>(stmt);
      if (s.value) collectExprReads(*s.value, fn, here, su);
      if (here.sawReturn != nullptr) *here.sawReturn = true;
      break;
    }
    case StmtKind::Expr: {
      const auto& s = static_cast<const ExprStmt&>(stmt);
      collectExprReads(*s.expr, fn, here, su);
      break;
    }
    case StmtKind::Block: {
      const auto& s = static_cast<const BlockStmt&>(stmt);
      for (const auto& c : s.body) absorb(analyzeStmt(*c, fn, here), false);
      break;
    }
  }
  perStmt_.emplace(&stmt, su);
  return su;
}

FunctionSectionEffects SectionAnalysis::computeEffects(const Function& fn) {
  bool sawReturn = false;
  Context ctx;
  ctx.sawReturn = &sawReturn;
  AccessSummary all;
  for (const auto& s : fn.body) {
    const AccessSummary child = analyzeStmt(*s, &fn, ctx);
    for (const auto& [v, info] : child.reads) mergeInfo(all.reads, v, info, sema_.lookup(&fn, v));
    for (const auto& [v, info] : child.writes)
      mergeInfo(all.writes, v, info, sema_.lookup(&fn, v));
  }

  FunctionSectionEffects fx;
  auto isParamOrLocal = [&](const std::string& name) {
    for (const auto& p : fn.params)
      if (p.name == name) return true;
    if (sema_.globals.find(name) == sema_.globals.end()) return true;  // purely local
    bool declaredLocally = false;
    for (const auto& s : fn.body) {
      frontend::forEachStmt(*s, [&](Stmt& st) {
        if (st.kind == StmtKind::Decl && static_cast<const DeclStmt&>(st).name == name)
          declaredLocally = true;
      });
      if (declaredLocally) break;
    }
    return declaredLocally;
  };
  for (std::size_t i = 0; i < fn.params.size(); ++i) {
    if (!fn.params[i].type.isArray()) continue;  // scalars are by-value
    if (auto it = all.reads.find(fn.params[i].name); it != all.reads.end())
      fx.paramReads.emplace(i, it->second);
    if (auto it = all.writes.find(fn.params[i].name); it != all.writes.end())
      fx.paramWrites.emplace(i, it->second);
  }
  for (const auto& [v, info] : all.reads)
    if (!isParamOrLocal(v)) fx.globalReads.emplace(v, info);
  for (const auto& [v, info] : all.writes)
    if (!isParamOrLocal(v)) fx.globalWrites.emplace(v, info);
  return fx;
}

bool SectionAnalysis::exprWritesVar(const Expr& expr, const std::string& name) const {
  switch (expr.kind) {
    case ExprKind::IntLit:
    case ExprKind::FloatLit:
    case ExprKind::VarRef:
      return false;
    case ExprKind::Index: {
      const auto& e = static_cast<const IndexExpr&>(expr);
      for (const auto& i : e.indices)
        if (exprWritesVar(*i, name)) return true;
      return false;
    }
    case ExprKind::Unary:
      return exprWritesVar(*static_cast<const UnaryExpr&>(expr).operand, name);
    case ExprKind::Binary: {
      const auto& e = static_cast<const BinaryExpr&>(expr);
      return exprWritesVar(*e.lhs, name) || exprWritesVar(*e.rhs, name);
    }
    case ExprKind::Call: {
      const auto& e = static_cast<const CallExpr&>(expr);
      for (const auto& a : e.args)
        if (exprWritesVar(*a, name)) return true;
      if (e.builtin != frontend::Builtin::None) return false;
      const Function* callee = e.function;
      HETPAR_CHECK(callee != nullptr);
      const FunctionSectionEffects& fx = effects(*callee);
      if (fx.globalWrites.count(name) != 0) return true;
      for (const auto& [i, info] : fx.paramWrites) {
        (void)info;
        if (i < e.args.size() && e.args[i]->kind == ExprKind::VarRef &&
            static_cast<const VarRef&>(*e.args[i]).name == name)
          return true;
      }
      return false;
    }
  }
  return true;  // unreachable; conservative
}

bool SectionAnalysis::stmtWritesVar(const Stmt& stmt, const std::string& name) const {
  bool writes = false;
  frontend::forEachStmt(const_cast<Stmt&>(stmt), [&](Stmt& s) {
    if (writes) return;
    switch (s.kind) {
      case StmtKind::Decl: {
        const auto& d = static_cast<const DeclStmt&>(s);
        // A shadowing redeclaration rebinds the name for the remainder of
        // the body, so later subscripts no longer range over the outer IV.
        if (d.name == name) {
          writes = true;
          return;
        }
        if (d.init && exprWritesVar(*d.init, name)) writes = true;
        break;
      }
      case StmtKind::Assign: {
        const auto& a = static_cast<const AssignStmt&>(s);
        if (a.target == name) {
          writes = true;
          return;
        }
        for (const auto& i : a.indices)
          if (exprWritesVar(*i, name)) {
            writes = true;
            return;
          }
        if (exprWritesVar(*a.value, name)) writes = true;
        break;
      }
      case StmtKind::If:
        if (exprWritesVar(*static_cast<const IfStmt&>(s).cond, name)) writes = true;
        break;
      case StmtKind::For: {
        const auto& f = static_cast<const ForStmt&>(s);
        if (f.cond && exprWritesVar(*f.cond, name)) writes = true;
        break;
      }
      case StmtKind::While:
        if (exprWritesVar(*static_cast<const WhileStmt&>(s).cond, name)) writes = true;
        break;
      case StmtKind::Return: {
        const auto& r = static_cast<const ReturnStmt&>(s);
        if (r.value && exprWritesVar(*r.value, name)) writes = true;
        break;
      }
      case StmtKind::Expr:
        if (exprWritesVar(*static_cast<const ExprStmt&>(s).expr, name)) writes = true;
        break;
      case StmtKind::Block:
        break;
    }
  });
  return writes;
}

// --- Section algebra --------------------------------------------------------

bool SectionAnalysis::mayOverlap(const ArraySection& a, const ArraySection& b,
                                 const Type& type) {
  const std::vector<DimSection> da = materialize(a, type);
  const std::vector<DimSection> db = materialize(b, type);
  if (da.size() != db.size()) return true;  // defensive
  for (std::size_t k = 0; k < da.size(); ++k) {
    const DimSection& x = da[k];
    const DimSection& y = db[k];
    if (std::max(x.lo, y.lo) > std::min(x.hi, y.hi)) return false;  // ranges disjoint
    const long long g = gcdNZ(x.stride, y.stride);
    if (g > 1 && (x.lo - y.lo) % g != 0) return false;  // GCD test on strides
  }
  return true;
}

bool SectionAnalysis::covers(const SectionInfo& writer, const ArraySection& target,
                             const Type& type) {
  if (!writer.mustCover()) return false;
  return containsSection(writer.hull, target, type);
}

long long SectionAnalysis::sectionBytes(const ArraySection& s, const Type& type) {
  if (s.whole || type.dims.empty()) return type.byteSize();
  long long elems = 1;
  for (const DimSection& d : materialize(s, type)) elems *= d.count();
  return elems * type.elementBytes();
}

long long SectionAnalysis::overlapBytes(const ArraySection& a, const ArraySection& b,
                                        const Type& type) {
  const std::vector<DimSection> da = materialize(a, type);
  const std::vector<DimSection> db = materialize(b, type);
  if (da.size() != db.size()) return std::min(sectionBytes(a, type), sectionBytes(b, type));
  long long elems = 1;
  for (std::size_t k = 0; k < da.size(); ++k) {
    const DimSection& x = da[k];
    const DimSection& y = db[k];
    const long long lo = std::max(x.lo, y.lo);
    const long long hi = std::min(x.hi, y.hi);
    if (lo > hi) return 0;
    const long long g = gcdNZ(x.stride, y.stride);
    if (g > 1 && (x.lo - y.lo) % g != 0) return 0;
    // The common elements form a progression of stride lcm within [lo, hi]:
    // an upper bound on the count suffices for payload sizing.
    const long long l = x.stride / g * y.stride;
    long long count = (hi - lo) / l + 1;
    count = std::min({count, x.count(), y.count()});
    elems *= count;
  }
  return std::min(elems * type.elementBytes(),
                  std::min(sectionBytes(a, type), sectionBytes(b, type)));
}

std::string SectionAnalysis::toString(const ArraySection& s) {
  if (s.whole) return "whole";
  std::string out;
  for (const DimSection& d : s.dims)
    out += strings::format("[%lld:%lld:%lld]", d.lo, d.hi, d.stride);
  return out.empty() ? "whole" : out;
}

}  // namespace hetpar::ir
