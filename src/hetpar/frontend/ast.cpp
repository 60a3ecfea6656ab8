#include "hetpar/frontend/ast.hpp"

#include <array>
#include <sstream>
#include <utility>

#include "hetpar/support/error.hpp"

namespace hetpar::frontend {

long long Type::elementCount() const {
  long long n = 1;
  for (int d : dims) n *= d;
  return n;
}

int Type::elementBytes() const {
  switch (scalar) {
    case ScalarType::Int: return 4;
    case ScalarType::Float: return 4;
    case ScalarType::Double: return 8;
    case ScalarType::Void: return 0;
  }
  return 0;
}

std::string Type::str() const {
  std::ostringstream os;
  switch (scalar) {
    case ScalarType::Int: os << "int"; break;
    case ScalarType::Float: os << "float"; break;
    case ScalarType::Double: os << "double"; break;
    case ScalarType::Void: os << "void"; break;
  }
  for (int d : dims) os << "[" << d << "]";
  return os.str();
}

Builtin builtinFunction(const std::string& name) {
  static const std::array<std::pair<const char*, Builtin>, 7> kBuiltins = {{
      {"sqrt", Builtin::Sqrt},
      {"fabs", Builtin::Fabs},
      {"sin", Builtin::Sin},
      {"cos", Builtin::Cos},
      {"exp", Builtin::Exp},
      {"log", Builtin::Log},
      {"abs", Builtin::Abs},
  }};
  for (const auto& [text, builtin] : kBuiltins)
    if (name == text) return builtin;
  return Builtin::None;
}

Function* Program::findFunction(const std::string& name) const {
  for (const auto& f : functions)
    if (f->name == name) return f.get();
  return nullptr;
}

Function& Program::entry() const {
  Function* f = findFunction("main");
  require<SemaError>(f != nullptr, "program has no 'main' function");
  return *f;
}

void forEachStmt(Stmt& stmt, const std::function<void(Stmt&)>& fn) {
  fn(stmt);
  switch (stmt.kind) {
    case StmtKind::If: {
      auto& s = static_cast<IfStmt&>(stmt);
      for (auto& c : s.thenBody) forEachStmt(*c, fn);
      for (auto& c : s.elseBody) forEachStmt(*c, fn);
      break;
    }
    case StmtKind::For: {
      auto& s = static_cast<ForStmt&>(stmt);
      if (s.init) forEachStmt(*s.init, fn);
      if (s.step) forEachStmt(*s.step, fn);
      for (auto& c : s.body) forEachStmt(*c, fn);
      break;
    }
    case StmtKind::While: {
      auto& s = static_cast<WhileStmt&>(stmt);
      for (auto& c : s.body) forEachStmt(*c, fn);
      break;
    }
    case StmtKind::Block: {
      auto& s = static_cast<BlockStmt&>(stmt);
      for (auto& c : s.body) forEachStmt(*c, fn);
      break;
    }
    default:
      break;
  }
}

void forEachStmt(const Program& program, const std::function<void(Stmt&)>& fn) {
  for (const auto& g : program.globals) forEachStmt(*g, fn);
  for (const auto& f : program.functions)
    for (const auto& s : f->body) forEachStmt(*s, fn);
}

std::vector<Stmt*> childStatements(Stmt& stmt) {
  std::vector<Stmt*> out;
  switch (stmt.kind) {
    case StmtKind::If: {
      auto& s = static_cast<IfStmt&>(stmt);
      for (auto& c : s.thenBody) out.push_back(c.get());
      for (auto& c : s.elseBody) out.push_back(c.get());
      break;
    }
    case StmtKind::For: {
      auto& s = static_cast<ForStmt&>(stmt);
      for (auto& c : s.body) out.push_back(c.get());
      break;
    }
    case StmtKind::While: {
      auto& s = static_cast<WhileStmt&>(stmt);
      for (auto& c : s.body) out.push_back(c.get());
      break;
    }
    case StmtKind::Block: {
      auto& s = static_cast<BlockStmt&>(stmt);
      for (auto& c : s.body) out.push_back(c.get());
      break;
    }
    default:
      break;
  }
  return out;
}

}  // namespace hetpar::frontend
