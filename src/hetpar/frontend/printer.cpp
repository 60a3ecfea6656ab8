#include "hetpar/frontend/printer.hpp"

#include <sstream>

#include "hetpar/support/error.hpp"

namespace hetpar::frontend {

namespace {

const char* binOpText(BinaryOp op) {
  switch (op) {
    case BinaryOp::Add: return "+";
    case BinaryOp::Sub: return "-";
    case BinaryOp::Mul: return "*";
    case BinaryOp::Div: return "/";
    case BinaryOp::Mod: return "%";
    case BinaryOp::Lt: return "<";
    case BinaryOp::Le: return "<=";
    case BinaryOp::Gt: return ">";
    case BinaryOp::Ge: return ">=";
    case BinaryOp::Eq: return "==";
    case BinaryOp::Ne: return "!=";
    case BinaryOp::And: return "&&";
    case BinaryOp::Or: return "||";
  }
  return "?";
}

void printExprTo(std::ostringstream& os, const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::IntLit:
      os << static_cast<const IntLit&>(expr).value;
      break;
    case ExprKind::FloatLit: {
      std::ostringstream tmp;
      tmp << static_cast<const FloatLit&>(expr).value;
      std::string s = tmp.str();
      os << s;
      if (s.find('.') == std::string::npos && s.find('e') == std::string::npos) os << ".0";
      break;
    }
    case ExprKind::VarRef:
      os << static_cast<const VarRef&>(expr).name;
      break;
    case ExprKind::Index: {
      const auto& e = static_cast<const IndexExpr&>(expr);
      os << e.name;
      for (const auto& i : e.indices) {
        os << "[";
        printExprTo(os, *i);
        os << "]";
      }
      break;
    }
    case ExprKind::Unary: {
      const auto& e = static_cast<const UnaryExpr&>(expr);
      os << (e.op == UnaryOp::Neg ? "-" : "!") << "(";
      printExprTo(os, *e.operand);
      os << ")";
      break;
    }
    case ExprKind::Binary: {
      const auto& e = static_cast<const BinaryExpr&>(expr);
      os << "(";
      printExprTo(os, *e.lhs);
      os << " " << binOpText(e.op) << " ";
      printExprTo(os, *e.rhs);
      os << ")";
      break;
    }
    case ExprKind::Call: {
      const auto& e = static_cast<const CallExpr&>(expr);
      os << e.callee << "(";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i) os << ", ";
        printExprTo(os, *e.args[i]);
      }
      os << ")";
      break;
    }
  }
}

std::string typePrefix(const Type& t) {
  switch (t.scalar) {
    case ScalarType::Int: return "int";
    case ScalarType::Float: return "float";
    case ScalarType::Double: return "double";
    case ScalarType::Void: return "void";
  }
  return "?";
}

std::string declText(const Type& t, const std::string& name) {
  std::string out = typePrefix(t) + " " + name;
  for (int d : t.dims) out.append("[").append(std::to_string(d)).append("]");
  return out;
}

class StmtPrinter {
 public:
  explicit StmtPrinter(const PrintHooks* hooks) : hooks_(hooks) {}

  void print(std::ostringstream& os, const Stmt& stmt, int indent) {
    if (hooks_ && hooks_->beforeStmt) {
      const std::string extra = hooks_->beforeStmt(stmt);
      if (!extra.empty()) {
        for (const char c : extra) {
          if (atLineStart_) {
            os << pad(indent);
            atLineStart_ = false;
          }
          os << c;
          if (c == '\n') atLineStart_ = true;
        }
        if (!atLineStart_) os << "\n";
        atLineStart_ = true;
      }
    }
    atLineStart_ = true;
    switch (stmt.kind) {
      case StmtKind::Decl: {
        const auto& s = static_cast<const DeclStmt&>(stmt);
        os << pad(indent) << declText(s.type, s.name);
        if (s.init) {
          os << " = ";
          printExprTo(os, *s.init);
        }
        os << ";\n";
        break;
      }
      case StmtKind::Assign: {
        const auto& s = static_cast<const AssignStmt&>(stmt);
        os << pad(indent) << s.target;
        for (const auto& i : s.indices) {
          os << "[";
          printExprTo(os, *i);
          os << "]";
        }
        os << " = ";
        printExprTo(os, *s.value);
        os << ";\n";
        break;
      }
      case StmtKind::If: {
        const auto& s = static_cast<const IfStmt&>(stmt);
        os << pad(indent) << "if (";
        printExprTo(os, *s.cond);
        os << ") {\n";
        for (const auto& c : s.thenBody) print(os, *c, indent + 1);
        os << pad(indent) << "}";
        if (!s.elseBody.empty()) {
          os << " else {\n";
          for (const auto& c : s.elseBody) print(os, *c, indent + 1);
          os << pad(indent) << "}";
        }
        os << "\n";
        break;
      }
      case StmtKind::For: {
        const auto& s = static_cast<const ForStmt&>(stmt);
        os << pad(indent) << "for (";
        if (s.init) os << inlineStmt(*s.init);
        os << "; ";
        if (s.cond) printExprTo(os, *s.cond);
        os << "; ";
        if (s.step) os << inlineStmt(*s.step);
        os << ") {\n";
        for (const auto& c : s.body) print(os, *c, indent + 1);
        os << pad(indent) << "}\n";
        break;
      }
      case StmtKind::While: {
        const auto& s = static_cast<const WhileStmt&>(stmt);
        os << pad(indent) << "while (";
        printExprTo(os, *s.cond);
        os << ") {\n";
        for (const auto& c : s.body) print(os, *c, indent + 1);
        os << pad(indent) << "}\n";
        break;
      }
      case StmtKind::Return: {
        const auto& s = static_cast<const ReturnStmt&>(stmt);
        os << pad(indent) << "return";
        if (s.value) {
          os << " ";
          printExprTo(os, *s.value);
        }
        os << ";\n";
        break;
      }
      case StmtKind::Expr: {
        const auto& s = static_cast<const ExprStmt&>(stmt);
        os << pad(indent);
        printExprTo(os, *s.expr);
        os << ";\n";
        break;
      }
      case StmtKind::Block: {
        const auto& s = static_cast<const BlockStmt&>(stmt);
        os << pad(indent) << "{\n";
        for (const auto& c : s.body) print(os, *c, indent + 1);
        os << pad(indent) << "}\n";
        break;
      }
    }
  }

 private:
  static std::string pad(int indent) { return std::string(static_cast<std::size_t>(indent) * 2, ' '); }

  /// Header-position rendering (no indentation, no trailing ';').
  std::string inlineStmt(const Stmt& stmt) {
    std::ostringstream os;
    if (stmt.kind == StmtKind::Decl) {
      const auto& s = static_cast<const DeclStmt&>(stmt);
      os << declText(s.type, s.name);
      if (s.init) {
        os << " = ";
        printExprTo(os, *s.init);
      }
    } else if (stmt.kind == StmtKind::Assign) {
      const auto& s = static_cast<const AssignStmt&>(stmt);
      os << s.target;
      for (const auto& i : s.indices) {
        os << "[";
        printExprTo(os, *i);
        os << "]";
      }
      os << " = ";
      printExprTo(os, *s.value);
    } else {
      throw InternalError("unsupported statement in for-header position");
    }
    return os.str();
  }

  const PrintHooks* hooks_;
  bool atLineStart_ = true;
};

}  // namespace

std::string printExpr(const Expr& expr) {
  std::ostringstream os;
  printExprTo(os, expr);
  return os.str();
}

std::string printStmt(const Stmt& stmt, int indent, const PrintHooks* hooks) {
  std::ostringstream os;
  StmtPrinter(hooks).print(os, stmt, indent);
  return os.str();
}

std::string printProgram(const Program& program, const PrintHooks* hooks) {
  std::ostringstream os;
  StmtPrinter printer(hooks);
  for (const auto& g : program.globals) printer.print(os, *g, 0);
  if (!program.globals.empty()) os << "\n";
  for (const auto& f : program.functions) {
    os << typePrefix(f->returnType) << " " << f->name << "(";
    for (std::size_t i = 0; i < f->params.size(); ++i) {
      if (i) os << ", ";
      os << declText(f->params[i].type, f->params[i].name);
    }
    os << ") {\n";
    for (const auto& s : f->body) printer.print(os, *s, 1);
    os << "}\n\n";
  }
  return os.str();
}

}  // namespace hetpar::frontend
