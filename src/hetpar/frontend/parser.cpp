#include "hetpar/frontend/parser.hpp"

#include <limits>
#include <string_view>
#include <utility>

#include "hetpar/frontend/lexer.hpp"
#include "hetpar/support/error.hpp"
#include "hetpar/support/strings.hpp"

namespace hetpar::frontend {

namespace {

/// Binary operator spellings by precedence level, loosest first.
struct BinaryOpSpelling {
  std::string_view text;
  BinaryOp op;
  int level;
};
constexpr BinaryOpSpelling kBinaryOps[] = {
    {"||", BinaryOp::Or, 0},  {"&&", BinaryOp::And, 1}, {"==", BinaryOp::Eq, 2},
    {"!=", BinaryOp::Ne, 2},  {"<", BinaryOp::Lt, 3},   {"<=", BinaryOp::Le, 3},
    {">", BinaryOp::Gt, 3},   {">=", BinaryOp::Ge, 3},  {"+", BinaryOp::Add, 4},
    {"-", BinaryOp::Sub, 4},  {"*", BinaryOp::Mul, 5},  {"/", BinaryOp::Div, 5},
    {"%", BinaryOp::Mod, 5},
};
/// The level past the tightest binary operator: prefix operators.
constexpr int kUnaryLevel = 6;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Program parse() {
    Program program;
    while (!peek().is(TokenKind::EndOfFile)) {
      // Both globals and functions start with `type identifier`; disambiguate
      // on the token after the name.
      const Type type = parseType();
      const Token nameTok = expectIdentifier("declaration name");
      if (peek().isPunct("(")) {
        program.functions.push_back(parseFunctionRest(type, nameTok));
      } else {
        program.globals.push_back(parseDeclRest(type, nameTok));
      }
    }
    return program;
  }

 private:
  /// One more level of syntax-tree nesting for the guard's lifetime.
  struct Nest {
    explicit Nest(Parser& p) : parser(p) { parser.deeper(); }
    ~Nest() { --parser.depth_; }
    Nest(const Nest&) = delete;
    Parser& parser;
  };

  /// Rejects input nested deeper than kMaxNestingDepth before this recursive
  /// descent (or the recursive passes after it) can exhaust the stack.
  void deeper() {
    if (++depth_ > kMaxNestingDepth)
      fail(strings::format("nesting deeper than %d levels", kMaxNestingDepth));
  }

  // --- token plumbing -------------------------------------------------------
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& advance() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }

  [[noreturn]] void fail(const std::string& what) const {
    const Token& t = peek();
    throw ParseError(strings::format("parse error at line %d column %d: %s (got '%s')",
                                     t.loc.line, t.loc.column, what.c_str(),
                                     t.kind == TokenKind::EndOfFile ? "<eof>" : t.text.c_str()));
  }

  const Token& expectPunct(std::string_view p) {
    if (!peek().isPunct(p)) fail("expected '" + std::string(p) + "'");
    return advance();
  }

  Token expectIdentifier(const std::string& what) {
    if (!peek().is(TokenKind::Identifier)) fail("expected " + what);
    return advance();
  }

  bool consumePunct(std::string_view p) {
    if (peek().isPunct(p)) {
      advance();
      return true;
    }
    return false;
  }

  // --- types ----------------------------------------------------------------
  bool peekIsTypeKeyword() const {
    return peek().isKeyword("int") || peek().isKeyword("float") || peek().isKeyword("double") ||
           peek().isKeyword("void");
  }

  Type parseType() {
    if (!peekIsTypeKeyword()) fail("expected type");
    const Token& t = advance();
    Type type;
    if (t.text == "int") type.scalar = ScalarType::Int;
    else if (t.text == "float") type.scalar = ScalarType::Float;
    else if (t.text == "double") type.scalar = ScalarType::Double;
    else type.scalar = ScalarType::Void;
    return type;
  }

  /// Parses `[N]` suffixes after a declared name.
  void parseArrayDims(Type& type) {
    while (peek().isPunct("[")) {
      advance();
      if (!peek().is(TokenKind::IntLiteral)) fail("expected constant array dimension");
      const long long dim = peek().intValue;
      if (dim < 1 || dim > std::numeric_limits<int>::max())
        fail("array dimension must be between 1 and 2147483647");
      advance();
      type.dims.push_back(static_cast<int>(dim));
      expectPunct("]");
    }
    if (type.dims.size() > 2) fail("mini-C supports at most 2-D arrays");
  }

  // --- declarations -----------------------------------------------------------
  StmtPtr parseDeclRest(Type type, const Token& nameTok) {
    parseArrayDims(type);
    ExprPtr init;
    if (consumePunct("=")) {
      if (type.isArray()) fail("array initializers are not supported");
      init = parseExpr();
    }
    expectPunct(";");
    auto decl = std::make_unique<DeclStmt>(std::move(type), nameTok.text, std::move(init));
    decl->loc = nameTok.loc;
    return decl;
  }

  std::unique_ptr<Function> parseFunctionRest(Type returnType, const Token& nameTok) {
    auto fn = std::make_unique<Function>();
    fn->returnType = std::move(returnType);
    fn->name = nameTok.text;
    fn->loc = nameTok.loc;
    expectPunct("(");
    if (!peek().isPunct(")")) {
      do {
        Param p;
        p.type = parseType();
        p.name = expectIdentifier("parameter name").text;
        parseArrayDims(p.type);
        fn->params.push_back(std::move(p));
      } while (consumePunct(","));
    }
    expectPunct(")");
    expectPunct("{");
    while (!peek().isPunct("}")) fn->body.push_back(parseStmt());
    expectPunct("}");
    return fn;
  }

  // --- statements ---------------------------------------------------------------
  std::vector<StmtPtr> parseStmtBody() {
    std::vector<StmtPtr> body;
    if (consumePunct("{")) {
      while (!peek().isPunct("}")) body.push_back(parseStmt());
      expectPunct("}");
    } else {
      body.push_back(parseStmt());
    }
    return body;
  }

  StmtPtr parseStmt() {
    const Nest nest(*this);
    const SourceLoc loc = peek().loc;
    if (peekIsTypeKeyword()) {
      const Type type = parseType();
      const Token nameTok = expectIdentifier("declaration name");
      return parseDeclRest(type, nameTok);
    }
    if (peek().isKeyword("if")) return parseIf();
    if (peek().isKeyword("for")) return parseFor();
    if (peek().isKeyword("while")) return parseWhile();
    if (peek().isKeyword("return")) {
      advance();
      ExprPtr value;
      if (!peek().isPunct(";")) value = parseExpr();
      expectPunct(";");
      auto s = std::make_unique<ReturnStmt>(std::move(value));
      s->loc = loc;
      return s;
    }
    if (peek().isPunct("{")) {
      auto block = std::make_unique<BlockStmt>();
      block->loc = loc;
      block->body = parseStmtBody();
      return block;
    }
    StmtPtr s = parseSimpleStmt();
    expectPunct(";");
    return s;
  }

  StmtPtr parseIf() {
    const SourceLoc loc = peek().loc;
    advance();  // if
    expectPunct("(");
    auto s = std::make_unique<IfStmt>();
    s->loc = loc;
    s->cond = parseExpr();
    expectPunct(")");
    s->thenBody = parseStmtBody();
    if (peek().isKeyword("else")) {
      advance();
      s->elseBody = parseStmtBody();
    }
    return s;
  }

  StmtPtr parseFor() {
    const SourceLoc loc = peek().loc;
    advance();  // for
    expectPunct("(");
    auto s = std::make_unique<ForStmt>();
    s->loc = loc;
    if (!peek().isPunct(";")) {
      if (peekIsTypeKeyword()) {
        const Type type = parseType();
        const Token nameTok = expectIdentifier("loop variable");
        ExprPtr init;
        if (consumePunct("=")) init = parseExpr();
        auto decl = std::make_unique<DeclStmt>(type, nameTok.text, std::move(init));
        decl->loc = nameTok.loc;
        s->init = std::move(decl);
      } else {
        s->init = parseSimpleStmt();
      }
    }
    expectPunct(";");
    if (!peek().isPunct(";")) s->cond = parseExpr();
    expectPunct(";");
    if (!peek().isPunct(")")) s->step = parseSimpleStmt();
    expectPunct(")");
    s->body = parseStmtBody();
    return s;
  }

  StmtPtr parseWhile() {
    const SourceLoc loc = peek().loc;
    advance();  // while
    expectPunct("(");
    auto s = std::make_unique<WhileStmt>();
    s->loc = loc;
    s->cond = parseExpr();
    expectPunct(")");
    s->body = parseStmtBody();
    return s;
  }

  /// Assignment (incl. compound/increment sugar) or expression statement;
  /// no trailing ';' consumed.
  StmtPtr parseSimpleStmt() {
    const SourceLoc loc = peek().loc;
    if (peek().is(TokenKind::Identifier)) {
      // Look ahead past an optional index list for an assignment operator.
      std::size_t save = pos_;
      const Token nameTok = advance();
      std::vector<ExprPtr> indices;
      while (peek().isPunct("[")) {
        advance();
        indices.push_back(parseExpr());
        expectPunct("]");
      }
      auto makeTargetExpr = [&]() -> ExprPtr {
        if (indices.empty()) return std::make_unique<VarRef>(nameTok.text);
        std::vector<ExprPtr> copy;
        for (const auto& e : indices) copy.push_back(cloneExpr(*e));
        return std::make_unique<IndexExpr>(nameTok.text, std::move(copy));
      };
      const Token& op = peek();
      if (op.isPunct("=")) {
        advance();
        auto s = std::make_unique<AssignStmt>(nameTok.text, std::move(indices), parseExpr());
        s->loc = loc;
        return s;
      }
      if (op.isPunct("+=") || op.isPunct("-=") || op.isPunct("*=") || op.isPunct("/=")) {
        const std::string opText = op.text;
        advance();
        ExprPtr rhs = parseExpr();
        BinaryOp bop = BinaryOp::Add;
        if (opText == "-=") bop = BinaryOp::Sub;
        else if (opText == "*=") bop = BinaryOp::Mul;
        else if (opText == "/=") bop = BinaryOp::Div;
        auto value = std::make_unique<BinaryExpr>(bop, makeTargetExpr(), std::move(rhs));
        auto s = std::make_unique<AssignStmt>(nameTok.text, std::move(indices), std::move(value));
        s->loc = loc;
        return s;
      }
      if (op.isPunct("++") || op.isPunct("--")) {
        const BinaryOp bop = op.isPunct("++") ? BinaryOp::Add : BinaryOp::Sub;
        advance();
        auto value = std::make_unique<BinaryExpr>(bop, makeTargetExpr(),
                                                  std::make_unique<IntLit>(1));
        auto s = std::make_unique<AssignStmt>(nameTok.text, std::move(indices), std::move(value));
        s->loc = loc;
        return s;
      }
      // Not an assignment: rewind and parse as a full expression statement.
      pos_ = save;
    }
    auto s = std::make_unique<ExprStmt>(parseExpr());
    s->loc = loc;
    return s;
  }

  // --- expressions (precedence climbing) -----------------------------------------
  ExprPtr parseExpr() {
    const Nest nest(*this);
    return parseBinary(0);
  }

  /// Left-associative binary operators at `level` and tighter. Each operator
  /// of a chain nests the chain's tree one level deeper.
  ExprPtr parseBinary(int level) {
    if (level == kUnaryLevel) return parseUnary();
    ExprPtr lhs = parseBinary(level + 1);
    const int outer = depth_;
    while (const BinaryOpSpelling* op = peekBinaryOp(level)) {
      advance();
      deeper();
      lhs = std::make_unique<BinaryExpr>(op->op, std::move(lhs), parseBinary(level + 1));
    }
    depth_ = outer;
    return lhs;
  }

  const BinaryOpSpelling* peekBinaryOp(int level) const {
    for (const BinaryOpSpelling& op : kBinaryOps)
      if (op.level == level && peek().isPunct(op.text)) return &op;
    return nullptr;
  }

  ExprPtr parseUnary() {
    const SourceLoc loc = peek().loc;
    if (!peek().isPunct("-") && !peek().isPunct("!") && !peek().isPunct("+"))
      return parsePrimary();
    const Nest nest(*this);
    if (consumePunct("+")) return parseUnary();
    const UnaryOp op = advance().isPunct("-") ? UnaryOp::Neg : UnaryOp::Not;
    auto e = std::make_unique<UnaryExpr>(op, parseUnary());
    e->loc = loc;
    return e;
  }

  ExprPtr parsePrimary() {
    const Token& t = peek();
    if (t.is(TokenKind::IntLiteral)) {
      auto e = std::make_unique<IntLit>(advance().intValue);
      e->loc = t.loc;
      return e;
    }
    if (t.is(TokenKind::FloatLiteral)) {
      auto e = std::make_unique<FloatLit>(advance().floatValue);
      e->loc = t.loc;
      return e;
    }
    if (t.isPunct("(")) {
      advance();
      ExprPtr e = parseExpr();
      expectPunct(")");
      return e;
    }
    if (t.is(TokenKind::Identifier)) {
      const Token nameTok = advance();
      if (consumePunct("(")) {
        std::vector<ExprPtr> args;
        if (!peek().isPunct(")")) {
          do {
            args.push_back(parseExpr());
          } while (consumePunct(","));
        }
        expectPunct(")");
        auto e = std::make_unique<CallExpr>(nameTok.text, std::move(args));
        e->loc = nameTok.loc;
        return e;
      }
      if (peek().isPunct("[")) {
        std::vector<ExprPtr> indices;
        while (consumePunct("[")) {
          indices.push_back(parseExpr());
          expectPunct("]");
        }
        auto e = std::make_unique<IndexExpr>(nameTok.text, std::move(indices));
        e->loc = nameTok.loc;
        return e;
      }
      auto e = std::make_unique<VarRef>(nameTok.text);
      e->loc = nameTok.loc;
      return e;
    }
    fail("expected expression");
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< syntax-tree nesting at the current position
};

}  // namespace

Program parseProgram(std::string_view source) {
  return Parser(tokenize(source)).parse();
}

ExprPtr cloneExpr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::IntLit: {
      const auto& x = static_cast<const IntLit&>(e);
      auto out = std::make_unique<IntLit>(x.value);
      out->loc = e.loc;
      return out;
    }
    case ExprKind::FloatLit: {
      const auto& x = static_cast<const FloatLit&>(e);
      auto out = std::make_unique<FloatLit>(x.value);
      out->loc = e.loc;
      return out;
    }
    case ExprKind::VarRef: {
      const auto& x = static_cast<const VarRef&>(e);
      auto out = std::make_unique<VarRef>(x.name);
      out->loc = e.loc;
      return out;
    }
    case ExprKind::Index: {
      const auto& x = static_cast<const IndexExpr&>(e);
      std::vector<ExprPtr> idx;
      for (const auto& i : x.indices) idx.push_back(cloneExpr(*i));
      auto out = std::make_unique<IndexExpr>(x.name, std::move(idx));
      out->loc = e.loc;
      return out;
    }
    case ExprKind::Unary: {
      const auto& x = static_cast<const UnaryExpr&>(e);
      auto out = std::make_unique<UnaryExpr>(x.op, cloneExpr(*x.operand));
      out->loc = e.loc;
      return out;
    }
    case ExprKind::Binary: {
      const auto& x = static_cast<const BinaryExpr&>(e);
      auto out = std::make_unique<BinaryExpr>(x.op, cloneExpr(*x.lhs), cloneExpr(*x.rhs));
      out->loc = e.loc;
      return out;
    }
    case ExprKind::Call: {
      const auto& x = static_cast<const CallExpr&>(e);
      std::vector<ExprPtr> args;
      for (const auto& a : x.args) args.push_back(cloneExpr(*a));
      auto out = std::make_unique<CallExpr>(x.callee, std::move(args));
      out->loc = e.loc;
      return out;
    }
  }
  throw InternalError("cloneExpr: unknown expression kind");
}

}  // namespace hetpar::frontend
