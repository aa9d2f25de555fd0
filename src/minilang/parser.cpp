#include "minilang/parser.hpp"

#include <algorithm>

#include "minilang/lexer.hpp"

namespace lisa::minilang {
namespace {

class Parser {
 public:
  Parser(TokenList tokens, Program* program) : tokens_(std::move(tokens)), program_(program) {}

  Program parse_program(std::string_view source) {
    Program program;
    program.source = std::string(source);
    program_ = &program;
    while (!check(TokenKind::kEof)) {
      std::vector<std::string> annotations;
      while (accept(TokenKind::kAt)) {
        annotations.emplace_back(expect(TokenKind::kIdent, "annotation name").text);
      }
      if (check(TokenKind::kStruct)) {
        if (!annotations.empty()) fail("annotations are only allowed on functions");
        program.structs.push_back(parse_struct());
      } else if (check(TokenKind::kFn)) {
        FuncDecl fn = parse_function();
        fn.annotations = std::move(annotations);
        program.functions.push_back(std::move(fn));
      } else {
        fail("expected 'struct' or 'fn' at top level");
      }
    }
    program.index_declarations();
    return program;
  }

  ExprPtr parse_single_expression() {
    ExprPtr expr = parse_expr();
    if (!check(TokenKind::kEof)) fail("trailing tokens after expression");
    return expr;
  }

 private:
  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const {
    const std::size_t index = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[index];
  }

  [[nodiscard]] bool check(TokenKind kind) const { return peek().kind == kind; }

  const Token& advance() {
    const Token& token = tokens_[pos_];
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return token;
  }

  bool accept(TokenKind kind) {
    if (!check(kind)) return false;
    advance();
    return true;
  }

  const Token& expect(TokenKind kind, const char* what) {
    if (!check(kind))
      fail(std::string("expected ") + what + ", found " + token_kind_name(peek().kind));
    return advance();
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError(message, peek().loc);
  }

  [[noreturn]] void fail_nesting() const {
    fail("nesting deeper than " + std::to_string(kMaxNesting) + " levels");
  }

  /// One level of parser recursion, held while a statement, expression,
  /// unary operand or type argument is parsed.
  struct Nest {
    explicit Nest(Parser& parser) : depth(parser.depth_) {
      if (++depth > kMaxNesting) parser.fail_nesting();
    }
    ~Nest() { --depth; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;
    int& depth;
  };

  /// `expr`, a new link of an operator chain, whose tree is `height` tall.
  /// Chains grow the tree without recursing, so the parser's depth alone
  /// does not bound its height.
  ExprPtr link(ExprPtr expr, int height) {
    if (height > kMaxNesting) fail_nesting();
    height_ = height;
    return expr;
  }

  // -- Declarations ---------------------------------------------------------

  StructDecl parse_struct() {
    StructDecl decl;
    decl.loc = peek().loc;
    expect(TokenKind::kStruct, "'struct'");
    decl.name = expect(TokenKind::kIdent, "struct name").text;
    expect(TokenKind::kLBrace, "'{'");
    while (!accept(TokenKind::kRBrace)) {
      FieldDecl field;
      field.name = expect(TokenKind::kIdent, "field name").text;
      expect(TokenKind::kColon, "':'");
      field.type = parse_type();
      expect(TokenKind::kSemi, "';'");
      decl.fields.push_back(std::move(field));
    }
    return decl;
  }

  FuncDecl parse_function() {
    FuncDecl fn;
    fn.loc = peek().loc;
    expect(TokenKind::kFn, "'fn'");
    fn.name = expect(TokenKind::kIdent, "function name").text;
    expect(TokenKind::kLParen, "'('");
    if (!check(TokenKind::kRParen)) {
      do {
        Param param;
        param.name = expect(TokenKind::kIdent, "parameter name").text;
        expect(TokenKind::kColon, "':'");
        param.type = parse_type();
        fn.params.push_back(std::move(param));
      } while (accept(TokenKind::kComma));
    }
    expect(TokenKind::kRParen, "')'");
    if (accept(TokenKind::kArrow)) {
      fn.return_type = parse_type();
    } else {
      fn.return_type = Type::make_void();
    }
    fn.body = parse_block();
    return fn;
  }

  TypePtr parse_type() {
    const Nest nest(*this);
    TypePtr base;
    const Token& token = peek();
    if (token.kind == TokenKind::kIdent) {
      const std::string_view name = token.text;
      if (name == "int") {
        advance();
        base = Type::make_int();
      } else if (name == "bool") {
        advance();
        base = Type::make_bool();
      } else if (name == "string") {
        advance();
        base = Type::make_string();
      } else if (name == "void") {
        advance();
        base = Type::make_void();
      } else if (name == "any") {
        advance();
        base = Type::make_any();
      } else if (name == "list") {
        advance();
        expect(TokenKind::kLt, "'<'");
        TypePtr elem = parse_type();
        expect(TokenKind::kGt, "'>'");
        base = Type::make_list(std::move(elem));
      } else if (name == "map") {
        advance();
        expect(TokenKind::kLt, "'<'");
        TypePtr key = parse_type();
        expect(TokenKind::kComma, "','");
        TypePtr value = parse_type();
        expect(TokenKind::kGt, "'>'");
        base = Type::make_map(std::move(key), std::move(value));
      } else {
        advance();
        base = Type::make_struct(std::string(name), /*nullable=*/false);
      }
    } else {
      fail("expected type name");
    }
    if (accept(TokenKind::kQuestion)) return Type::as_nullable(base);
    return base;
  }

  // -- Statements -----------------------------------------------------------

  std::vector<StmtPtr> parse_block() {
    expect(TokenKind::kLBrace, "'{'");
    std::vector<StmtPtr> stmts;
    while (!accept(TokenKind::kRBrace)) stmts.push_back(parse_stmt());
    return stmts;
  }

  StmtPtr make_stmt(Stmt::Kind kind, SourceLoc loc) {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = kind;
    stmt->loc = loc;
    stmt->id = program_ ? program_->next_stmt_id++ : -1;
    return stmt;
  }

  StmtPtr parse_stmt() {
    const Nest nest(*this);
    const SourceLoc loc = peek().loc;
    switch (peek().kind) {
      case TokenKind::kLet: {
        advance();
        StmtPtr stmt = make_stmt(Stmt::Kind::kLet, loc);
        stmt->name = expect(TokenKind::kIdent, "variable name").text;
        if (accept(TokenKind::kColon)) stmt->declared_type = parse_type();
        expect(TokenKind::kAssign, "'='");
        stmt->expr = parse_expr();
        expect(TokenKind::kSemi, "';'");
        return stmt;
      }
      case TokenKind::kIf: {
        advance();
        StmtPtr stmt = make_stmt(Stmt::Kind::kIf, loc);
        expect(TokenKind::kLParen, "'('");
        stmt->expr = parse_expr();
        expect(TokenKind::kRParen, "')'");
        stmt->body = parse_block();
        if (accept(TokenKind::kElse)) {
          if (check(TokenKind::kIf)) {
            stmt->else_body.push_back(parse_stmt());
          } else {
            stmt->else_body = parse_block();
          }
        }
        return stmt;
      }
      case TokenKind::kWhile: {
        advance();
        StmtPtr stmt = make_stmt(Stmt::Kind::kWhile, loc);
        expect(TokenKind::kLParen, "'('");
        stmt->expr = parse_expr();
        expect(TokenKind::kRParen, "')'");
        stmt->body = parse_block();
        return stmt;
      }
      case TokenKind::kSync: {
        advance();
        StmtPtr stmt = make_stmt(Stmt::Kind::kSync, loc);
        expect(TokenKind::kLParen, "'('");
        stmt->expr = parse_expr();
        expect(TokenKind::kRParen, "')'");
        stmt->body = parse_block();
        return stmt;
      }
      case TokenKind::kSpawn: {
        advance();
        StmtPtr stmt = make_stmt(Stmt::Kind::kSpawn, loc);
        stmt->expr = parse_expr();
        if (stmt->expr->kind != Expr::Kind::kCall)
          fail("spawn expects a function call");
        expect(TokenKind::kSemi, "';'");
        return stmt;
      }
      case TokenKind::kReturn: {
        advance();
        StmtPtr stmt = make_stmt(Stmt::Kind::kReturn, loc);
        if (!check(TokenKind::kSemi)) stmt->expr = parse_expr();
        expect(TokenKind::kSemi, "';'");
        return stmt;
      }
      case TokenKind::kThrow: {
        advance();
        StmtPtr stmt = make_stmt(Stmt::Kind::kThrow, loc);
        stmt->expr = parse_expr();
        expect(TokenKind::kSemi, "';'");
        return stmt;
      }
      case TokenKind::kTry: {
        advance();
        StmtPtr stmt = make_stmt(Stmt::Kind::kTry, loc);
        stmt->body = parse_block();
        expect(TokenKind::kCatch, "'catch'");
        expect(TokenKind::kLParen, "'('");
        stmt->catch_var = expect(TokenKind::kIdent, "catch variable").text;
        expect(TokenKind::kRParen, "')'");
        stmt->else_body = parse_block();
        return stmt;
      }
      case TokenKind::kBreak: {
        advance();
        expect(TokenKind::kSemi, "';'");
        return make_stmt(Stmt::Kind::kBreak, loc);
      }
      case TokenKind::kContinue: {
        advance();
        expect(TokenKind::kSemi, "';'");
        return make_stmt(Stmt::Kind::kContinue, loc);
      }
      case TokenKind::kLBrace: {
        StmtPtr stmt = make_stmt(Stmt::Kind::kBlock, loc);
        stmt->body = parse_block();
        return stmt;
      }
      default: {
        // Either an assignment (lvalue = rhs;) or a bare expression statement.
        ExprPtr expr = parse_expr();
        if (accept(TokenKind::kAssign)) {
          if (expr->kind != Expr::Kind::kVar && expr->kind != Expr::Kind::kField &&
              expr->kind != Expr::Kind::kIndex)
            fail("left side of '=' is not assignable");
          StmtPtr stmt = make_stmt(Stmt::Kind::kAssign, loc);
          stmt->expr = std::move(expr);
          stmt->expr2 = parse_expr();
          expect(TokenKind::kSemi, "';'");
          return stmt;
        }
        StmtPtr stmt = make_stmt(Stmt::Kind::kExpr, loc);
        stmt->expr = std::move(expr);
        expect(TokenKind::kSemi, "';'");
        return stmt;
      }
    }
  }

  // -- Expressions ----------------------------------------------------------
  // Precedence (low→high): || , && , ==/!= , relational , +/- , * / % , unary,
  // postfix (call/field/index), primary. Each parse_* that returns an
  // expression leaves the height of its tree in height_.

  ExprPtr make_expr(Expr::Kind kind, SourceLoc loc) {
    auto expr = std::make_unique<Expr>();
    expr->kind = kind;
    expr->loc = loc;
    return expr;
  }

  ExprPtr parse_expr() {
    const Nest nest(*this);
    return parse_binary(1);
  }

  /// The binary operator `kind` spells and its precedence, from 1 (`||`) to
  /// 6 (`*`), or precedence 0 when `kind` is no binary operator.
  static std::pair<BinOp, int> binary_operator(TokenKind kind) {
    switch (kind) {
      case TokenKind::kOrOr: return {BinOp::kOr, 1};
      case TokenKind::kAndAnd: return {BinOp::kAnd, 2};
      case TokenKind::kEq: return {BinOp::kEq, 3};
      case TokenKind::kNe: return {BinOp::kNe, 3};
      case TokenKind::kLt: return {BinOp::kLt, 4};
      case TokenKind::kLe: return {BinOp::kLe, 4};
      case TokenKind::kGt: return {BinOp::kGt, 4};
      case TokenKind::kGe: return {BinOp::kGe, 4};
      case TokenKind::kPlus: return {BinOp::kAdd, 5};
      case TokenKind::kMinus: return {BinOp::kSub, 5};
      case TokenKind::kStar: return {BinOp::kMul, 6};
      case TokenKind::kSlash: return {BinOp::kDiv, 6};
      case TokenKind::kPercent: return {BinOp::kMod, 6};
      default: return {BinOp::kAdd, 0};
    }
  }

  /// A left-associative chain of unary operands joined by binary operators
  /// of precedence `min_precedence` or higher; a tighter operator's chain is
  /// an operand of a looser one.
  ExprPtr parse_binary(int min_precedence) {
    ExprPtr lhs = parse_unary();
    while (true) {
      const auto [op, precedence] = binary_operator(peek().kind);
      if (precedence < min_precedence) return lhs;
      advance();
      const int lhs_height = height_;
      ExprPtr rhs = parse_binary(precedence + 1);
      auto expr = make_expr(Expr::Kind::kBinary, lhs->loc);
      expr->bin_op = op;
      expr->args.reserve(2);
      expr->args.push_back(std::move(lhs));
      expr->args.push_back(std::move(rhs));
      lhs = link(std::move(expr), std::max(lhs_height, height_) + 1);
    }
  }

  ExprPtr parse_unary() {
    const SourceLoc loc = peek().loc;
    UnOp op = UnOp::kNot;
    if (accept(TokenKind::kMinus)) {
      op = UnOp::kNeg;
    } else if (!accept(TokenKind::kBang)) {
      return parse_postfix();
    }
    const Nest nest(*this);
    auto expr = make_expr(Expr::Kind::kUnary, loc);
    expr->un_op = op;
    expr->args.push_back(parse_unary());
    ++height_;
    return expr;
  }

  ExprPtr parse_postfix() {
    ExprPtr expr = parse_primary();
    while (true) {
      const SourceLoc loc = peek().loc;
      if (accept(TokenKind::kDot)) {
        const std::string_view member = expect(TokenKind::kIdent, "member name").text;
        if (check(TokenKind::kLParen)) {
          // Method-call sugar: `recv.f(a, b)` desugars to `f(recv, a, b)`.
          auto call = make_expr(Expr::Kind::kCall, loc);
          call->text = member;
          const int receiver_height = height_;
          call->args.push_back(std::move(expr));
          const int args_height = parse_call_args(*call);
          expr = link(std::move(call), std::max(receiver_height, args_height) + 1);
        } else {
          auto field = make_expr(Expr::Kind::kField, loc);
          field->text = member;
          field->args.push_back(std::move(expr));
          expr = link(std::move(field), height_ + 1);
        }
      } else if (accept(TokenKind::kLBracket)) {
        const int base_height = height_;
        auto index = make_expr(Expr::Kind::kIndex, loc);
        index->args.reserve(2);
        index->args.push_back(std::move(expr));
        index->args.push_back(parse_expr());
        expect(TokenKind::kRBracket, "']'");
        expr = link(std::move(index), std::max(base_height, height_) + 1);
      } else {
        return expr;
      }
    }
  }

  /// Parses `(a, b, ...)` onto `call`'s arguments; returns the height of the
  /// tallest argument parsed, or 0 for none.
  int parse_call_args(Expr& call) {
    expect(TokenKind::kLParen, "'('");
    int tallest = 0;
    if (!check(TokenKind::kRParen)) {
      do {
        call.args.push_back(parse_expr());
        tallest = std::max(tallest, height_);
      } while (accept(TokenKind::kComma));
    }
    expect(TokenKind::kRParen, "')'");
    return tallest;
  }

  ExprPtr parse_primary() {
    const Token& token = peek();
    const SourceLoc loc = token.loc;
    height_ = 1;
    switch (token.kind) {
      case TokenKind::kIntLit: {
        advance();
        auto expr = make_expr(Expr::Kind::kIntLit, loc);
        expr->int_value = token.int_value;
        return expr;
      }
      case TokenKind::kStrLit: {
        advance();
        auto expr = make_expr(Expr::Kind::kStrLit, loc);
        expr->text = token.text;
        return expr;
      }
      case TokenKind::kTrue:
      case TokenKind::kFalse: {
        const bool value = token.kind == TokenKind::kTrue;
        advance();
        auto expr = make_expr(Expr::Kind::kBoolLit, loc);
        expr->bool_value = value;
        return expr;
      }
      case TokenKind::kNull:
        advance();
        return make_expr(Expr::Kind::kNullLit, loc);
      case TokenKind::kNew: {
        advance();
        auto expr = make_expr(Expr::Kind::kNew, loc);
        expr->text = expect(TokenKind::kIdent, "struct name").text;
        expect(TokenKind::kLBrace, "'{'");
        int tallest = 0;
        if (!check(TokenKind::kRBrace)) {
          do {
            expr->field_names.emplace_back(expect(TokenKind::kIdent, "field name").text);
            expect(TokenKind::kColon, "':'");
            expr->args.push_back(parse_expr());
            tallest = std::max(tallest, height_);
          } while (accept(TokenKind::kComma));
        }
        expect(TokenKind::kRBrace, "'}'");
        height_ = tallest + 1;
        return expr;
      }
      case TokenKind::kLParen: {
        advance();
        ExprPtr expr = parse_expr();
        expect(TokenKind::kRParen, "')'");
        return expr;
      }
      case TokenKind::kIdent: {
        const std::string_view name = token.text;
        advance();
        if (check(TokenKind::kLParen)) {
          auto call = make_expr(Expr::Kind::kCall, loc);
          call->text = name;
          height_ = parse_call_args(*call) + 1;
          return call;
        }
        auto var = make_expr(Expr::Kind::kVar, loc);
        var->text = name;
        return var;
      }
      default:
        fail(std::string("expected expression, found ") + token_kind_name(token.kind));
    }
  }

  TokenList tokens_;
  std::size_t pos_ = 0;
  Program* program_;
  int depth_ = 0;   // Nest levels currently open
  int height_ = 0;  // height of the tree the last expression parse returned
};

}  // namespace

Program parse(std::string_view source, std::size_t& token_count) {
  TokenList tokens = lex(source);
  token_count = tokens.size();
  Parser parser(std::move(tokens), nullptr);
  return parser.parse_program(source);
}

Program parse(std::string_view source) {
  std::size_t token_count = 0;
  return parse(source, token_count);
}

ExprPtr parse_expression(std::string_view source) {
  Parser parser(lex(source), nullptr);
  return parser.parse_single_expression();
}

}  // namespace lisa::minilang
