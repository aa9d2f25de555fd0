// Unit tests for the MiniLang lexer, parser, printer, and semantic checker.
#include <gtest/gtest.h>

#include "minilang/lexer.hpp"
#include "minilang/parser.hpp"
#include "minilang/printer.hpp"
#include "minilang/sema.hpp"

namespace lisa::minilang {
namespace {

TEST(Lexer, TokenizesOperatorsAndKeywords) {
  const auto tokens = lex("fn x() { let a = 1 <= 2 && !b; }");
  std::vector<TokenKind> kinds;
  for (const Token& token : tokens) kinds.push_back(token.kind);
  EXPECT_EQ(kinds.front(), TokenKind::kFn);
  EXPECT_EQ(kinds.back(), TokenKind::kEof);
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), TokenKind::kLe), kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), TokenKind::kAndAnd), kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), TokenKind::kBang), kinds.end());
}

TEST(Lexer, SkipsComments) {
  const auto tokens = lex("// a comment\nfn f() {} // trailing");
  EXPECT_EQ(tokens[0].kind, TokenKind::kFn);
}

TEST(Lexer, StringEscapes) {
  const auto tokens = lex(R"("a\n\"b\"")");
  ASSERT_EQ(tokens[0].kind, TokenKind::kStrLit);
  EXPECT_EQ(tokens[0].text, "a\n\"b\"");
}

TEST(Lexer, TracksLineNumbers) {
  const auto tokens = lex("fn\nf\n()");
  EXPECT_EQ(tokens[0].loc.line, 1);
  EXPECT_EQ(tokens[1].loc.line, 2);
}

TEST(Lexer, RejectsStrayCharacters) {
  EXPECT_THROW(lex("fn f() { a # b; }"), LexError);
  EXPECT_THROW(lex("\"unterminated"), LexError);
  EXPECT_THROW(lex("a & b"), LexError);
}

TEST(Lexer, SpellsUnexpectedBytes) {
  // A printable byte is quoted; any other is spelled in hex, so a NUL cannot
  // cut the message short and no control or non-ASCII byte reaches a report.
  const auto message = [](std::string_view source) -> std::string {
    try {
      (void)lex(source);
    } catch (const LexError& error) {
      return error.what();
    }
    return "no error";
  };
  using namespace std::string_view_literals;
  EXPECT_EQ(message("let x = 1;\0 y"sv), "unexpected character 0x00 at line 1:11");
  EXPECT_EQ(message("a\n \x01"), "unexpected character 0x01 at line 2:2");
  EXPECT_EQ(message("a \x80"), "unexpected character 0x80 at line 1:3");
  EXPECT_EQ(message("\xff"), "unexpected character 0xFF at line 1:1");
  EXPECT_EQ(message("a # b"), "unexpected character '#' at line 1:3");
}

TEST(Parser, ParsesStructAndFunction) {
  const Program program = parse(R"(
struct S { x: int; y: bool; nested: S?; items: list<int>; table: map<string, S>; }
@entry
fn f(s: S, n: int) -> bool {
  return s.x == n;
}
)");
  ASSERT_EQ(program.structs.size(), 1u);
  EXPECT_EQ(program.structs[0].fields.size(), 5u);
  EXPECT_TRUE(program.structs[0].fields[2].type->nullable);
  ASSERT_EQ(program.functions.size(), 1u);
  EXPECT_TRUE(program.functions[0].has_annotation("entry"));
  EXPECT_EQ(program.functions[0].return_type->kind, Type::Kind::kBool);
}

TEST(Parser, OperatorPrecedence) {
  const ExprPtr expr = parse_expression("a + b * c == d && e || f");
  // Top-level must be ||.
  ASSERT_EQ(expr->kind, Expr::Kind::kBinary);
  EXPECT_EQ(expr->bin_op, BinOp::kOr);
  EXPECT_EQ(expr_text(*expr), "((((a + (b * c)) == d) && e) || f)");
}

TEST(Parser, MethodCallSugarDesugarsToCall) {
  const ExprPtr expr = parse_expression("server.touch(1, x.y)");
  ASSERT_EQ(expr->kind, Expr::Kind::kCall);
  EXPECT_EQ(expr->text, "touch");
  ASSERT_EQ(expr->args.size(), 3u);
  EXPECT_EQ(expr_text(*expr->args[0]), "server");
  EXPECT_EQ(expr_text(*expr->args[2]), "x.y");
}

TEST(Parser, StatementKinds) {
  const Program program = parse(R"(
fn g(n: int) -> int {
  let total = 0;
  let i = 0;
  while (i < n) {
    if (i % 2 == 0) {
      total = total + i;
    } else {
      total = total - 1;
    }
    i = i + 1;
  }
  sync (total) {
    total = total * 2;
  }
  try {
    throw "boom";
  } catch (e) {
    total = total + 1;
  }
  return total;
}
)");
  const FuncDecl& fn = program.functions[0];
  EXPECT_EQ(fn.body.size(), 6u);
  EXPECT_EQ(fn.body[2]->kind, Stmt::Kind::kWhile);
  EXPECT_EQ(fn.body[3]->kind, Stmt::Kind::kSync);
  EXPECT_EQ(fn.body[4]->kind, Stmt::Kind::kTry);
}

TEST(Parser, AssignsUniqueStatementIds) {
  const Program program = parse("fn f() { let a = 1; let b = 2; if (a == b) { a = 3; } }");
  std::set<int> ids;
  program.for_each_stmt([&](const FuncDecl&, const Stmt& stmt) { ids.insert(stmt.id); });
  EXPECT_EQ(ids.size(), 4u);  // all distinct
}

TEST(Parser, RejectsSyntaxErrors) {
  EXPECT_THROW(parse("fn f( { }"), ParseError);
  EXPECT_THROW(parse("struct S { x }"), ParseError);
  EXPECT_THROW(parse("fn f() { 1 = 2; }"), ParseError);
  EXPECT_THROW(parse_expression("a +"), ParseError);
  EXPECT_THROW(parse_expression("a b"), ParseError);
}

TEST(Printer, RoundTripIsStable) {
  const std::string source = R"(
struct S { x: int; }
fn f(s: S?) -> int {
  if (s == null) {
    return 0 - 1;
  }
  return s.x;
}
)";
  const Program once = parse(source);
  const std::string printed = program_text(once);
  const Program twice = parse(printed);
  EXPECT_EQ(printed, program_text(twice));
}

TEST(Printer, StmtHeaderText) {
  const Program program = parse("fn f(x: int) { if (x > 3) { return; } }");
  EXPECT_EQ(stmt_header_text(*program.functions[0].body[0]), "if ((x > 3))");
}

TEST(Sema, CleanProgramHasNoDiagnostics) {
  const Program program = parse("fn f(x: int) -> int { let y = x + 1; return y; }");
  EXPECT_TRUE(check(program).empty());
}

TEST(Sema, ReportsUnknownVariable) {
  const Program program = parse("fn f() { let y = ghost; }");
  const auto diags = check(program);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("ghost"), std::string::npos);
}

TEST(Sema, ReportsUnknownFunctionAndArity) {
  const Program program = parse("fn f(x: int) { f(1, 2); nothere(); }");
  const auto diags = check(program);
  EXPECT_EQ(diags.size(), 2u);
}

TEST(Sema, ReportsUnknownStructAndField) {
  const Program program =
      parse("struct S { x: int; } fn f() { let a = new S { y: 1 }; let b = new T {}; }");
  const auto diags = check(program);
  EXPECT_EQ(diags.size(), 2u);
}

TEST(Sema, ScopingLetIsBlockLocal) {
  const Program program = parse("fn f(c: bool) { if (c) { let y = 1; } let z = y; }");
  EXPECT_FALSE(check(program).empty());
}

TEST(Sema, CatchVariableInScope) {
  const Program program = parse(R"(fn f() { try { throw "x"; } catch (e) { print(e); } })");
  EXPECT_TRUE(check(program).empty());
}

TEST(Sema, ParseCheckedThrowsOnDiagnostics) {
  EXPECT_THROW(parse_checked("fn f() { let y = ghost; }"), std::runtime_error);
  EXPECT_NO_THROW(parse_checked("fn f() { let y = 1; }"));
}

}  // namespace
}  // namespace lisa::minilang
