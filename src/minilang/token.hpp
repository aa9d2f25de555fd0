// Token definitions for MiniLang.
//
// MiniLang is the analyzable substrate this reproduction uses in place of the
// paper's Java targets: a small statically-typed imperative language with
// structs, nullable references, exceptions and `sync` (synchronized) blocks —
// exactly the features the studied incident code exercises.
#pragma once

#include <cstdint>
#include <string_view>

namespace lisa::minilang {

enum class TokenKind {
  kEof,
  kIdent,
  kIntLit,
  kStrLit,
  // Keywords.
  kStruct,
  kFn,
  kLet,
  kIf,
  kElse,
  kWhile,
  kReturn,
  kThrow,
  kTry,
  kCatch,
  kSync,
  kSpawn,
  kNew,
  kNull,
  kTrue,
  kFalse,
  kBreak,
  kContinue,
  // Punctuation and operators.
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kLBracket,
  kRBracket,
  kComma,
  kSemi,
  kColon,
  kDot,
  kArrow,     // ->
  kAssign,    // =
  kEq,        // ==
  kNe,        // !=
  kLt,
  kLe,
  kGt,
  kGe,
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kPercent,
  kAndAnd,
  kOrOr,
  kBang,
  kQuestion,  // nullable type suffix
  kAt,        // annotation marker
};

/// Returns a human-readable name for diagnostics ("'=='", "identifier", ...).
[[nodiscard]] const char* token_kind_name(TokenKind kind);

struct SourceLoc {
  int line = 0;
  int column = 0;
};

/// One token. `text` is an identifier's name or a string literal's decoded
/// contents, and views the lexed source or the TokenList that holds the
/// token (lexer.hpp); it is empty for every other kind.
struct Token {
  TokenKind kind = TokenKind::kEof;
  std::string_view text;
  std::int64_t int_value = 0;
  SourceLoc loc;
};

}  // namespace lisa::minilang
