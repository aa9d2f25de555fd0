// Recursive-descent parser for MiniLang.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "minilang/ast.hpp"

namespace lisa::minilang {

/// Error thrown for syntactically invalid programs.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, SourceLoc loc)
      : std::runtime_error(message + " at line " + std::to_string(loc.line) + ":" +
                           std::to_string(loc.column)),
        loc_(loc) {}
  [[nodiscard]] SourceLoc loc() const noexcept { return loc_; }

 private:
  SourceLoc loc_;
};

/// Deepest nesting the parser accepts, so that neither the parser nor a pass
/// that walks the tree exhausts the stack. Each statement, expression, unary
/// operand and type argument opens one level of parser recursion, and no
/// expression tree may be taller: operator chains such as `a + b + c` and
/// `a.b.c` add one level per operator. Deeper input throws ParseError; the
/// corpus needs at most 6 levels.
inline constexpr int kMaxNesting = 256;

/// Parses a complete MiniLang compilation unit.
/// Throws LexError / ParseError on malformed input.
[[nodiscard]] Program parse(std::string_view source);

/// parse(source), also setting `token_count` to the number of tokens read.
[[nodiscard]] Program parse(std::string_view source, std::size_t& token_count);

/// Parses a single expression (used by the contract translator to turn
/// condition strings like `s != null && s.is_closing == false` into ASTs).
[[nodiscard]] ExprPtr parse_expression(std::string_view source);

}  // namespace lisa::minilang
