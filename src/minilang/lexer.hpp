// Hand-written lexer for MiniLang. Produces the full token stream up front;
// MiniLang sources in this repository are small (hundreds of lines), so the
// simplicity is worth more than streaming.
#pragma once

#include <forward_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "minilang/token.hpp"

namespace lisa::minilang {

/// Error thrown for malformed input (unterminated string, stray byte, ...).
class LexError : public std::runtime_error {
 public:
  LexError(const std::string& message, SourceLoc loc)
      : std::runtime_error(message + " at line " + std::to_string(loc.line) + ":" +
                           std::to_string(loc.column)),
        loc_(loc) {}
  [[nodiscard]] SourceLoc loc() const noexcept { return loc_; }

 private:
  SourceLoc loc_;
};

class Lexer;

/// The tokens of one source, read like a vector. A token's text views the
/// source, except a string literal with an escape, which views its decoded
/// copy in the list; so the list is valid while its source is. It moves but
/// does not copy, since a copy's tokens would view the original's literals.
class TokenList {
 public:
  TokenList() = default;
  TokenList(TokenList&&) = default;
  TokenList& operator=(TokenList&&) = default;
  TokenList(const TokenList&) = delete;
  TokenList& operator=(const TokenList&) = delete;

  [[nodiscard]] std::size_t size() const { return tokens_.size(); }
  [[nodiscard]] const Token& operator[](std::size_t i) const { return tokens_[i]; }
  [[nodiscard]] const Token& front() const { return tokens_.front(); }
  [[nodiscard]] const Token& back() const { return tokens_.back(); }
  [[nodiscard]] auto begin() const { return tokens_.begin(); }
  [[nodiscard]] auto end() const { return tokens_.end(); }

 private:
  friend class Lexer;
  std::vector<Token> tokens_;
  std::forward_list<std::string> decoded_;  // a list never moves its strings
};

/// Tokenizes `source`; the result always ends with a kEof token.
/// Comments run from `//` to end of line and are skipped.
[[nodiscard]] TokenList lex(std::string_view source);

}  // namespace lisa::minilang
