#include "minilang/lexer.hpp"

#include <limits>

#include "support/strings.hpp"

namespace lisa::minilang {

const char* token_kind_name(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEof: return "end of input";
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kIntLit: return "integer literal";
    case TokenKind::kStrLit: return "string literal";
    case TokenKind::kStruct: return "'struct'";
    case TokenKind::kFn: return "'fn'";
    case TokenKind::kLet: return "'let'";
    case TokenKind::kIf: return "'if'";
    case TokenKind::kElse: return "'else'";
    case TokenKind::kWhile: return "'while'";
    case TokenKind::kReturn: return "'return'";
    case TokenKind::kThrow: return "'throw'";
    case TokenKind::kTry: return "'try'";
    case TokenKind::kCatch: return "'catch'";
    case TokenKind::kSync: return "'sync'";
    case TokenKind::kSpawn: return "'spawn'";
    case TokenKind::kNew: return "'new'";
    case TokenKind::kNull: return "'null'";
    case TokenKind::kTrue: return "'true'";
    case TokenKind::kFalse: return "'false'";
    case TokenKind::kBreak: return "'break'";
    case TokenKind::kContinue: return "'continue'";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kLBracket: return "'['";
    case TokenKind::kRBracket: return "']'";
    case TokenKind::kComma: return "','";
    case TokenKind::kSemi: return "';'";
    case TokenKind::kColon: return "':'";
    case TokenKind::kDot: return "'.'";
    case TokenKind::kArrow: return "'->'";
    case TokenKind::kAssign: return "'='";
    case TokenKind::kEq: return "'=='";
    case TokenKind::kNe: return "'!='";
    case TokenKind::kLt: return "'<'";
    case TokenKind::kLe: return "'<='";
    case TokenKind::kGt: return "'>'";
    case TokenKind::kGe: return "'>='";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kMinus: return "'-'";
    case TokenKind::kStar: return "'*'";
    case TokenKind::kSlash: return "'/'";
    case TokenKind::kPercent: return "'%'";
    case TokenKind::kAndAnd: return "'&&'";
    case TokenKind::kOrOr: return "'||'";
    case TokenKind::kBang: return "'!'";
    case TokenKind::kQuestion: return "'?'";
    case TokenKind::kAt: return "'@'";
  }
  return "?";
}

namespace {

using support::is_ascii_alpha;
using support::is_ascii_digit;
using support::is_ascii_space;
using support::is_word_char;

struct Keyword {
  std::string_view text;
  TokenKind kind;
};

constexpr Keyword kKeywords[] = {
    {"struct", TokenKind::kStruct}, {"fn", TokenKind::kFn},
    {"let", TokenKind::kLet},       {"if", TokenKind::kIf},
    {"else", TokenKind::kElse},     {"while", TokenKind::kWhile},
    {"return", TokenKind::kReturn}, {"throw", TokenKind::kThrow},
    {"try", TokenKind::kTry},       {"catch", TokenKind::kCatch},
    {"sync", TokenKind::kSync},     {"spawn", TokenKind::kSpawn},
    {"new", TokenKind::kNew},
    {"null", TokenKind::kNull},     {"true", TokenKind::kTrue},
    {"false", TokenKind::kFalse},   {"break", TokenKind::kBreak},
    {"continue", TokenKind::kContinue},
};

/// The keyword `word` spells, or kIdent. Comparing views checks their
/// lengths first, so most keywords are rejected on length alone.
TokenKind keyword_or_ident(std::string_view word) {
  for (const Keyword& keyword : kKeywords)
    if (keyword.text == word) return keyword.kind;
  return TokenKind::kIdent;
}

/// `'c'` for a printable ASCII byte and `0xNN` for any other, so that no
/// control or non-ASCII byte of the input reaches an error message.
std::string spell_byte(char c) {
  const auto byte = static_cast<unsigned char>(c);
  if (byte >= 0x20 && byte < 0x7f) return std::string{'\'', c, '\''};
  static constexpr char kHex[] = "0123456789ABCDEF";
  return std::string{'0', 'x', kHex[byte >> 4], kHex[byte & 0xf]};
}

}  // namespace

class Lexer {
 public:
  explicit Lexer(std::string_view source) : source_(source) {}

  TokenList run() {
    // The corpus averages 4.5 source bytes per token.
    list_.tokens_.reserve(source_.size() / 4 + 1);
    while (true) {
      skip_trivia();
      const Token& token = list_.tokens_.emplace_back(next_token());
      if (token.kind == TokenKind::kEof) return std::move(list_);
    }
  }

 private:
  [[nodiscard]] bool at_end() const { return pos_ >= source_.size(); }
  [[nodiscard]] char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < source_.size() ? source_[pos_ + ahead] : '\0';
  }

  char advance() {
    const char c = source_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  /// Steps over `count` bytes that hold no newline.
  void skip_within_line(std::size_t count) {
    pos_ += count;
    column_ += static_cast<int>(count);
  }

  [[nodiscard]] SourceLoc here() const { return SourceLoc{line_, column_}; }

  void skip_trivia() {
    while (!at_end()) {
      const char c = peek();
      if (is_ascii_space(c)) {
        advance();
      } else if (c == '/' && peek(1) == '/') {
        const std::size_t newline = source_.find('\n', pos_);
        skip_within_line((newline == std::string_view::npos ? source_.size() : newline) - pos_);
      } else {
        return;
      }
    }
  }

  static Token make(TokenKind kind, SourceLoc loc) {
    Token token;
    token.kind = kind;
    token.loc = loc;
    return token;
  }

  Token next_token() {
    if (at_end()) return make(TokenKind::kEof, here());
    const SourceLoc loc = here();
    const char c = peek();
    skip_within_line(1);  // trivia took every newline
    switch (c) {
      case '(': return make(TokenKind::kLParen, loc);
      case ')': return make(TokenKind::kRParen, loc);
      case '{': return make(TokenKind::kLBrace, loc);
      case '}': return make(TokenKind::kRBrace, loc);
      case '[': return make(TokenKind::kLBracket, loc);
      case ']': return make(TokenKind::kRBracket, loc);
      case ',': return make(TokenKind::kComma, loc);
      case ';': return make(TokenKind::kSemi, loc);
      case ':': return make(TokenKind::kColon, loc);
      case '.': return make(TokenKind::kDot, loc);
      case '+': return make(TokenKind::kPlus, loc);
      case '*': return make(TokenKind::kStar, loc);
      case '/': return make(TokenKind::kSlash, loc);
      case '%': return make(TokenKind::kPercent, loc);
      case '?': return make(TokenKind::kQuestion, loc);
      case '@': return make(TokenKind::kAt, loc);
      case '-': return two_or_one('>', TokenKind::kArrow, TokenKind::kMinus, loc);
      case '=': return two_or_one('=', TokenKind::kEq, TokenKind::kAssign, loc);
      case '!': return two_or_one('=', TokenKind::kNe, TokenKind::kBang, loc);
      case '<': return two_or_one('=', TokenKind::kLe, TokenKind::kLt, loc);
      case '>': return two_or_one('=', TokenKind::kGe, TokenKind::kGt, loc);
      case '&':
        if (peek() != '&') throw LexError("stray '&'", loc);
        skip_within_line(1);
        return make(TokenKind::kAndAnd, loc);
      case '|':
        if (peek() != '|') throw LexError("stray '|'", loc);
        skip_within_line(1);
        return make(TokenKind::kOrOr, loc);
      case '"': return string_literal(loc);
      default:
        if (is_ascii_digit(c)) return number(loc, c);
        if (is_ascii_alpha(c) || c == '_') return identifier(loc);
        throw LexError("unexpected character " + spell_byte(c), loc);
    }
  }

  /// `two` when the next byte is `second`, which it then consumes; else `one`.
  Token two_or_one(char second, TokenKind two, TokenKind one, SourceLoc loc) {
    if (peek() != second) return make(one, loc);
    skip_within_line(1);
    return make(two, loc);
  }

  /// A literal with no escape views the source; the first escape starts a
  /// decoded copy that the token list keeps.
  Token string_literal(SourceLoc loc) {
    Token token = make(TokenKind::kStrLit, loc);
    const std::size_t start = pos_;
    std::string* decoded = nullptr;
    while (true) {
      if (at_end()) throw LexError("unterminated string literal", loc);
      const char c = advance();
      if (c == '"') {
        token.text = decoded != nullptr ? std::string_view(*decoded)
                                        : source_.substr(start, pos_ - 1 - start);
        return token;
      }
      if (c == '\\') {
        if (decoded == nullptr)
          decoded = &list_.decoded_.emplace_front(source_.substr(start, pos_ - 1 - start));
        if (at_end()) throw LexError("unterminated escape", loc);
        const char escape = advance();
        switch (escape) {
          case 'n': decoded->push_back('\n'); break;
          case 't': decoded->push_back('\t'); break;
          case '"': decoded->push_back('"'); break;
          case '\\': decoded->push_back('\\'); break;
          default: throw LexError("unknown escape sequence", loc);
        }
      } else if (decoded != nullptr) {
        decoded->push_back(c);
      }
    }
  }

  Token number(SourceLoc loc, char first) {
    Token token = make(TokenKind::kIntLit, loc);
    std::int64_t value = first - '0';
    while (is_ascii_digit(peek())) {
      const int digit = peek() - '0';
      if (value > (std::numeric_limits<std::int64_t>::max() - digit) / 10)
        throw LexError("integer literal above 9223372036854775807", loc);
      value = value * 10 + digit;
      skip_within_line(1);
    }
    token.int_value = value;
    return token;
  }

  Token identifier(SourceLoc loc) {
    const std::size_t start = pos_ - 1;
    std::size_t end = pos_;
    while (end < source_.size() && is_word_char(source_[end])) ++end;
    skip_within_line(end - pos_);
    const std::string_view word = source_.substr(start, end - start);
    Token token = make(keyword_or_ident(word), loc);
    if (token.kind == TokenKind::kIdent) token.text = word;
    return token;
  }

  std::string_view source_;
  TokenList list_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

TokenList lex(std::string_view source) { return Lexer(source).run(); }

}  // namespace lisa::minilang
