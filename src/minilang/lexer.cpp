#include "minilang/lexer.hpp"

#include <cctype>
#include <limits>
#include <unordered_map>

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

const std::unordered_map<std::string_view, TokenKind>& keywords() {
  static const std::unordered_map<std::string_view, TokenKind> table = {
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
  return table;
}

class Lexer {
 public:
  explicit Lexer(std::string_view source) : source_(source) {}

  std::vector<Token> run() {
    std::vector<Token> tokens;
    while (true) {
      skip_trivia();
      Token token = next_token();
      const bool done = token.kind == TokenKind::kEof;
      tokens.push_back(std::move(token));
      if (done) return tokens;
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

  [[nodiscard]] SourceLoc here() const { return SourceLoc{line_, column_}; }

  void skip_trivia() {
    while (!at_end()) {
      const char c = peek();
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        advance();
      } else if (c == '/' && peek(1) == '/') {
        while (!at_end() && peek() != '\n') advance();
      } else {
        return;
      }
    }
  }

  Token make(TokenKind kind, SourceLoc loc) {
    Token token;
    token.kind = kind;
    token.loc = loc;
    return token;
  }

  Token next_token() {
    if (at_end()) return make(TokenKind::kEof, here());
    const SourceLoc loc = here();
    const char c = advance();
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
      case '-':
        if (peek() == '>') {
          advance();
          return make(TokenKind::kArrow, loc);
        }
        return make(TokenKind::kMinus, loc);
      case '=':
        if (peek() == '=') {
          advance();
          return make(TokenKind::kEq, loc);
        }
        return make(TokenKind::kAssign, loc);
      case '!':
        if (peek() == '=') {
          advance();
          return make(TokenKind::kNe, loc);
        }
        return make(TokenKind::kBang, loc);
      case '<':
        if (peek() == '=') {
          advance();
          return make(TokenKind::kLe, loc);
        }
        return make(TokenKind::kLt, loc);
      case '>':
        if (peek() == '=') {
          advance();
          return make(TokenKind::kGe, loc);
        }
        return make(TokenKind::kGt, loc);
      case '&':
        if (peek() == '&') {
          advance();
          return make(TokenKind::kAndAnd, loc);
        }
        throw LexError("stray '&'", loc);
      case '|':
        if (peek() == '|') {
          advance();
          return make(TokenKind::kOrOr, loc);
        }
        throw LexError("stray '|'", loc);
      case '"': return string_literal(loc);
      default:
        if (std::isdigit(static_cast<unsigned char>(c)) != 0) return number(loc, c);
        if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_')
          return identifier(loc, c);
        throw LexError(std::string("unexpected character '") + c + "'", loc);
    }
  }

  Token string_literal(SourceLoc loc) {
    Token token = make(TokenKind::kStrLit, loc);
    while (true) {
      if (at_end()) throw LexError("unterminated string literal", loc);
      const char c = advance();
      if (c == '"') return token;
      if (c == '\\') {
        if (at_end()) throw LexError("unterminated escape", loc);
        const char escape = advance();
        switch (escape) {
          case 'n': token.text.push_back('\n'); break;
          case 't': token.text.push_back('\t'); break;
          case '"': token.text.push_back('"'); break;
          case '\\': token.text.push_back('\\'); break;
          default: throw LexError("unknown escape sequence", loc);
        }
      } else {
        token.text.push_back(c);
      }
    }
  }

  Token number(SourceLoc loc, char first) {
    Token token = make(TokenKind::kIntLit, loc);
    std::int64_t value = first - '0';
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) {
      const int digit = advance() - '0';
      if (value > (std::numeric_limits<std::int64_t>::max() - digit) / 10)
        throw LexError("integer literal above 9223372036854775807", loc);
      value = value * 10 + digit;
    }
    token.int_value = value;
    return token;
  }

  Token identifier(SourceLoc loc, char first) {
    std::string name(1, first);
    while (std::isalnum(static_cast<unsigned char>(peek())) != 0 || peek() == '_')
      name.push_back(advance());
    const auto it = keywords().find(name);
    if (it != keywords().end()) return make(it->second, loc);
    Token token = make(TokenKind::kIdent, loc);
    token.text = std::move(name);
    return token;
  }

  std::string_view source_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

}  // namespace

std::vector<Token> lex(std::string_view source) { return Lexer(source).run(); }

}  // namespace lisa::minilang
