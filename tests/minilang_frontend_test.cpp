// Pins the MiniLang front end: the exact token stream and printed program of
// every corpus source, and the exact message of each kind of malformed input.
// The constants were printed by the lexer and parser before they were
// rewritten to work on views of the source; both must keep them. A seeded
// mutation campaign over the corpus then checks that no input crashes the
// front end or the test selector that reads its programs.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/ticket.hpp"
#include "inference/embedding.hpp"
#include "minilang/lexer.hpp"
#include "minilang/parser.hpp"
#include "minilang/printer.hpp"
#include "minilang/sema.hpp"
#include "support/jsonl.hpp"
#include "support/rng.hpp"

namespace lisa::minilang {
namespace {

struct CorpusSource {
  const corpus::FailureTicket* ticket;
  const std::string* source;
};

/// The 48 corpus sources: buggy and patched of every case, and each latest.
std::vector<CorpusSource> corpus_sources() {
  std::vector<CorpusSource> sources;
  for (const corpus::FailureTicket& ticket : corpus::Corpus::all()) {
    for (const std::string* source :
         {&ticket.buggy_source, &ticket.patched_source, &ticket.latest_source})
      if (!source->empty()) sources.push_back({&ticket, source});
  }
  return sources;
}

TEST(FrontEndPin, CorpusTokensAndPrintedProgramsAreUnchanged) {
  const std::vector<CorpusSource> sources = corpus_sources();
  ASSERT_EQ(sources.size(), 48u);
  std::string tokens;
  std::string printed;
  std::size_t count = 0;
  for (const auto& [ticket, source] : sources) {
    for (const Token& token : lex(*source)) {
      ++count;
      tokens += std::to_string(static_cast<int>(token.kind)) + ' ' +
                std::to_string(token.text.size()) + ':';
      tokens += token.text;
      tokens += ' ' + std::to_string(token.int_value) + ' ' + std::to_string(token.loc.line) +
                ':' + std::to_string(token.loc.column) + '\n';
    }
    printed += program_text(parse(*source));
    printed += '\n';
  }
  EXPECT_EQ(count, 18907u);
  EXPECT_EQ(support::fnv1a_fingerprint(tokens), "9055bc957d9e8367");
  EXPECT_EQ(support::fnv1a_fingerprint(printed), "14d1fd44d2fbb6e0");
}

TEST(FrontEndPin, EveryTokenKindKeepsItsTextAndPlace) {
  // Every keyword, operator and literal form, an escaped and a plain string,
  // a comment, and an identifier that only starts like a keyword.
  const std::string source =
      "struct fn let if else while return throw try catch sync spawn new null\n"
      "true false break continue ( ) { } [ ] , ; : . -> = == != < <= > >= + - * / %\n"
      "&& || ! ? @ // skipped\n"
      "\t_x1 iffy 0 42 9223372036854775807 \"plain\" \"a\\n\\t\\\"\\\\b\" \"\"";
  std::string dump;
  for (const Token& token : lex(source)) {
    dump += std::to_string(static_cast<int>(token.kind));
    if (!token.text.empty()) {
      dump += '=';
      dump += token.text;
    }
    if (token.int_value != 0) dump += '#' + std::to_string(token.int_value);
    dump += '@' + std::to_string(token.loc.line) + ':' + std::to_string(token.loc.column) + ' ';
  }
  EXPECT_EQ(dump,
            "4@1:1 5@1:8 6@1:11 7@1:15 8@1:18 9@1:23 10@1:29 11@1:36 12@1:42 13@1:46 14@1:52 "
            "15@1:57 16@1:63 17@1:67 18@2:1 19@2:6 20@2:12 21@2:18 22@2:27 23@2:29 24@2:31 "
            "25@2:33 26@2:35 27@2:37 28@2:39 29@2:41 30@2:43 31@2:45 32@2:47 33@2:50 34@2:52 "
            "35@2:55 36@2:58 37@2:60 38@2:63 39@2:65 40@2:68 41@2:70 42@2:72 43@2:74 44@2:76 "
            "45@3:1 46@3:4 47@3:7 48@3:9 49@3:11 1=_x1@4:2 1=iffy@4:6 2@4:11 2#42@4:13 "
            "2#9223372036854775807@4:16 3=plain@4:36 3=a\n\t\"\\b@4:44 3@4:57 0@4:59 ");
}

/// The message a malformed input fails with, or "no error".
template <typename Front>
std::string failure(Front front) {
  try {
    front();
  } catch (const std::exception& error) {
    return error.what();
  }
  return "no error";
}

std::string parse_failure(const std::string& source) {
  return failure([&] { (void)parse_checked(source); });
}

TEST(FrontEndPin, MalformedInputsKeepTheirMessages) {
  const std::string deep = "fn f() -> int { return " + std::string(300, '(') + "1" +
                           std::string(300, ')') + "; }";
  std::string chain = "fn f() -> int { return 1";
  for (int i = 0; i < 300; ++i) chain += " + 1";
  chain += "; }";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"fn f() { let s = \"abc; }", "unterminated string literal at line 1:18"},
      {"fn f() { let s = \"a\\q\"; }", "unknown escape sequence at line 1:18"},
      {"fn f() { let s = \"a\\", "unterminated escape at line 1:18"},
      {"fn f() -> bool { return a & b; }", "stray '&' at line 1:27"},
      {"fn f() -> bool { return a | b; }", "stray '|' at line 1:27"},
      {"fn f() -> int { return 9223372036854775808; }",
       "integer literal above 9223372036854775807 at line 1:24"},
      {"fn f() -> int {\n  let x = 1\n  return x;\n}", "expected ';', found 'return' at line 3:3"},
      {deep, "nesting deeper than 256 levels at line 1:279"},
      {chain, "nesting deeper than 256 levels at line 1:1050"},
      {"let x = 1;", "expected 'struct' or 'fn' at top level at line 1:1"},
      {"@test struct S { x: int; }", "annotations are only allowed on functions at line 1:7"},
      {"fn f() { let x = ; }", "expected expression, found ';' at line 1:18"},
      {"fn f() { 1 = 2; }", "left side of '=' is not assignable at line 1:14"},
      {"fn f() { spawn x; }", "spawn expects a function call at line 1:17"},
      {"fn f(x: 1) { }", "expected type name at line 1:9"},
      {"fn f() { let y = ghost; }",
       "MiniLang check failed in f at line 1: unknown variable: ghost (1 diagnostics total)"},
  };
  for (const auto& [source, message] : cases)
    EXPECT_EQ(parse_failure(source), message) << source.substr(0, 60);
  EXPECT_EQ(failure([] { (void)parse_expression("a b"); }),
            "trailing tokens after expression at line 1:3");
}

TEST(FrontEndPin, OperatorChainsStopAtTheNestingBound) {
  // A chain of postfix or binary operators may build a tree kMaxNesting
  // tall, counting the operands' own height; the link that makes it taller
  // fails at the token after it.
  const auto repeat = [](const std::string& piece, int times) {
    std::string out;
    for (int i = 0; i < times; ++i) out += piece;
    return out;
  };
  const std::string too_deep = "nesting deeper than 256 levels at line 1:";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"a" + repeat(".f", 255), "no error"},
      {"a" + repeat(".f", 256), too_deep + "514"},
      {"a" + repeat("[1]", 255), "no error"},
      {"a" + repeat("[1]", 256), too_deep + "770"},
      {"a" + repeat(".m(x)", 255), "no error"},
      {"a" + repeat(".m(x)", 256), too_deep + "1282"},
      {"!-a" + repeat(".x", 255), "no error"},
      {"!-a" + repeat(".x", 256), too_deep + "516"},
      {"(!-a" + repeat(".x", 252) + ").y", "no error"},
      {"(!-a" + repeat(".x", 253) + ").y", too_deep + "514"},
      {"b.m(" + repeat("c.", 254) + "d)", "no error"},
      {"b.m(" + repeat("c.", 255) + "d)", too_deep + "517"},
      {"a + " + repeat("b * ", 254) + "c", "no error"},
      {"a + " + repeat("b * ", 255) + "c", too_deep + "1026"},
      {"f(1, " + repeat("b - ", 255) + "c).g", too_deep + "1030"},
      {"a[" + repeat("b || ", 255) + "c].g", too_deep + "1280"},
      {"new S{a: 1, b: " + repeat("b - ", 255) + "c}.h", too_deep + "1040"},
  };
  for (const auto& [source, message] : cases)
    EXPECT_EQ(failure([&] { (void)parse_expression(source); }), message) << source.substr(0, 40);
}

// ---------------------------------------------------------------------------
// Seeded mutants of the corpus sources
// ---------------------------------------------------------------------------

/// One piece of a source: a run of identifier bytes, a run of whitespace, or
/// any other single byte. Token mutations move whole pieces, so they are cut
/// without the lexer under test.
struct Piece {
  std::size_t offset;
  std::size_t size;
};

std::vector<Piece> pieces(std::string_view source) {
  const auto word = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_';
  };
  const auto blank = [](char c) { return c == ' ' || c == '\t' || c == '\n'; };
  std::vector<Piece> out;
  for (std::size_t i = 0; i < source.size();) {
    std::size_t end = i + 1;
    if (word(source[i])) {
      while (end < source.size() && word(source[end])) ++end;
    } else if (blank(source[i])) {
      while (end < source.size() && blank(source[end])) ++end;
    }
    out.push_back({i, end - i});
    i = end;
  }
  return out;
}

/// One seeded byte or token mutation of `source`: flip a bit, delete,
/// duplicate or swap bytes or pieces, truncate, or insert a byte sequence
/// that opens a string, an escape or a comment, or is not ASCII.
std::string mutate(const std::string& source, const std::vector<Piece>& parts,
                   support::Rng& rng) {
  std::string out = source;
  const std::size_t at = rng.pick_index(out.size());
  const Piece& piece = parts[rng.pick_index(parts.size())];
  switch (rng.next_below(9)) {
    case 0:
      out[at] = static_cast<char>(out[at] ^ (1 << rng.next_below(8)));
      break;
    case 1:
      out.erase(at, 1 + rng.next_below(4));
      break;
    case 2:
      out.insert(at, out.substr(at, 1 + rng.next_below(8)));
      break;
    case 3:
      if (at + 1 < out.size()) std::swap(out[at], out[at + 1]);
      break;
    case 4:
      out.resize(at);
      break;
    case 5: {
      static constexpr const char* kInserts[] = {"\"", "\\", "//", "\x80"};
      out.insert(at, kInserts[rng.next_below(4)]);
      break;
    }
    case 6:
      out.erase(piece.offset, piece.size);
      break;
    case 7:
      out.insert(piece.offset, source, piece.offset, piece.size);
      break;
    default: {
      // Swap the piece with one of the next eight.
      const auto first = static_cast<std::size_t>(&piece - parts.data());
      const std::size_t second =
          std::min(parts.size() - 1, first + 1 + rng.next_below(8));
      const Piece& later = parts[second];
      out = source.substr(0, piece.offset) + source.substr(later.offset, later.size) +
            source.substr(piece.offset + piece.size,
                          later.offset - piece.offset - piece.size) +
            source.substr(piece.offset, piece.size) +
            source.substr(later.offset + later.size);
      break;
    }
  }
  return out;
}

/// What the front end made of one input: its printed program, or the kind
/// and message of the error it threw.
struct Outcome {
  enum class Kind { kParsed, kLexError, kParseError, kCheckError } kind;
  std::string text;
  bool operator==(const Outcome&) const = default;
};

Outcome front_end(const std::string& source) {
  try {
    return {Outcome::Kind::kParsed, program_text(parse_checked(source))};
  } catch (const LexError& error) {
    return {Outcome::Kind::kLexError, error.what()};
  } catch (const ParseError& error) {
    return {Outcome::Kind::kParseError, error.what()};
  } catch (const std::runtime_error& error) {
    return {Outcome::Kind::kCheckError, error.what()};
  }
}

/// The selector's ranking of `program`'s tests, with each score's bits.
std::string ranking(const Program& program, const std::string& query) {
  std::string out;
  for (const inference::TestRanking& ranked : inference::TestSelector(program).rank(query)) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &ranked.score, sizeof bits);
    out += ranked.test_name + ' ' + std::to_string(bits) + '\n';
  }
  return out;
}

TEST(FrontEndMutation, SeededCorpusMutantsParseOrFailCleanly) {
  // Every mutant either parses to a program that prints, re-parses and
  // prints the same, or throws one of the front end's three errors; a
  // repeat gives the same outcome; and a parsed program with tests ranks
  // them the same way twice.
  constexpr int kMutantsPerSource = 210;
  support::Rng rng(0x6d7574616e7473);
  std::size_t outcomes[4] = {};
  std::size_t ranked = 0;
  for (const auto& [ticket, source] : corpus_sources()) {
    const std::vector<Piece> parts = pieces(*source);
    const std::string query = ticket->expected_target + " " + ticket->expected_condition;
    for (int i = 0; i < kMutantsPerSource; ++i) {
      const std::string mutant = mutate(*source, parts, rng);
      const Outcome outcome = front_end(mutant);
      ++outcomes[static_cast<int>(outcome.kind)];
      ASSERT_EQ(front_end(mutant), outcome) << ticket->case_id << " mutant " << i;
      if (outcome.kind != Outcome::Kind::kParsed) continue;
      const Program program = parse(mutant);
      EXPECT_EQ(program_text(parse(outcome.text)), outcome.text)
          << ticket->case_id << " mutant " << i;
      if (program.functions_with("test").empty()) continue;
      ++ranked;
      EXPECT_EQ(ranking(program, query), ranking(program, query))
          << ticket->case_id << " mutant " << i;
    }
  }
  // The campaign reaches every outcome.
  EXPECT_GE(outcomes[0] + outcomes[1] + outcomes[2] + outcomes[3], 10000u);
  for (const std::size_t count : outcomes) EXPECT_GT(count, 1000u);
  EXPECT_GT(ranked, 1000u);
}

}  // namespace
}  // namespace lisa::minilang
