// Unit tests for src/support: strings, JSON, RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>

#include "support/json.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace lisa::support {
namespace {

// ---------------------------------------------------------------------------
// strings
// ---------------------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a||b|", '|');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingleField) {
  const auto parts = split("alone", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "alone");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto parts = split_ws("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsEndsContains) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_FALSE(ends_with("ar", "bar"));
  EXPECT_TRUE(contains("haystack", "sta"));
  EXPECT_TRUE(contains_ci("HayStack", "hays"));
  EXPECT_FALSE(contains_ci("HayStack", "xyz"));
}

TEST(Strings, JoinAndReplaceAll) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(replace_all("a.b.c", ".", "::"), "a::b::c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
}

TEST(Strings, WordViewsSplitOnPunctuation) {
  const std::string text = "Create_Ephemeral(server, Path2) \xc3\xa9t\xc3\xa9 _";
  const std::vector<std::string_view> words = word_views(text);
  ASSERT_EQ(words.size(), 5u);
  EXPECT_EQ(words[0], "Create_Ephemeral");
  EXPECT_EQ(words[1], "server");
  EXPECT_EQ(words[2], "Path2");
  EXPECT_EQ(words[3], "t");  // a non-ASCII byte is a separator
  EXPECT_EQ(words[4], "_");
  EXPECT_EQ(words[0].data(), text.data());  // views, not copies
  EXPECT_TRUE(word_views(" ,; ").empty());
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(Json, RoundTripScalars) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, ParseObjectAndAccess) {
  const Json v = Json::parse(R"({"a": 1, "b": [true, null], "c": {"d": "x"}})");
  EXPECT_EQ(v.get_int("a"), 1);
  EXPECT_TRUE(v.at("b").as_array()[0].as_bool());
  EXPECT_TRUE(v.at("b").as_array()[1].is_null());
  EXPECT_EQ(v.at("c").get_string("d"), "x");
  EXPECT_EQ(v.get_string("missing", "fallback"), "fallback");
}

TEST(Json, EscapesSpecialCharacters) {
  const Json v = Json(std::string("line\n\"quote\"\tta\\b"));
  const Json back = Json::parse(v.dump());
  EXPECT_EQ(back.as_string(), "line\n\"quote\"\tta\\b");
}

TEST(Json, ParseRejectsTrailingGarbage) {
  EXPECT_THROW(Json::parse("{} x"), JsonParseError);
  EXPECT_THROW(Json::parse("[1,]"), JsonParseError);
  EXPECT_THROW(Json::parse(""), JsonParseError);
}

TEST(Json, ParseStopsAtTheNestingDepthLimit) {
  const auto nested = [](int depth) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += i % 2 == 0 ? "[" : "{\"k\":";
    text += "0";
    for (int i = depth - 1; i >= 0; --i) text += i % 2 == 0 ? "]" : "}";
    return text;
  };
  EXPECT_TRUE(Json::parse(nested(Json::kMaxParseDepth)).is_array());
  EXPECT_THROW((void)Json::parse(nested(Json::kMaxParseDepth + 1)), JsonParseError);
  // Far past the limit is the same typed error, not a stack overflow.
  EXPECT_THROW((void)Json::parse(std::string(200'000, '[')), JsonParseError);
}

TEST(Json, ParseUnicodeEscape) {
  const Json v = Json::parse(R"("Aé")");
  EXPECT_EQ(v.as_string(), "A\xc3\xa9");
}

TEST(Json, NegativeAndDoubleNumbers) {
  const Json v = Json::parse("[-5, 2.5, 1e3]");
  EXPECT_EQ(v.as_array()[0].as_int(), -5);
  EXPECT_DOUBLE_EQ(v.as_array()[1].as_double(), 2.5);
  EXPECT_DOUBLE_EQ(v.as_array()[2].as_double(), 1000.0);
}

TEST(Json, OutOfRangeDoublesSaturateAsInts) {
  // A plain cast of these is undefined behaviour (the sanitizer build
  // traps float-cast-overflow); every loader reads integers through as_int.
  const Json v = Json::parse("[1e300, -1e300, 9.3e18, -9.3e18, -9223372036854775808.0, 2.9]");
  const JsonArray& items = v.as_array();
  EXPECT_EQ(items[0].as_int(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(items[1].as_int(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(items[2].as_int(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(items[3].as_int(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(items[4].as_int(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(items[5].as_int(), 2);
  EXPECT_EQ(Json::parse(R"({"n":1e300})").get_int("n"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(Json(std::nan("")).as_int(), 0);
}

TEST(Json, StableKeyOrderInDump) {
  JsonObject o;
  o["zebra"] = Json(1);
  o["apple"] = Json(2);
  EXPECT_EQ(Json(std::move(o)).dump(), R"({"apple":2,"zebra":1})");
}

TEST(Json, PrettyPrintsIndented) {
  JsonObject o;
  o["k"] = Json(JsonArray{Json(1)});
  const std::string pretty = Json(std::move(o)).pretty();
  EXPECT_NE(pretty.find("\n  \"k\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, NextInRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(11);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = items;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, items);
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(13);
  int heads = 0;
  for (int i = 0; i < 10000; ++i)
    if (rng.next_bool(0.3)) ++heads;
  EXPECT_GT(heads, 2600);
  EXPECT_LT(heads, 3400);
}

// ---------------------------------------------------------------------------
// log
// ---------------------------------------------------------------------------

TEST(Log, ParseLogLevelAcceptsAllSpellings) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::debug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::info);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::warn);
  EXPECT_EQ(parse_log_level("WARNING"), LogLevel::warn);
  EXPECT_EQ(parse_log_level("Error"), LogLevel::error);
  EXPECT_EQ(parse_log_level("off"), LogLevel::off);
  EXPECT_EQ(parse_log_level("none"), LogLevel::off);
  EXPECT_EQ(parse_log_level("verbose"), std::nullopt);
  EXPECT_EQ(parse_log_level(""), std::nullopt);
}

TEST(Log, RenderedLineCarriesElapsedPrefixThreadAndLevel) {
  const std::string line = render_log_line(LogLevel::warn, "spilled to concolic");
  // "[+     12.345ms] [t1] [WARN] spilled to concolic" — fixed-width elapsed
  // ms from the process epoch plus the sequential thread number, so lines
  // correlate with trace timestamps AND span thread ids.
  ASSERT_GE(line.size(), 2u);
  EXPECT_EQ(line.substr(0, 2), "[+");
  const std::size_t ms = line.find("ms] ");
  ASSERT_NE(ms, std::string::npos);
  const std::string elapsed = line.substr(2, ms - 2);
  EXPECT_NE(elapsed.find('.'), std::string::npos);
  EXPECT_DOUBLE_EQ(std::stod(elapsed), std::stod(elapsed));  // parses as a number
  EXPECT_GE(std::stod(elapsed), 0.0);
  EXPECT_NE(line.find("[WARN] spilled to concolic"), std::string::npos);
  // The thread field sits between elapsed and level, numbered from this
  // thread's stable sequential id.
  const std::string tid = "[t" + std::to_string(this_thread_number()) + "] ";
  EXPECT_NE(line.find(tid + "[WARN]"), std::string::npos) << line;
}

TEST(Log, ThreadNumbersAreStablePerThreadAndDistinctAcrossThreads) {
  const std::uint32_t mine = this_thread_number();
  EXPECT_GE(mine, 1u);
  EXPECT_EQ(this_thread_number(), mine);  // stable within a thread
  std::uint32_t other = 0;
  std::thread worker([&] { other = this_thread_number(); });
  worker.join();
  EXPECT_NE(other, mine);
  EXPECT_GE(other, 1u);
  // Every rendered line on this thread carries the same [tN].
  const std::string tag = "[t" + std::to_string(mine) + "]";
  EXPECT_NE(render_log_line(LogLevel::info, "x").find(tag), std::string::npos);
}

TEST(Log, ElapsedPrefixIsMonotonic) {
  const auto elapsed_of = [](const std::string& line) {
    return std::stod(line.substr(2, line.find("ms] ") - 2));
  };
  const double first = elapsed_of(render_log_line(LogLevel::info, "a"));
  const double second = elapsed_of(render_log_line(LogLevel::info, "b"));
  EXPECT_GE(second, first);
}

TEST(Log, LevelNamesAlignAcrossLevels) {
  EXPECT_NE(render_log_line(LogLevel::debug, "m").find("[DEBUG]"), std::string::npos);
  EXPECT_NE(render_log_line(LogLevel::info, "m").find("[INFO]"), std::string::npos);
  EXPECT_NE(render_log_line(LogLevel::error, "m").find("[ERROR]"), std::string::npos);
}

}  // namespace
}  // namespace lisa::support
