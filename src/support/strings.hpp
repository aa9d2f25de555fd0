// String helpers shared across the LISA codebase.
//
// All functions are pure and allocate only when they must; inputs are taken
// as std::string_view so callers never pay for conversions.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace lisa::support {

/// ASCII character classes, each equal to its <cctype> namesake in the "C"
/// locale (nothing in LISA calls setlocale) without a call per byte.
[[nodiscard]] constexpr bool is_ascii_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}
[[nodiscard]] constexpr bool is_ascii_digit(char c) { return c >= '0' && c <= '9'; }
[[nodiscard]] constexpr bool is_ascii_alpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
/// A byte of an identifier-like word: an ASCII letter or digit, or '_'.
[[nodiscard]] constexpr bool is_word_char(char c) {
  return is_ascii_alpha(c) || is_ascii_digit(c) || c == '_';
}

/// Splits `text` on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep);

/// Splits `text` on any run of whitespace, dropping empty fields.
[[nodiscard]] std::vector<std::string> split_ws(std::string_view text);

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text);

/// True if `text` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);

/// True if `text` ends with `suffix`.
[[nodiscard]] bool ends_with(std::string_view text, std::string_view suffix);

/// True if `needle` occurs anywhere in `haystack`.
[[nodiscard]] bool contains(std::string_view haystack, std::string_view needle);

/// Case-insensitive variant of contains() for ASCII text.
[[nodiscard]] bool contains_ci(std::string_view haystack, std::string_view needle);

/// ASCII lower-casing.
[[nodiscard]] std::string to_lower(std::string_view text);

/// Joins `parts`, any range of strings, with `sep` between consecutive
/// elements.
template <typename Parts = std::vector<std::string>>
[[nodiscard]] std::string join(const Parts& parts, std::string_view sep) {
  std::string out;
  bool first = true;
  for (const auto& part : parts) {
    if (!first) out += sep;
    first = false;
    out += part;
  }
  return out;
}

/// The part of `name` after its last `::` ("fn::lock" -> "lock"); all of
/// `name` when it has none.
[[nodiscard]] std::string name_tail(std::string_view name);

/// Replaces every occurrence of `from` with `to`.
[[nodiscard]] std::string replace_all(std::string_view text, std::string_view from,
                                      std::string_view to);

/// The identifier-like words of `text` (runs of is_word_char bytes), as views
/// into it. Used by the TF-IDF embedding model in src/inference, which
/// lower-cases the text first.
[[nodiscard]] std::vector<std::string_view> word_views(std::string_view text);

}  // namespace lisa::support
