// String helpers shared across the LISA codebase.
//
// All functions are pure and allocate only when they must; inputs are taken
// as std::string_view so callers never pay for conversions.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace lisa::support {

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

/// Tokenizes identifier-like words (alphanumeric + '_' runs), lower-cased.
/// Used by the TF-IDF embedding model in src/inference.
[[nodiscard]] std::vector<std::string> word_tokens(std::string_view text);

}  // namespace lisa::support
