// Minimal leveled logger.
//
// LISA is a library first; logging defaults to warnings-and-above on stderr
// so that example binaries stay readable. The level is process-global; the
// LISA_LOG_LEVEL environment variable ("debug" | "info" | "warn" | "error" |
// "off"), read at first use, overrides the default without a code change.
//
// Each line carries a monotonic elapsed-ms prefix measured from the shared
// process epoch (support/stopwatch.hpp) — the same clock trace spans use —
// plus the sequential thread number the tracer stamps on spans, so stderr
// output is directly correlatable with exported traces:
//
//   [+     12.345ms] [t1] [WARN] contract zk-1208 fell through to concolic
#pragma once

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace lisa::support {

enum class LogLevel { debug = 0, info = 1, warn = 2, error = 3, off = 4 };

/// The process-global minimum level that will be emitted.
[[nodiscard]] LogLevel log_level();

/// Parses a LISA_LOG_LEVEL value ("warn", "ERROR", ...); nullopt on junk.
[[nodiscard]] std::optional<LogLevel> parse_log_level(std::string_view name);

/// Sequential number of the calling thread, assigned on first use: the main
/// thread (or whichever logs/traces first) is 1, the next is 2, and so on.
/// Shared by log lines and trace spans so `[t3]` on stderr is the same
/// thread as `"tid": 3` in an exported trace.
[[nodiscard]] std::uint32_t this_thread_number();

/// Formats one line exactly as log_line writes it (sans trailing newline):
/// "[+<elapsed>ms] [tN] [LEVEL] <message>". Exposed for tests.
[[nodiscard]] std::string render_log_line(LogLevel level, const std::string& message);

/// Emits one line to stderr if `level` passes the global threshold.
void log_line(LogLevel level, const std::string& message);

namespace detail {
inline void append_all(std::ostringstream&) {}
template <typename First, typename... Rest>
void append_all(std::ostringstream& out, const First& first, const Rest&... rest) {
  out << first;
  append_all(out, rest...);
}
}  // namespace detail

/// Streams all arguments into one log line: log(LogLevel::info, "x=", x).
template <typename... Args>
void log(LogLevel level, const Args&... args) {
  if (level < log_level()) return;
  std::ostringstream out;
  detail::append_all(out, args...);
  log_line(level, out.str());
}

}  // namespace lisa::support
