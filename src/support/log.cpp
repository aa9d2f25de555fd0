#include "support/log.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "support/stopwatch.hpp"
#include "support/strings.hpp"

namespace lisa::support {
namespace {

std::atomic<LogLevel> g_level{LogLevel::warn};
std::once_flag g_env_once;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::debug: return "DEBUG";
    case LogLevel::info: return "INFO";
    case LogLevel::warn: return "WARN";
    case LogLevel::error: return "ERROR";
    case LogLevel::off: return "OFF";
  }
  return "?";
}

/// Applies LISA_LOG_LEVEL once, before the first threshold read.
void apply_env_level() {
  std::call_once(g_env_once, [] {
    const char* env = std::getenv("LISA_LOG_LEVEL");
    if (env == nullptr) return;
    const std::optional<LogLevel> parsed = parse_log_level(env);
    if (parsed.has_value())
      g_level.store(*parsed, std::memory_order_relaxed);
    else
      // Direct write: log_line() would re-enter the call_once guard.
      std::fprintf(stderr, "%s\n",
                   render_log_line(LogLevel::warn,
                                   std::string("unrecognized LISA_LOG_LEVEL '") + env +
                                       "' ignored")
                       .c_str());
  });
}

}  // namespace

LogLevel log_level() {
  apply_env_level();
  return g_level.load(std::memory_order_relaxed);
}

std::optional<LogLevel> parse_log_level(std::string_view name) {
  const std::string lowered = to_lower(name);
  if (lowered == "debug") return LogLevel::debug;
  if (lowered == "info") return LogLevel::info;
  if (lowered == "warn" || lowered == "warning") return LogLevel::warn;
  if (lowered == "error") return LogLevel::error;
  if (lowered == "off" || lowered == "none") return LogLevel::off;
  return std::nullopt;
}

std::uint32_t this_thread_number() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t number =
      next.fetch_add(1, std::memory_order_relaxed);
  return number;
}

std::string render_log_line(LogLevel level, const std::string& message) {
  char prefix[64];
  std::snprintf(prefix, sizeof(prefix), "[+%11.3fms] [t%u] [%s] ",
                process_elapsed_ms(), this_thread_number(), level_name(level));
  return prefix + message;
}

void log_line(LogLevel level, const std::string& message) {
  if (level < log_level()) return;
  std::fprintf(stderr, "%s\n", render_log_line(level, message).c_str());
}

}  // namespace lisa::support
