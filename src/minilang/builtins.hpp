// The MiniLang builtin table: one row per builtin, read by every layer that
// needs to know about builtins — sema (which names exist), summaries and the
// call graph (heap effect, may-throw, blocking), the lock-state analysis,
// Interp's scheduler (which operation a call performs) and Interp's dispatch
// (arity, argument kinds, implementation). No other list of builtin names
// exists, so the layers cannot drift apart.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "minilang/value.hpp"

namespace lisa::minilang {

/// What a builtin does to the user heap, as the static analyses model it.
enum class HeapEffect : std::uint8_t {
  kNone,         // writes no struct field and retains no argument
  kMutatesArgs,  // stores or writes through its arguments (container mutation)
  kOpaque,       // unmodeled: any field may change (summaries havoc)
};

/// Kind an argument must have. Checked before the implementation runs, so a
/// misuse is a typed InterpError, never a host exception.
enum class ArgKind : std::uint8_t {
  kAny,
  kInt,
  kBool,
  kList,
  kMap,
  kContainer,  // list, map or string (len)
  kKey,        // map key: string or int
};

/// Scheduler operation a builtin performs instead of an implementation.
enum class SchedOp : std::uint8_t {
  kNone,       // plain builtin: runs `impl`
  kBlocking,   // blocking I/O: yields, advances the virtual clock
  kWait,       // waits on the monitor named by its argument
  kNotify,     // wakes one waiter of its argument's monitor
  kNotifyAll,  // wakes every waiter of its argument's monitor
  kJoinAll,    // waits for every other thread to finish
};

/// Engine state a builtin implementation may touch.
struct BuiltinContext {
  std::string* output = nullptr;   // print()/log() sink
  std::int64_t* now_ms = nullptr;  // virtual clock
};

using BuiltinImpl = Value (*)(std::vector<Value>& args, BuiltinContext& context);

struct Builtin {
  std::string_view name;
  int min_args = 0;
  int max_args = 0;  // -1: variadic
  /// Kinds of the first two arguments; later arguments are unchecked.
  std::array<ArgKind, 2> kinds{ArgKind::kAny, ArgKind::kAny};
  HeapEffect effect = HeapEffect::kNone;
  bool may_throw = false;
  SchedOp sched = SchedOp::kNone;
  /// Null exactly when `sched` is not kNone: the scheduler op is the effect.
  BuiltinImpl impl = nullptr;

  /// Models blocking I/O: advances the virtual clock and trips the
  /// blocking-in-sync detector.
  [[nodiscard]] bool blocking() const { return sched == SchedOp::kBlocking; }
};

/// The row for `name`, or nullptr when `name` is not a builtin.
[[nodiscard]] const Builtin* find_builtin(std::string_view name);

/// True when `name` is a blocking builtin.
[[nodiscard]] bool is_blocking_builtin(std::string_view name);

/// The map key a value names: a string as itself, an int in decimal.
/// Throws InterpError for any other kind.
[[nodiscard]] std::string map_key(const Value& key);

/// Throws InterpError unless `args` matches the row's arity and kinds.
void check_builtin_args(const Builtin& builtin, const std::vector<Value>& args);

}  // namespace lisa::minilang
