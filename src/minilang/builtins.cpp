#include "minilang/builtins.hpp"

#include <algorithm>

#include "minilang/interp.hpp"

namespace lisa::minilang {
namespace {

using enum ArgKind;
using enum HeapEffect;

Value print_line(std::vector<Value>& args, BuiltinContext& context) {
  if (context.output != nullptr) {
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i > 0) *context.output += " ";
      *context.output += args[i].to_display();
    }
    *context.output += "\n";
  }
  return Value::null();
}

constexpr Builtin blocking_io(std::string_view name) {
  return {name, 0, -1, {kAny, kAny}, kNone, false, SchedOp::kBlocking, nullptr};
}

/// Wait and notify release or hand over a monitor, so another thread may
/// write any field in between: their heap effect is opaque and they may
/// throw, exactly as summaries treat a name they cannot model.
constexpr Builtin coordination(std::string_view name, int args, SchedOp op) {
  return {name, args, args, {kAny, kAny}, kOpaque, true, op, nullptr};
}

// One row per builtin, sorted by name. Blocking rows model the
// serialization / disk / network calls that the ZK-2201 class of incidents
// performs while holding a monitor.
constexpr std::array kTable{
    Builtin{"abs", 1, 1, {kInt, kAny}, kNone, false, SchedOp::kNone,
            [](std::vector<Value>& args, BuiltinContext&) {
              const std::int64_t a = args[0].as_int();
              return Value::of_int(a < 0 ? int_neg(a) : a);
            }},
    Builtin{"advance_clock", 1, 1, {kInt, kAny}, kNone, false, SchedOp::kNone,
            [](std::vector<Value>& args, BuiltinContext& context) {
              if (context.now_ms != nullptr)
                *context.now_ms = int_add(*context.now_ms, args[0].as_int());
              return Value::null();
            }},
    Builtin{"assert", 1, -1, {kBool, kAny}, kNone, true, SchedOp::kNone,
            [](std::vector<Value>& args, BuiltinContext&) {
              if (!args[0].as_bool()) {
                std::string message = "assertion failed";
                if (args.size() > 1) message += ": " + args[1].to_display();
                throw MiniThrow(Value::of_string(message));
              }
              return Value::null();
            }},
    blocking_io("block_io"),
    Builtin{"contains", 2, 2, {kList, kAny}, kNone, false, SchedOp::kNone,
            [](std::vector<Value>& args, BuiltinContext&) {
              for (const Value& item : *args[0].as_list())
                if (item.equals(args[1])) return Value::of_bool(true);
              return Value::of_bool(false);
            }},
    Builtin{"del", 2, 2, {kMap, kKey}, kMutatesArgs, false, SchedOp::kNone,
            [](std::vector<Value>& args, BuiltinContext&) {
              args[0].as_map()->erase(map_key(args[1]));
              return Value::null();
            }},
    blocking_io("flush_to_disk"),
    blocking_io("fsync_log"),
    Builtin{"get", 2, 2, {kMap, kKey}, kNone, false, SchedOp::kNone,
            [](std::vector<Value>& args, BuiltinContext&) {
              const auto& map = *args[0].as_map();
              const auto it = map.find(map_key(args[1]));
              return it == map.end() ? Value::null() : it->second;
            }},
    Builtin{"has", 2, 2, {kMap, kKey}, kNone, false, SchedOp::kNone,
            [](std::vector<Value>& args, BuiltinContext&) {
              return Value::of_bool(args[0].as_map()->count(map_key(args[1])) > 0);
            }},
    coordination("join_all", 0, SchedOp::kJoinAll),
    Builtin{"keys", 1, 1, {kMap, kAny}, kNone, false, SchedOp::kNone,
            [](std::vector<Value>& args, BuiltinContext&) {
              Value out = Value::new_list();
              for (const auto& entry : *args[0].as_map())
                out.as_list()->push_back(Value::of_string(entry.first));
              return out;
            }},
    Builtin{"len", 1, 1, {kContainer, kAny}, kNone, false, SchedOp::kNone,
            [](std::vector<Value>& args, BuiltinContext&) {
              const Value& v = args[0];
              if (v.is_list()) return Value::of_int(static_cast<std::int64_t>(v.as_list()->size()));
              if (v.is_map()) return Value::of_int(static_cast<std::int64_t>(v.as_map()->size()));
              return Value::of_int(static_cast<std::int64_t>(v.as_string().size()));
            }},
    Builtin{"list_new", 0, 0, {kAny, kAny}, kNone, false, SchedOp::kNone,
            [](std::vector<Value>&, BuiltinContext&) { return Value::new_list(); }},
    Builtin{"log", 0, -1, {kAny, kAny}, kNone, false, SchedOp::kNone, print_line},
    Builtin{"map_new", 0, 0, {kAny, kAny}, kNone, false, SchedOp::kNone,
            [](std::vector<Value>&, BuiltinContext&) { return Value::new_map(); }},
    Builtin{"max", 2, 2, {kInt, kInt}, kNone, false, SchedOp::kNone,
            [](std::vector<Value>& args, BuiltinContext&) {
              return Value::of_int(std::max(args[0].as_int(), args[1].as_int()));
            }},
    Builtin{"min", 2, 2, {kInt, kInt}, kNone, false, SchedOp::kNone,
            [](std::vector<Value>& args, BuiltinContext&) {
              return Value::of_int(std::min(args[0].as_int(), args[1].as_int()));
            }},
    blocking_io("network_send"),
    coordination("notify", 1, SchedOp::kNotify),
    coordination("notify_all", 1, SchedOp::kNotifyAll),
    Builtin{"now", 0, 0, {kAny, kAny}, kNone, false, SchedOp::kNone,
            [](std::vector<Value>&, BuiltinContext& context) {
              return Value::of_int(context.now_ms != nullptr ? *context.now_ms : 0);
            }},
    Builtin{"print", 0, -1, {kAny, kAny}, kNone, false, SchedOp::kNone, print_line},
    Builtin{"push", 2, 2, {kList, kAny}, kMutatesArgs, false, SchedOp::kNone,
            [](std::vector<Value>& args, BuiltinContext&) {
              args[0].as_list()->push_back(args[1]);
              return Value::null();
            }},
    Builtin{"put", 3, 3, {kMap, kKey}, kMutatesArgs, false, SchedOp::kNone,
            [](std::vector<Value>& args, BuiltinContext&) {
              (*args[0].as_map())[map_key(args[1])] = args[2];
              return Value::null();
            }},
    Builtin{"str", 1, 1, {kAny, kAny}, kNone, false, SchedOp::kNone,
            [](std::vector<Value>& args, BuiltinContext&) {
              return Value::of_string(args[0].to_display());
            }},
    coordination("wait", 1, SchedOp::kWait),
    blocking_io("write_record"),
};

static_assert(std::ranges::is_sorted(kTable, {}, &Builtin::name));
static_assert(std::ranges::all_of(kTable, [](const Builtin& b) {
  return (b.impl == nullptr) == (b.sched != SchedOp::kNone);
}));

// Every call site in sema, the summaries, the lock-state analysis and the
// call graph looks its callee up here, so a lookup is one slot computation,
// one load and one compare. slot_of is collision-free over the table's
// names; the static_assert below names the fix when a new row collides.
constexpr std::size_t kSlots = 128;

constexpr std::size_t slot_of(std::string_view name) {
  return (name.size() + 23 * static_cast<unsigned char>(name.front()) +
          static_cast<unsigned char>(name.back())) %
         kSlots;
}

constexpr std::array<const Builtin*, kSlots> kIndex = [] {
  std::array<const Builtin*, kSlots> index{};
  for (const Builtin& row : kTable) index[slot_of(row.name)] = &row;
  return index;
}();

static_assert(std::ranges::all_of(kTable,
                                  [](const Builtin& row) {
                                    return kIndex[slot_of(row.name)] == &row;
                                  }),
              "two builtins share a slot: change slot_of's multipliers");

bool has_kind(const Value& v, ArgKind kind) {
  switch (kind) {
    case kAny: return true;
    case kInt: return v.is_int();
    case kBool: return v.is_bool();
    case kList: return v.is_list();
    case kMap: return v.is_map();
    case kContainer: return v.is_list() || v.is_map() || v.is_string();
    case kKey: return v.is_string() || v.is_int();
  }
  return false;
}

const char* kind_name(ArgKind kind) {
  switch (kind) {
    case kInt: return "int";
    case kBool: return "bool";
    case kList: return "list";
    case kMap: return "map";
    case kContainer: return "container";
    case kKey: return "string-or-int key";
    case kAny: break;
  }
  return "value";
}

}  // namespace

std::string map_key(const Value& key) {
  if (key.is_string()) return key.as_string();
  if (!key.is_int()) throw InterpError("map key is not a string or int");
  return std::to_string(key.as_int());
}

const Builtin* find_builtin(std::string_view name) {
  if (name.empty()) return nullptr;
  const Builtin* row = kIndex[slot_of(name)];
  return row != nullptr && row->name == name ? row : nullptr;
}

bool is_blocking_builtin(std::string_view name) {
  const Builtin* builtin = find_builtin(name);
  return builtin != nullptr && builtin->blocking();
}

void check_builtin_args(const Builtin& builtin, const std::vector<Value>& args) {
  const auto count = static_cast<int>(args.size());
  if (count < builtin.min_args || (builtin.max_args >= 0 && count > builtin.max_args))
    throw InterpError("builtin " + std::string(builtin.name) + " expects " +
                      std::to_string(builtin.min_args) +
                      (builtin.max_args == builtin.min_args ? "" : " or more") + " args");
  for (std::size_t i = 0; i < builtin.kinds.size() && i < args.size(); ++i)
    if (!has_kind(args[i], builtin.kinds[i]))
      throw InterpError(std::string(builtin.name) + "() on non-" + kind_name(builtin.kinds[i]));
}

}  // namespace lisa::minilang
