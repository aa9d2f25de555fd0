// Tree-walking interpreter for MiniLang — the one execution core.
//
// Interp defines MiniLang's statement, expression and builtin semantics for
// every consumer: concrete test replay, scheduled runs (below) and concolic
// replay, which attaches to it as a shadow layer (ExecObserver's opt-in
// shadow callbacks; concolic/engine.hpp) instead of re-implementing the walk.
// A virtual clock and a pluggable observer make executions deterministic and
// measurable.
//
// Thread scheduling: `spawn f(args);` statements create cooperative thread
// roots. Outside a scheduled run the spawned call executes inline to
// completion at the spawn point (serial semantics — single-schedule replay
// by construction). Inside run_scheduled_test() every spawn becomes a fiber
// (its own stack, on the calling OS thread) and a single execution token
// moves between fibers by direct stack switches: the interpreter yields at
// scheduling points (spawn, sync enter, blocking builtins, shared field
// access, wait/notify/join), and a ScheduleController decides which runnable
// thread proceeds. A monitor release does not yield: it leaves the thread
// owing a preemption point, which its next yield pays. Some shared accesses
// have no yield point of their own: an index read or write, a builtin that
// reads a list, map or object argument or uses the virtual clock (`now`,
// `advance_clock`), a string concatenation that renders an object or
// container, and keying a list or map monitor. These yield while a point
// is owed, so between a release and its next yield a thread touches only
// thread-local state and the print output, which no verdict reads. A
// release is a left mover (Lipton's reduction), so preempting at that next
// yield is equivalent to preempting right after the release. The one
// exception is the text of an uncaught exception, rendered from its value
// when the thread ends: the run fails in every such schedule, and only
// that message can differ. Exactly one thread executes at any moment, so
// interpreter state needs no locking and runs are fully deterministic for
// a fixed decision sequence.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <string>
#include <unordered_map>
#include <vector>

#include "minilang/ast.hpp"
#include "minilang/value.hpp"

namespace lisa::minilang {

/// MiniLang-level exception (a `throw` that escaped to the host).
class MiniThrow : public std::runtime_error {
 public:
  explicit MiniThrow(Value value)
      : std::runtime_error("uncaught MiniLang exception: " + value.to_display()),
        value_(std::move(value)) {}
  [[nodiscard]] const Value& value() const noexcept { return value_; }

 private:
  Value value_;
};

/// Engine-level error: type confusion, unknown function.
class InterpError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Step-limit (fuel) exhaustion — a *resource* outcome, not a program bug.
/// Distinct from InterpError so the checking stack can route it into
/// inconclusive accounting instead of reporting a generic engine failure;
/// still an InterpError subtype so existing catch sites keep working.
class StepLimitExceeded : public InterpError {
 public:
  explicit StepLimitExceeded(std::int64_t limit)
      : InterpError("step limit exhausted after " + std::to_string(limit) +
                    " statements: possible non-terminating MiniLang program"),
        limit_(limit) {}
  [[nodiscard]] std::int64_t limit() const noexcept { return limit_; }

 private:
  std::int64_t limit_ = 0;
};

/// Mutable view of the executing frame, handed to state-observing
/// callbacks (ExecObserver::on_state). Lookups see every scope of the
/// current function frame, innermost first; returned pointers stay valid
/// only for the duration of the callback. Mutation through the pointer is
/// deliberate — the counterexample narrator (obs/explain.hpp) injects
/// witness state this way.
class StateAccess {
 public:
  virtual ~StateAccess() = default;
  /// The live slot for local `name`, or nullptr when no scope defines it.
  [[nodiscard]] virtual Value* lookup(const std::string& name) = 0;
  /// Every visible local name (unordered; callers sort for determinism).
  [[nodiscard]] virtual std::vector<std::string> local_names() const = 0;
  /// Monitors held at this statement.
  [[nodiscard]] virtual int sync_depth() const = 0;
  /// The executing thread's call stack: its root (the @test or spawned
  /// function) first, the function whose statement is about to run last.
  [[nodiscard]] virtual std::vector<const FuncDecl*> call_stack() const = 0;
};

/// A dotted path ("s.session.ttl") resolved against a live frame.
struct PathResolution {
  bool ok = false;     // every segment resolved
  Value value;         // the value the path names
  ObjectPtr parent;    // object owning the leaf field (null for a bare local)
  std::string leaf;    // leaf field name ("" for a bare local)
};

/// Resolves `dotted` from the frame's locals through object fields.
[[nodiscard]] PathResolution resolve_path(StateAccess& state, const std::string& dotted);

/// Opaque handle a shadow observer attaches to a value; kNoShadow is
/// "untracked". Interp stores handles but never interprets them.
using ShadowId = std::uint32_t;
inline constexpr ShadowId kNoShadow = 0;

/// Fuel steps between ExecObserver::on_fuel calls.
inline constexpr std::int64_t kFuelStride = 256;

/// Observation points used by coverage measurement (on_stmt) and the
/// runtime blocking-in-sync detector. All callbacks default to no-ops.
class ExecObserver {
 public:
  virtual ~ExecObserver() = default;
  virtual void on_stmt(const FuncDecl& fn, const Stmt& stmt) { (void)fn, (void)stmt; }
  virtual void on_call(const FuncDecl& fn) { (void)fn; }
  /// Fired when a blocking builtin (or @blocking function) executes.
  /// `sync_depth` > 0 means the call happens while holding a monitor.
  virtual void on_blocking(const std::string& name, int sync_depth) {
    (void)name, (void)sync_depth;
  }
  /// Opt-in state observation: when wants_state() returns true, on_state
  /// fires before every statement with a mutable view of the live frame.
  /// Kept behind the flag so the common observers pay one virtual call,
  /// not a frame adapter, per statement.
  [[nodiscard]] virtual bool wants_state() { return false; }
  virtual void on_state(const FuncDecl& fn, const Stmt& stmt, StateAccess& state) {
    (void)fn, (void)stmt, (void)state;
  }

  // --- Opt-in shadow layer ------------------------------------------------
  // When wants_shadows() returns true (asked once, by set_observer), Interp
  // carries a ShadowId beside every local and call argument and asks the
  // observer for the shadow of each result below. Every other result —
  // literals, arithmetic, strings, containers, call returns — is untracked,
  // and a field store drops the stored value's shadow. A short-circuiting
  // `&&`/`||` yields its lhs, shadow included. Observers that do not opt in
  // cost the concrete path one predictable branch per hook site.
  [[nodiscard]] virtual bool wants_shadows() { return false; }
  /// `object.field` read `value`.
  virtual ShadowId shadow_field_read(const Object& object, const std::string& field,
                                     const Value& value) {
    (void)object, (void)field, (void)value;
    return kNoShadow;
  }
  /// `!operand`.
  virtual ShadowId shadow_not(ShadowId operand) { (void)operand; return kNoShadow; }
  /// `lhs && rhs` / `lhs || rhs` when both sides ran.
  virtual ShadowId shadow_logic(bool is_and, ShadowId lhs, ShadowId rhs) {
    (void)is_and, (void)lhs, (void)rhs;
    return kNoShadow;
  }
  /// `lhs == rhs` (`eq`) or `lhs != rhs`, on values of any type.
  virtual ShadowId shadow_equality(bool eq, const Value& lhs, ShadowId lhs_shadow,
                                   const Value& rhs, ShadowId rhs_shadow) {
    (void)eq, (void)lhs, (void)lhs_shadow, (void)rhs, (void)rhs_shadow;
    return kNoShadow;
  }
  /// `<`, `<=`, `>` or `>=` on two ints.
  virtual ShadowId shadow_compare(BinOp op, std::int64_t lhs, ShadowId lhs_shadow,
                                  std::int64_t rhs, ShadowId rhs_shadow) {
    (void)op, (void)lhs, (void)lhs_shadow, (void)rhs, (void)rhs_shadow;
    return kNoShadow;
  }
  /// Every `if`/`while` guard decision, tracked or not.
  virtual void on_branch(ShadowId guard, bool taken) { (void)guard, (void)taken; }
  /// Every kFuelStride fuel steps (a statement, an expression and a loop
  /// iteration cost one step each). May throw to cut the run off.
  virtual void on_fuel() {}
};

// ---------------------------------------------------------------------------
// Cooperative scheduling
// ---------------------------------------------------------------------------

/// One operation a scheduled thread is about to perform at a yield point.
/// `resource` is a deterministic key ("m:obj:7" for monitors,
/// "f:7.value" for field access) used by the schedule explorer to decide
/// which pending operations commute.
struct ScheduleOp {
  enum class Kind {
    kStart,       // thread created, first statement pending
    kSpawn,       // about to create a new thread (resource = root function)
    kSyncEnter,   // about to acquire a monitor
    /// About to make a shared access with no yield point of its own (an
    /// index, a builtin reading a container, object or the clock) while the
    /// preemption point of an earlier monitor release is owed. No resource:
    /// it stands in for the release, so it conflicts with every op.
    kDeferredRelease,
    kFieldRead,   // about to read an object field
    kFieldWrite,  // about to write an object field
    kBlocking,    // about to run a blocking builtin
    kWait,        // about to wait on a monitor
    kNotify,      // just notified a monitor
    kJoin,        // waiting for every other thread to finish
  };
  Kind kind = Kind::kStart;
  std::string resource;
};

/// A runnable thread offered to the controller at a yield point, with the
/// operation it will perform when scheduled.
struct ThreadStatus {
  int thread_id = 0;
  ScheduleOp op;
};

/// Schedule decision source. pick() fires at every yield point where more
/// than one thread is runnable; `runnable` is sorted by thread id and never
/// empty. Returning an id not in the list falls back to the lowest id (so a
/// stale witness degrades deterministically instead of aborting the run);
/// returning kPruneRun aborts the run without a verdict (the sleep-set DFS
/// uses it to cut interleavings it has proven redundant).
class ScheduleController {
 public:
  /// pick() may return this to abandon the run as redundant: the scheduler
  /// tears the schedule down and reports the run as pruned, not failed.
  static constexpr int kPruneRun = -1;

  virtual ~ScheduleController() = default;
  virtual int pick(const std::vector<ThreadStatus>& runnable) = 0;
  /// Fired at every scheduling grant — including forced grants where only
  /// one thread was runnable and pick() was never consulted — with the
  /// thread and the operation it is about to perform. Sleep-set pruning
  /// needs this full op stream to decide which sleeping threads to wake.
  virtual void observe(const ThreadStatus& granted) { (void)granted; }
};

/// Outcome of one scheduled execution of a @test function.
struct ScheduleRunResult {
  bool test_passed = false;
  /// No runnable thread while unfinished threads remained: a deadlock or a
  /// missed-notify hang under this schedule.
  bool hung = false;
  /// The run was cut short by the interpreter step limit — a resource
  /// outcome, not a verdict (the explorer reports it as inconclusive).
  bool degraded = false;
  /// The controller returned kPruneRun: the interleaving was abandoned as
  /// redundant. Neither a pass nor a failure — the covering schedule was
  /// (or will be) explored elsewhere.
  bool pruned = false;
  /// When the controller pruned the run, so a caller can time the teardown
  /// that follows (every live thread unwinding); unset unless `pruned`.
  std::chrono::steady_clock::time_point pruned_at;
  int threads_spawned = 0;
  /// pick() calls made — yield points where the schedule actually chose.
  int decisions = 0;
  std::string error;  // first failure: assert text, hang detail, engine error
};

class Interp {
 public:
  /// `program` must outlive the interpreter.
  explicit Interp(const Program& program);

  /// Calls a MiniLang function by name. Throws MiniThrow for uncaught
  /// MiniLang exceptions, InterpError for engine errors.
  Value call(const std::string& function, std::vector<Value> args);

  /// Runs one @test function; returns true on success, false if the test
  /// threw. Failure detail is available via last_error().
  bool run_test(const std::string& test_name);

  /// Runs every @test function; returns (passed, failed) counts.
  std::pair<int, int> run_all_tests();

  /// Runs one @test function under the cooperative scheduler: every spawn
  /// becomes a thread and `controller` decides the interleaving. Threads
  /// still running when the test body returns are drained to completion
  /// (an implicit join); a state where no thread can proceed is reported
  /// as hung, not as a crash.
  ScheduleRunResult run_scheduled_test(const std::string& test_name,
                                       ScheduleController& controller);

  /// Id of the currently executing thread: 0 for the main/test thread and
  /// for every serial run, 1.. for spawned threads during scheduled runs.
  /// Trace recorders use this to tag steps with their thread.
  [[nodiscard]] int current_thread_id() const { return ctx_->id; }

  [[nodiscard]] const std::string& last_error() const { return last_error_; }

  /// True when the last run_test() failed because the step limit ran out
  /// (see set_fuel) rather than a program error — a structured outcome the
  /// caller should surface as inconclusive, not as a test failure.
  [[nodiscard]] bool last_run_hit_step_limit() const { return step_limit_hit_; }

  /// Virtual clock (milliseconds). now() in MiniLang reads this.
  [[nodiscard]] std::int64_t now_ms() const { return now_ms_; }
  void set_now_ms(std::int64_t ms) { now_ms_ = ms; }

  /// Per-blocking-call latency added to the virtual clock.
  void set_blocking_latency_ms(std::int64_t ms) { blocking_latency_ms_ = ms; }

  /// Upper bound on executed statements per call(); guards against
  /// non-terminating corpus programs. Default 2 million.
  void set_fuel(std::int64_t fuel) {
    fuel_limit_ = fuel;
    fuel_checkpoint_ = 0;
  }

  void set_observer(ExecObserver* observer) {
    observer_ = observer;
    shadow_ = observer != nullptr && observer->wants_shadows() ? observer : nullptr;
    fuel_checkpoint_ = 0;
  }

  /// Output accumulated by print(); cleared by take_output().
  [[nodiscard]] std::string take_output() { return std::exchange(output_, std::string()); }

 private:
  /// A local or argument: its value plus the shadow observer's handle.
  struct Slot {
    Value value;
    ShadowId shadow = kNoShadow;
  };
  struct Frame {
    std::vector<std::unordered_map<std::string, Slot>> scopes;
  };
  enum class Flow { kNormal, kReturn, kBreak, kContinue };

  /// One active call. Each call_function invocation keeps its record on
  /// the host stack and links it to its caller's, so the thread's call
  /// stack costs a pointer save and restore per call.
  struct CallRecord {
    const FuncDecl* fn = nullptr;
    const CallRecord* caller = nullptr;
  };

  /// Per-thread interpreter state. Serial runs use main_ctx_ only; during
  /// scheduled runs the scheduler swaps ctx_ to the active thread's record
  /// at every token handoff, so monitor depth and the call stack are
  /// tracked per thread (two runnable threads must not share a sync depth —
  /// the blocking-in-sync detector would misfire).
  struct ThreadCtx {
    int id = 0;
    int sync_depth = 0;
    int depth = 0;                    // active calls
    const CallRecord* top = nullptr;  // innermost active call
  };

  class Scheduler;   // cooperative fiber scheduler (interp.cpp)
  class FrameState;  // StateAccess over a frame (interp.cpp)

  Value call_function(const FuncDecl& fn, std::vector<Slot> args);
  std::vector<Slot> eval_args(const Expr& call, Frame& frame);
  Flow exec_block(const std::vector<StmtPtr>& stmts, Frame& frame, Value& return_value);
  Flow exec_stmt(const Stmt& stmt, Frame& frame, Value& return_value);
  bool branch(const Expr& guard, Frame& frame);
  /// Evaluates `expr`; when `shadow` is non-null it receives the result's
  /// shadow (callers pre-set it to kNoShadow).
  Value eval(const Expr& expr, Frame& frame, ShadowId* shadow = nullptr);
  Value eval_binary(const Expr& expr, Frame& frame, ShadowId* shadow);
  Value call_builtin(const Expr& expr, Frame& frame);
  Slot* lookup(Frame& frame, const std::string& name);
  void assign_lvalue(const Expr& lvalue, Slot value, Frame& frame);
  void burn_fuel() {
    if (++fuel_used_ >= fuel_checkpoint_) [[unlikely]]
      fuel_checkpoint();
  }
  void fuel_checkpoint();
  [[nodiscard]] bool truthy(const Value& v, const Expr& where) const;

  const Program& program_;
  ExecObserver* observer_ = nullptr;
  ExecObserver* shadow_ = nullptr;  // observer_ when it wants shadows
  std::string output_;
  std::string last_error_;
  std::int64_t now_ms_ = 0;
  std::int64_t blocking_latency_ms_ = 5;
  std::int64_t fuel_limit_ = 2'000'000;
  std::int64_t fuel_used_ = 0;
  /// Next fuel count that needs fuel_checkpoint(): the limit, or the next
  /// on_fuel stride for a shadow observer. 0 forces a recompute.
  std::int64_t fuel_checkpoint_ = 0;
  bool step_limit_hit_ = false;
  ThreadCtx main_ctx_;
  ThreadCtx* ctx_ = &main_ctx_;
  Scheduler* sched_ = nullptr;  // non-null only inside run_scheduled_test
  std::uint64_t next_object_id_ = 1;
};

}  // namespace lisa::minilang
