#include "minilang/interp.hpp"

#include <cxxabi.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#include "minilang/builtins.hpp"
#include "minilang/printer.hpp"
#include "support/strings.hpp"

#if !defined(__x86_64__)
#error "port lisa_fiber_switch and lisa_fiber_start (minilang/interp.cpp) to this target"
#endif

// The fiber stack switch. lisa_fiber_switch(save, load) pushes the running
// fiber's callee-saved registers, MXCSR and x87 control word, stores its
// stack pointer in *save, loads `load` and pops the same frame off the
// resumed fiber's stack. Everything else is caller-saved across the call, so
// nothing else needs saving, and no signal mask is touched. A new fiber's
// first frame (Scheduler::first_switch_frame) returns into lisa_fiber_start,
// which calls r13(r12). Its CFI marks the return address undefined, so an
// unwinder stops there instead of walking off the top of the fiber stack.
extern "C" {
void lisa_fiber_switch(void** save, void* load);
void lisa_fiber_start();
}
asm(R"(
  .pushsection .text
  .p2align 4
  .type lisa_fiber_switch, @function
lisa_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  fnstcw (%rsp)
  stmxcsr 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size lisa_fiber_switch, .-lisa_fiber_switch

  .p2align 4
  .type lisa_fiber_start, @function
lisa_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size lisa_fiber_start, .-lisa_fiber_start
  .popsection
)");

namespace lisa::minilang {

namespace {

/// Runs `fn` when the scope ends, normally or by an exception.
template <typename F>
class ScopeExit {
 public:
  explicit ScopeExit(F fn) : fn_(std::move(fn)) {}
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;
  ~ScopeExit() { fn_(); }

 private:
  F fn_;
};

/// Unwind signal for threads of a torn-down schedule (deadlock, failure, or
/// early teardown). Deliberately not a MiniThrow/InterpError subtype so no
/// MiniLang `try` or engine catch site can swallow it.
struct ScheduleAborted {};

/// Deterministic monitor identity: object identity for objects, value
/// identity for primitives (two threads syncing on the string "journal"
/// contend for the same monitor, matching how the lockset analysis names
/// monitors).
std::string monitor_key_of(const Value& v) {
  if (v.is_object()) return "obj:" + std::to_string(v.as_object()->object_id);
  if (v.is_string()) return "str:" + v.as_string();
  if (v.is_int()) return "int:" + std::to_string(v.as_int());
  return "val:" + v.to_display();
}

/// Whether `v` refers to heap state another thread can write: reading a
/// field or element through it, or rendering it, is a shared access.
bool reaches_heap(const Value& v) { return v.is_object() || v.is_list() || v.is_map(); }

}  // namespace

// ---------------------------------------------------------------------------
// Fiber stacks and switching
// ---------------------------------------------------------------------------

namespace {

/// libstdc++'s per-OS-thread exception-handling globals (__cxa_eh_globals):
/// the chain of exceptions being handled and the count in flight. Fibers
/// share one OS thread, so each switch saves the outgoing fiber's copy and
/// installs the incoming one. A fiber can switch inside a catch handler: a
/// MiniLang catch body runs inside the C++ handler that caught its
/// MiniThrow, and its shared accesses yield. Without the swap, leaving that
/// handler would end another fiber's exception, and a `throw;` inside it
/// would rethrow one.
struct EhGlobals {
  void* caught_exceptions = nullptr;
  unsigned int uncaught_exceptions = 0;
};

/// Saves the running fiber's exception state into `save` and installs `load`.
void swap_eh_globals(EhGlobals& save, const EhGlobals& load) {
  void* live = abi::__cxa_get_globals();
  std::memcpy(&save, live, sizeof save);
  std::memcpy(live, &load, sizeof load);
}

/// Usable bytes per fiber stack: the default OS thread stack, so a spawned
/// thread nests as deep as the main thread can. The 256-frame call-depth
/// limit must trip before the guard page does: 256 levels of try/sync
/// recursion take 0.5-0.75 MiB in Release and 4-5 MiB under ASan. Only
/// touched pages cost memory.
constexpr std::size_t kFiberStackBytes = std::size_t{8} << 20;

/// Recycles fiber stacks on one OS thread, each named by its lowest usable
/// address. ScheduleExplorer builds a fresh
/// Interp (so a fresh Scheduler) for every schedule, hence the pool lives
/// per OS thread, not per scheduler. Stacks are MAP_NORESERVE, so only
/// touched pages count, with a PROT_NONE guard page below each so an
/// overflow faults instead of corrupting a neighbouring mapping.
class StackPool {
 public:
  StackPool() = default;
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;
  ~StackPool() {
    for (void* stack : free_) unmap(stack);
  }

  void* acquire() {
    if (free_.empty()) return map();
    void* stack = free_.back();
    free_.pop_back();
#if defined(__SANITIZE_ADDRESS__)
    // The previous fiber never returned from its entry frame, whose
    // redzones are still poisoned.
    __asan_unpoison_memory_region(stack, kFiberStackBytes);
#endif
    return stack;
  }

  void release(void* stack) {
    if (free_.size() < kMaxPooled)
      free_.push_back(stack);
    else
      unmap(stack);
  }

 private:
  static constexpr std::size_t kMaxPooled = 16;

  static std::size_t guard_bytes() { return static_cast<std::size_t>(sysconf(_SC_PAGESIZE)); }

  static void* map() {
    const std::size_t guard = guard_bytes();
    void* region = mmap(nullptr, guard + kFiberStackBytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    if (region == MAP_FAILED) throw InterpError("cannot map a thread stack");
    // Huge pages would make each touched stack cost 2 MiB of memory.
    madvise(region, guard + kFiberStackBytes, MADV_NOHUGEPAGE);
    if (mprotect(region, guard, PROT_NONE) != 0) {
      munmap(region, guard + kFiberStackBytes);
      throw InterpError("cannot protect a thread stack guard page");
    }
    return static_cast<char*>(region) + guard;
  }

  static void unmap(void* stack) {
    const std::size_t guard = guard_bytes();
    munmap(static_cast<char*>(stack) - guard, guard + kFiberStackBytes);
  }

  std::vector<void*> free_;
};

StackPool& stack_pool() {
  thread_local StackPool pool;
  return pool;
}

}  // namespace

// ---------------------------------------------------------------------------
// Cooperative scheduler
// ---------------------------------------------------------------------------
//
// Every spawned MiniLang thread is a fiber: its own stack on the calling OS
// thread, entered by lisa_fiber_switch. The main/test thread keeps the
// caller's stack. A single execution token moves by direct switches: a
// yield point picks the next thread (consulting the controller only when
// the choice is real) and swaps to it, and the swap returns once a later
// yield point picks this thread again. Exactly one thread runs interpreter
// code at any instant, so the interpreter needs no synchronization. An
// aborting schedule (hang, failure, prune, teardown) passes the token to
// each remaining live thread in turn, lowest id first, and each unwinds
// ScheduleAborted before handing it on. That is one exception per thread:
// the calls and sync blocks it leaves restore their state in scope guards,
// and none catches and rethrows.
class Interp::Scheduler final {
 public:
  enum class TState { kRunnable, kBlockedMonitor, kWaiting, kNotified, kJoining, kFinished };

  struct TRec {
    int id = 0;
    TState state = TState::kRunnable;
    ScheduleOp pending;       // the operation this thread performs when scheduled
    bool owes_preemption = false;  // released a monitor since its last yield
    std::string blocked_on;   // monitor key for kBlockedMonitor/kWaiting/kNotified
    int wait_depth = 0;       // reentry depth to restore when a wait() resumes
    Interp::ThreadCtx ctx;
    // Fiber state: the stack pointer and exception state saved while the
    // thread is switched out, and its stack (empty for the main thread).
    void* sp = nullptr;
    EhGlobals eh;
    void* stack = nullptr;
    bool started = false;  // entered at least once; has frames to unwind
    const FuncDecl* root = nullptr;
    std::vector<Interp::Slot> args;
#if defined(__SANITIZE_THREAD__)
    void* tsan_fiber = nullptr;
#endif
  };

  Scheduler(Interp& interp, ScheduleController& controller)
      : interp_(interp), controller_(controller) {
    auto main_rec = std::make_unique<TRec>();
    main_rec->id = 0;
    main_rec->ctx.id = 0;
    main_rec->pending = {ScheduleOp::Kind::kStart, ""};
    main_rec->started = true;
#if defined(__SANITIZE_THREAD__)
    main_rec->tsan_fiber = __tsan_get_current_fiber();
#endif
    threads_.push_back(std::move(main_rec));
    saved_ctx_ = interp_.ctx_;
    interp_.ctx_ = &threads_[0]->ctx;
    active_ = 0;
  }

  ~Scheduler() {
    finalize_teardown();
    for (const auto& rec : threads_) {
      if (rec->id == 0) continue;
      stack_pool().release(rec->stack);
#if defined(__SANITIZE_THREAD__)
      __tsan_destroy_fiber(rec->tsan_fiber);
#endif
    }
    interp_.ctx_ = saved_ctx_;
  }

  // --- yield points (called by the token-holding thread) -------------------

  void yield(ScheduleOp op) {
    TRec& self = current();
    self.pending = std::move(op);
    reschedule(self);
  }

  void spawn(const FuncDecl& fn, std::vector<Interp::Slot> args) {
    TRec& self = current();
    auto rec = std::make_unique<TRec>();
    rec->id = static_cast<int>(threads_.size());
    rec->ctx.id = rec->id;
    rec->pending = {ScheduleOp::Kind::kStart, fn.name};
    rec->root = &fn;
    rec->args = std::move(args);
    rec->stack = stack_pool().acquire();
    rec->sp = first_switch_frame(rec->stack);
#if defined(__SANITIZE_THREAD__)
    rec->tsan_fiber = __tsan_create_fiber(0);
#endif
    threads_.push_back(std::move(rec));
    ++result_.threads_spawned;
    self.pending = {ScheduleOp::Kind::kSpawn, fn.name};
    reschedule(self);
  }

  void sync_enter(const std::string& key) {
    TRec& self = current();
    self.pending = {ScheduleOp::Kind::kSyncEnter, "m:" + key};
    for (;;) {
      reschedule(self);  // preemption point before acquisition
      const auto it = monitors_.find(key);
      if (it == monitors_.end()) {
        monitors_[key] = {self.id, 1};
        break;
      }
      if (it->second.first == self.id) {
        ++it->second.second;  // reentrant acquisition
        break;
      }
      self.state = TState::kBlockedMonitor;
      self.blocked_on = key;
    }
    self.state = TState::kRunnable;
    self.blocked_on.clear();
  }

  /// Releases without yielding. The preemption point the release makes is
  /// owed until the thread's next yield, which pays it.
  void sync_exit(const std::string& key) {
    TRec& self = current();
    const auto it = monitors_.find(key);
    if (it != monitors_.end() && it->second.first == self.id) {
      if (--it->second.second == 0) monitors_.erase(it);
    }
    self.owes_preemption = true;
  }

  /// A shared access with no yield point of its own: an index access, or a
  /// builtin, concatenation or monitor key that reads a container, renders
  /// an object or uses the virtual clock. It yields only to pay an owed
  /// preemption point.
  void shared_access() {
    TRec& self = current();
    if (!self.owes_preemption) return;
    self.pending = {ScheduleOp::Kind::kDeferredRelease, ""};
    reschedule(self);
  }

  /// A list or map monitor is keyed by its contents, which another thread
  /// can write, so keying one is a shared access.
  std::string monitor_key(const Value& monitor) {
    if (monitor.is_list() || monitor.is_map()) shared_access();
    return monitor_key_of(monitor);
  }

  // --- coordination builtins (SchedOp rows of the builtin table) ----------

  void wait_on(const Value& monitor) {
    const std::string key = monitor_key(monitor);
    TRec& self = current();
    // First a *runnable* yield before joining the waitset: this is the
    // check-to-wait window. A notify scheduled into it finds no waiter and
    // is lost — the missed-notify failure mode; without this gap the
    // preceding guard read and the wait would be atomic under the token.
    self.pending = {ScheduleOp::Kind::kWait, "m:" + key};
    reschedule(self);
    // Release the monitor fully if held, remembering the depth to restore on
    // wakeup. Waiting *without* holding the monitor is deliberately allowed:
    // that unguarded check-then-wait is exactly the missed-notify bug shape
    // the corpus models (Java would throw IllegalMonitorStateException).
    self.wait_depth = 0;
    const auto it = monitors_.find(key);
    if (it != monitors_.end() && it->second.first == self.id) {
      self.wait_depth = it->second.second;
      monitors_.erase(it);
    }
    self.state = TState::kWaiting;
    self.blocked_on = key;
    self.pending = {ScheduleOp::Kind::kWait, "m:" + key};
    reschedule(self);
    // Resumed: a notify moved us to kNotified and the runnable test held the
    // monitor free, so reacquisition at the remembered depth cannot fail.
    if (self.wait_depth > 0) monitors_[key] = {self.id, self.wait_depth};
    self.state = TState::kRunnable;
    self.blocked_on.clear();
    self.wait_depth = 0;
  }

  void notify(const Value& monitor, bool all) {
    const std::string key = monitor_key(monitor);
    TRec& self = current();
    // Wake waiters in thread-id order (deterministic FIFO). A notify with no
    // waiter is lost — the missed-notify failure mode, not an error.
    for (const auto& rec : threads_) {
      if (rec->state == TState::kWaiting && rec->blocked_on == key) {
        rec->state = TState::kNotified;
        if (!all) break;
      }
    }
    self.pending = {ScheduleOp::Kind::kNotify, "m:" + key};
    reschedule(self);
  }

  void join_all() {
    TRec& self = current();
    self.pending = {ScheduleOp::Kind::kJoin, ""};
    while (unfinished_other_count(self.id) > 0) {
      self.state = TState::kJoining;
      reschedule(self);
      self.state = TState::kRunnable;
    }
  }

  /// Implicit join when the test body returns: threads still running are
  /// drained to completion before the run is judged.
  void drain() { join_all(); }

  /// Unwinds every still-live fiber and merges the outcome. Called by
  /// run_scheduled_test on the main thread after it has unwound.
  void finalize(ScheduleRunResult& out) {
    finalize_teardown();
    out.threads_spawned = result_.threads_spawned;
    out.decisions = result_.decisions;
    out.hung = result_.hung;
    out.degraded = out.degraded || result_.degraded;
    out.pruned = result_.pruned;
    out.pruned_at = result_.pruned_at;
    if (out.error.empty()) out.error = result_.error;
  }

 private:
  TRec& current() { return *threads_[static_cast<std::size_t>(active_)]; }

  [[nodiscard]] int unfinished_other_count(int self_id) const {
    int count = 0;
    for (const auto& rec : threads_)
      if (rec->id != self_id && rec->state != TState::kFinished) ++count;
    return count;
  }

  [[nodiscard]] bool is_runnable(const TRec& t) const {
    switch (t.state) {
      case TState::kRunnable:
        return true;
      case TState::kBlockedMonitor: {
        const auto it = monitors_.find(t.blocked_on);
        return it == monitors_.end() || it->second.first == t.id;
      }
      case TState::kNotified: {
        if (t.wait_depth == 0) return true;
        return monitors_.find(t.blocked_on) == monitors_.end();
      }
      case TState::kJoining:
        return unfinished_other_count(t.id) == 0;
      case TState::kWaiting:
      case TState::kFinished:
        return false;
    }
    return false;
  }

  [[nodiscard]] std::vector<ThreadStatus> collect_runnable() const {
    std::vector<ThreadStatus> runnable;  // threads_ is in id order already
    for (const auto& rec : threads_)
      if (is_runnable(*rec)) runnable.push_back({rec->id, rec->pending});
    return runnable;
  }

  void activate(int id) {
    active_ = id;
    interp_.ctx_ = &threads_[static_cast<std::size_t>(id)]->ctx;
  }

  static const char* state_name(TState state) {
    switch (state) {
      case TState::kRunnable: return "runnable";
      case TState::kBlockedMonitor: return "blocked";
      case TState::kWaiting: return "waiting";
      case TState::kNotified: return "notified";
      case TState::kJoining: return "joining";
      case TState::kFinished: return "finished";
    }
    return "?";
  }

  void record_hang() {
    result_.hung = true;
    std::string detail = "schedule hang: no runnable thread;";
    for (const auto& rec : threads_) {
      if (rec->state == TState::kFinished) continue;
      detail += " t" + std::to_string(rec->id) + " " + state_name(rec->state);
      if (!rec->blocked_on.empty()) detail += " on " + rec->blocked_on;
    }
    if (result_.error.empty()) result_.error = detail;
  }

  /// Hands the token to the lowest-id unfinished thread other than
  /// `self_id`, so aborting threads unwind one at a time. A thread that
  /// never started has no frames to unwind: it is marked finished unrun.
  void abort_next(int self_id) {
    for (const auto& rec : threads_) {
      if (rec->id == self_id || rec->state == TState::kFinished) continue;
      if (!rec->started) {
        rec->state = TState::kFinished;
        continue;
      }
      activate(rec->id);
      return;
    }
  }

  /// Core handoff: choose the next thread (consulting the controller only
  /// when the choice is real), activate it, and switch to it; returns when
  /// the token comes back. Throws ScheduleAborted when the schedule is being
  /// torn down.
  void reschedule(TRec& self) {
    if (aborting_) throw ScheduleAborted{};
    self.owes_preemption = false;
    const std::vector<ThreadStatus> runnable = collect_runnable();
    if (runnable.empty()) {
      // Deadlock or missed notify: unfinished threads, none can proceed.
      record_hang();
      aborting_ = true;
      abort_next(self.id);
    } else {
      int next = runnable.front().thread_id;
      if (runnable.size() > 1) {
        ++result_.decisions;
        const int picked = controller_.pick(runnable);
        if (picked == ScheduleController::kPruneRun) {
          // The controller proved this interleaving redundant: tear the
          // schedule down with no verdict (sequential, like a hang abort).
          result_.pruned = true;
          result_.pruned_at = std::chrono::steady_clock::now();
          aborting_ = true;
          abort_next(self.id);
          transfer(self);
          throw ScheduleAborted{};
        }
        for (const ThreadStatus& status : runnable)
          if (status.thread_id == picked) next = picked;
      }
      grant(runnable, next);
      activate(next);
      if (next == self.id) return;
    }
    transfer(self);
    if (aborting_) throw ScheduleAborted{};
  }

  /// Reports the grant (thread + pending op) to the controller — every
  /// grant, even forced single-runnable ones, so sleep-set wake rules see
  /// the complete op stream.
  void grant(const std::vector<ThreadStatus>& runnable, int next) {
    for (const ThreadStatus& status : runnable)
      if (status.thread_id == next) {
        controller_.observe(status);
        return;
      }
  }

  /// Switches to the active thread unless that is `self`; returns once a
  /// later switch resumes `self`.
  void transfer(TRec& self) {
    if (active_ != self.id) switch_fiber(self, current(), /*exiting=*/false);
  }

  /// Saves `from` and resumes `to`, carrying the exception state and the
  /// sanitizer annotations with the switch. An exiting fiber is never
  /// resumed, so ASan may drop its fake stack.
  void switch_fiber(TRec& from, TRec& to, bool exiting) {
    swap_eh_globals(from.eh, to.eh);
    void* fake_stack = nullptr;
#if defined(__SANITIZE_ADDRESS__)
    switched_from_ = from.id;
    __sanitizer_start_switch_fiber(exiting ? nullptr : &fake_stack,
                                   to.id == 0 ? main_stack_bottom_ : to.stack,
                                   to.id == 0 ? main_stack_size_ : kFiberStackBytes);
#else
    (void)exiting;
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
    lisa_fiber_switch(&from.sp, to.sp);
    finish_switch(fake_stack);
  }

  /// Lays out a new fiber's stack the way lisa_fiber_switch leaves a
  /// switched-out one, so that the first switch to it returns into
  /// lisa_fiber_start, which calls fiber_entry(this).
  void* first_switch_frame(void* stack) {
    // x87 control word 0x037F and MXCSR 0x1F80, the System V initial values,
    // at the offsets fnstcw and stmxcsr use.
    constexpr std::uintptr_t kFpControl = 0x037F | (std::uintptr_t{0x1F80} << 32);
    // Two zero words at the top: a null return address above the trampoline
    // for frame-pointer walks, and a 16-byte aligned stack for its call.
    auto* top =
        reinterpret_cast<std::uintptr_t*>(static_cast<char*>(stack) + kFiberStackBytes) - 2;
    top[0] = top[1] = 0;
    std::uintptr_t* frame = top - 8;
    frame[0] = kFpControl;
    frame[1] = 0;                                              // r15
    frame[2] = 0;                                              // r14
    frame[3] = reinterpret_cast<std::uintptr_t>(&fiber_entry);  // r13
    frame[4] = reinterpret_cast<std::uintptr_t>(this);          // r12
    frame[5] = 0;                                              // rbx
    frame[6] = 0;                                              // rbp
    frame[7] = reinterpret_cast<std::uintptr_t>(&lisa_fiber_start);
    return frame;
  }

  /// Incoming half of a switch; also the first thing a new fiber runs.
  /// ASan reports the stack just left, which is how the main thread's
  /// bounds become known before any fiber switches back to it.
  void finish_switch(void* fake_stack) {
#if defined(__SANITIZE_ADDRESS__)
    const void* bottom = nullptr;
    std::size_t size = 0;
    __sanitizer_finish_switch_fiber(fake_stack, &bottom, &size);
    if (switched_from_ == 0) {
      main_stack_bottom_ = bottom;
      main_stack_size_ = size;
    }
#else
    (void)fake_stack;
#endif
  }

  static void fiber_entry(Scheduler* self) {
    self->finish_switch(nullptr);
    TRec& rec = self->current();
    self->run_thread(rec);
    self->exit_fiber(rec);
  }

  /// Body of a spawned thread: run the MiniLang thread root, then record
  /// how it ended and activate whoever runs next. Returns with no live
  /// locals, so the fiber can leave its stack for good.
  void run_thread(TRec& self) {
    self.started = true;
    bool failed = false;
    bool degraded = false;
    std::string error;
    try {
      interp_.call_function(*self.root, std::move(self.args));
    } catch (const ScheduleAborted&) {
      self.state = TState::kFinished;
      abort_next(self.id);
      return;
    } catch (const MiniThrow& thrown) {
      failed = true;
      error = "thread t" + std::to_string(self.id) + ": " + thrown.value().to_display();
    } catch (const StepLimitExceeded& limit) {
      failed = true;
      degraded = true;
      error = limit.what();
    } catch (const InterpError& engine_error) {
      failed = true;
      error = "thread t" + std::to_string(self.id) + ": " + engine_error.what();
    }
    self.state = TState::kFinished;
    self.pending = {};
    if (degraded) result_.degraded = true;
    if (failed) {
      // A failing thread decides the schedule: record it and stop scheduling
      // (the remaining threads unwind one at a time).
      if (result_.error.empty()) result_.error = error;
      result_.failed = true;
      aborting_ = true;
    }
    if (aborting_) {
      abort_next(self.id);
      return;
    }
    const std::vector<ThreadStatus> runnable = collect_runnable();
    if (runnable.empty()) {
      if (unfinished_other_count(self.id) > 0) {
        record_hang();
        aborting_ = true;
        abort_next(self.id);
      }
      return;
    }
    int next = runnable.front().thread_id;
    if (runnable.size() > 1) {
      ++result_.decisions;
      const int picked = controller_.pick(runnable);
      if (picked == ScheduleController::kPruneRun) {
        result_.pruned = true;
        result_.pruned_at = std::chrono::steady_clock::now();
        aborting_ = true;
        abort_next(self.id);
        return;
      }
      for (const ThreadStatus& status : runnable)
        if (status.thread_id == picked) next = picked;
    }
    grant(runnable, next);
    activate(next);
  }

  /// Leaves a finished fiber for good: to the thread run_thread activated,
  /// or back to the main thread when it activated none.
  [[noreturn]] void exit_fiber(TRec& self) {
    if (active_ == self.id) activate(0);
    switch_fiber(self, current(), /*exiting=*/true);
    std::abort();  // a finished fiber is never resumed
  }

  /// Unwinds any still-live fibers (the exception paths): each resumes at
  /// its yield point, unwinds ScheduleAborted and passes the token on, and
  /// the last one switches back here. Idempotent; called by finalize() and
  /// the destructor, always on the main thread.
  void finalize_teardown() {
    TRec& main = *threads_[0];
    main.state = TState::kFinished;  // the main thread has unwound
    if (unfinished_other_count(0) == 0) return;
    aborting_ = true;
    abort_next(0);
    transfer(main);
    activate(0);
  }

  struct Result {
    int threads_spawned = 0;
    int decisions = 0;
    bool hung = false;
    bool degraded = false;
    bool pruned = false;
    std::chrono::steady_clock::time_point pruned_at;
    bool failed = false;
    std::string error;
  };

  Interp& interp_;
  ScheduleController& controller_;
  Interp::ThreadCtx* saved_ctx_ = nullptr;
  std::vector<std::unique_ptr<TRec>> threads_;  // index == thread id
  std::unordered_map<std::string, std::pair<int, int>> monitors_;  // key -> (owner, depth)
  int active_ = 0;
  bool aborting_ = false;
  Result result_;
#if defined(__SANITIZE_ADDRESS__)
  int switched_from_ = 0;                    // thread that made the latest switch
  const void* main_stack_bottom_ = nullptr;  // the caller's stack, as ASan sees it
  std::size_t main_stack_size_ = 0;
#endif
};

Interp::Interp(const Program& program) : program_(program) {}

void Interp::fuel_checkpoint() {
  if (fuel_used_ > fuel_limit_) throw StepLimitExceeded(fuel_limit_);
  fuel_checkpoint_ = fuel_limit_ + 1;
  if (shadow_ == nullptr) return;
  fuel_checkpoint_ = std::min(fuel_checkpoint_, (fuel_used_ / kFuelStride + 1) * kFuelStride);
  if (fuel_used_ % kFuelStride == 0) shadow_->on_fuel();
}

bool Interp::truthy(const Value& v, const Expr& where) const {
  if (!v.is_bool())
    throw InterpError("condition is not a bool: " + expr_text(where));
  return v.as_bool();
}

Value Interp::call(const std::string& function, std::vector<Value> args) {
  const FuncDecl* fn = program_.find_function(function);
  if (fn == nullptr) throw InterpError("unknown function: " + function);
  std::vector<Slot> slots;
  slots.reserve(args.size());
  for (Value& arg : args) slots.push_back({std::move(arg)});
  return call_function(*fn, std::move(slots));
}

Value Interp::call_function(const FuncDecl& fn, std::vector<Slot> args) {
  if (args.size() != fn.params.size())
    throw InterpError("arity mismatch calling " + fn.name + ": expected " +
                      std::to_string(fn.params.size()) + ", got " +
                      std::to_string(args.size()));
  if (ctx_->depth >= 256) throw InterpError("call depth limit exceeded in " + fn.name);
  if (observer_ != nullptr) observer_->on_call(fn);
  if (fn.has_annotation("blocking")) {
    if (sched_ != nullptr)
      sched_->yield({ScheduleOp::Kind::kBlocking, "io:" + fn.name});
    now_ms_ = int_add(now_ms_, blocking_latency_ms_);
    if (observer_ != nullptr) observer_->on_blocking(fn.name, ctx_->sync_depth);
  }
  Frame frame;
  frame.scopes.emplace_back();
  for (std::size_t i = 0; i < args.size(); ++i)
    frame.scopes.back()[fn.params[i].name] = std::move(args[i]);
  Value return_value;
  ThreadCtx& ctx = *ctx_;
  const CallRecord record{&fn, ctx.top};
  ctx.top = &record;
  ++ctx.depth;
  const ScopeExit pop_call([&] {
    ctx.top = record.caller;
    --ctx.depth;
  });
  exec_block(fn.body, frame, return_value);
  return return_value;
}

std::vector<Interp::Slot> Interp::eval_args(const Expr& call, Frame& frame) {
  std::vector<Slot> args;
  args.reserve(call.args.size());
  for (const ExprPtr& arg : call.args) {
    ShadowId shadow = kNoShadow;
    Value value = eval(*arg, frame, &shadow);
    args.emplace_back(std::move(value), shadow);
  }
  return args;
}

/// StateAccess over the executing frame's scope stack (interp.hpp). Built
/// per observed statement, only when the observer asked for state.
class Interp::FrameState final : public StateAccess {
 public:
  FrameState(Frame& frame, const ThreadCtx& ctx) : scopes_(frame.scopes), ctx_(ctx) {}

  Value* lookup(const std::string& name) override {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      const auto found = it->find(name);
      if (found != it->end()) return &found->second.value;
    }
    return nullptr;
  }

  std::vector<std::string> local_names() const override {
    std::vector<std::string> names;
    for (const auto& scope : scopes_)
      for (const auto& [name, value] : scope) names.push_back(name);
    return names;
  }

  int sync_depth() const override { return ctx_.sync_depth; }

  std::vector<const FuncDecl*> call_stack() const override {
    std::vector<const FuncDecl*> stack;
    for (const CallRecord* call = ctx_.top; call != nullptr; call = call->caller)
      stack.push_back(call->fn);
    std::reverse(stack.begin(), stack.end());
    return stack;
  }

 private:
  std::vector<std::unordered_map<std::string, Slot>>& scopes_;
  const ThreadCtx& ctx_;
};

PathResolution resolve_path(StateAccess& state, const std::string& dotted) {
  PathResolution res;
  const std::vector<std::string> segments = support::split(dotted, '.');
  if (segments.empty()) return res;
  const Value* root = state.lookup(segments.front());
  if (root == nullptr) return res;
  Value current = *root;
  for (std::size_t i = 1; i < segments.size(); ++i) {
    if (!current.is_object() || current.as_object() == nullptr) return res;
    res.parent = current.as_object();
    res.leaf = segments[i];
    const auto it = res.parent->fields.find(res.leaf);
    if (it == res.parent->fields.end()) return res;
    current = it->second;
  }
  res.ok = true;
  res.value = std::move(current);
  return res;
}

Interp::Flow Interp::exec_block(const std::vector<StmtPtr>& stmts, Frame& frame,
                                Value& return_value) {
  frame.scopes.emplace_back();
  Flow flow = Flow::kNormal;
  for (const StmtPtr& stmt : stmts) {
    flow = exec_stmt(*stmt, frame, return_value);
    if (flow != Flow::kNormal) break;
  }
  frame.scopes.pop_back();
  return flow;
}

bool Interp::branch(const Expr& guard, Frame& frame) {
  ShadowId shadow = kNoShadow;
  const bool taken = truthy(eval(guard, frame, &shadow), guard);
  if (shadow_ != nullptr) shadow_->on_branch(shadow, taken);
  return taken;
}

Interp::Flow Interp::exec_stmt(const Stmt& stmt, Frame& frame, Value& return_value) {
  burn_fuel();
  if (observer_ != nullptr) {
    static const FuncDecl kNoFunc{};
    const FuncDecl& owner = ctx_->top != nullptr ? *ctx_->top->fn : kNoFunc;
    observer_->on_stmt(owner, stmt);
    if (observer_->wants_state()) {
      FrameState state(frame, *ctx_);
      observer_->on_state(owner, stmt, state);
    }
  }
  switch (stmt.kind) {
    case Stmt::Kind::kLet: {
      ShadowId shadow = kNoShadow;
      Value value = eval(*stmt.expr, frame, &shadow);
      Slot& slot = frame.scopes.back()[stmt.name];
      slot.value = std::move(value);
      slot.shadow = shadow;
      return Flow::kNormal;
    }
    case Stmt::Kind::kAssign: {
      ShadowId shadow = kNoShadow;
      Value value = eval(*stmt.expr2, frame, &shadow);
      assign_lvalue(*stmt.expr, {std::move(value), shadow}, frame);
      return Flow::kNormal;
    }
    case Stmt::Kind::kIf:
      if (branch(*stmt.expr, frame)) return exec_block(stmt.body, frame, return_value);
      return exec_block(stmt.else_body, frame, return_value);
    case Stmt::Kind::kWhile: {
      while (branch(*stmt.expr, frame)) {
        burn_fuel();
        const Flow flow = exec_block(stmt.body, frame, return_value);
        if (flow == Flow::kReturn) return flow;
        if (flow == Flow::kBreak) break;
      }
      return Flow::kNormal;
    }
    case Stmt::Kind::kReturn:
      if (stmt.expr) return_value = eval(*stmt.expr, frame);
      return Flow::kReturn;
    case Stmt::Kind::kThrow:
      throw MiniThrow(eval(*stmt.expr, frame));
    case Stmt::Kind::kExpr:
      eval(*stmt.expr, frame);
      return Flow::kNormal;
    case Stmt::Kind::kSpawn: {
      const Expr& call = *stmt.expr;
      const FuncDecl* fn = call.callee;
      if (fn == nullptr)
        throw InterpError("spawn target must be a declared function: " + call.text);
      std::vector<Slot> args = eval_args(call, frame);
      if (args.size() != fn->params.size())
        throw InterpError("arity mismatch spawning " + fn->name + ": expected " +
                          std::to_string(fn->params.size()) + ", got " +
                          std::to_string(args.size()));
      if (sched_ != nullptr) {
        sched_->spawn(*fn, std::move(args));
      } else {
        // Serial semantics: the thread root runs inline to completion at the
        // spawn point, so replay without the scheduler sees exactly one
        // interleaving. Only the schedule explorer quantifies over others.
        call_function(*fn, std::move(args));
      }
      return Flow::kNormal;
    }
    case Stmt::Kind::kSync: {
      const Value monitor = eval(*stmt.expr, frame);
      // Monitors are contended only in scheduled runs; serial runs track the
      // depth alone.
      const std::string key = sched_ != nullptr ? sched_->monitor_key(monitor) : std::string();
      if (sched_ != nullptr) sched_->sync_enter(key);
      // Leaves the monitor however the body ends. sync_exit neither yields
      // nor throws, so it is safe while a torn-down schedule unwinds.
      ThreadCtx& ctx = *ctx_;
      ++ctx.sync_depth;
      const ScopeExit leave([&] {
        --ctx.sync_depth;
        if (sched_ != nullptr) sched_->sync_exit(key);
      });
      return exec_block(stmt.body, frame, return_value);
    }
    case Stmt::Kind::kBlock:
      return exec_block(stmt.body, frame, return_value);
    case Stmt::Kind::kTry: {
      try {
        return exec_block(stmt.body, frame, return_value);
      } catch (const MiniThrow& thrown) {
        frame.scopes.emplace_back();
        frame.scopes.back()[stmt.catch_var] = {thrown.value()};
        Flow flow = Flow::kNormal;
        for (const StmtPtr& handler_stmt : stmt.else_body) {
          flow = exec_stmt(*handler_stmt, frame, return_value);
          if (flow != Flow::kNormal) break;
        }
        frame.scopes.pop_back();
        return flow;
      }
    }
    case Stmt::Kind::kBreak:
      return Flow::kBreak;
    case Stmt::Kind::kContinue:
      return Flow::kContinue;
  }
  return Flow::kNormal;
}

Interp::Slot* Interp::lookup(Frame& frame, const std::string& name) {
  for (auto it = frame.scopes.rbegin(); it != frame.scopes.rend(); ++it) {
    const auto found = it->find(name);
    if (found != it->end()) return &found->second;
  }
  return nullptr;
}

namespace {

/// List position named by `index`; a non-int index is a typed engine error.
std::int64_t list_index(const Value& index) {
  if (!index.is_int()) throw InterpError("list index is not an int");
  return index.as_int();
}

}  // namespace

void Interp::assign_lvalue(const Expr& lvalue, Slot value, Frame& frame) {
  switch (lvalue.kind) {
    case Expr::Kind::kVar: {
      Slot* slot = lookup(frame, lvalue.text);
      if (slot == nullptr) throw InterpError("assignment to undeclared variable " + lvalue.text);
      *slot = std::move(value);
      return;
    }
    case Expr::Kind::kField: {
      const Value base = eval(*lvalue.args[0], frame);
      if (base.is_null())
        throw MiniThrow(Value::of_string("NullPointerException: field write ." + lvalue.text));
      if (!base.is_object()) throw InterpError("field write on non-object");
      if (sched_ != nullptr)
        sched_->yield({ScheduleOp::Kind::kFieldWrite,
                       "f:" + std::to_string(base.as_object()->object_id) + "." + lvalue.text});
      base.as_object()->fields[lvalue.text] = std::move(value.value);
      return;
    }
    case Expr::Kind::kIndex: {
      const Value base = eval(*lvalue.args[0], frame);
      const Value index = eval(*lvalue.args[1], frame);
      if (sched_ != nullptr) sched_->shared_access();
      if (base.is_list()) {
        auto& items = *base.as_list();
        const std::int64_t i = list_index(index);
        if (i < 0 || static_cast<std::size_t>(i) >= items.size())
          throw MiniThrow(Value::of_string("IndexOutOfBounds: " + std::to_string(i)));
        items[static_cast<std::size_t>(i)] = std::move(value.value);
        return;
      }
      if (base.is_map()) {
        (*base.as_map())[map_key(index)] = std::move(value.value);
        return;
      }
      throw InterpError("index write on non-container");
    }
    default:
      throw InterpError("invalid assignment target");
  }
}

Value Interp::eval(const Expr& expr, Frame& frame, ShadowId* shadow) {
  burn_fuel();
  switch (expr.kind) {
    case Expr::Kind::kIntLit: return Value::of_int(expr.int_value);
    case Expr::Kind::kBoolLit: return Value::of_bool(expr.bool_value);
    case Expr::Kind::kStrLit: return Value::of_string(expr.text);
    case Expr::Kind::kNullLit: return Value::null();
    case Expr::Kind::kVar: {
      const Slot* slot = lookup(frame, expr.text);
      if (slot == nullptr) throw InterpError("unknown variable: " + expr.text);
      if (shadow != nullptr) *shadow = slot->shadow;
      return slot->value;
    }
    case Expr::Kind::kField: {
      const Value base = eval(*expr.args[0], frame);
      if (base.is_null())
        throw MiniThrow(Value::of_string("NullPointerException: field read ." + expr.text));
      if (!base.is_object()) throw InterpError("field read on non-object: ." + expr.text);
      if (sched_ != nullptr)
        sched_->yield({ScheduleOp::Kind::kFieldRead,
                       "f:" + std::to_string(base.as_object()->object_id) + "." + expr.text});
      const Object& object = *base.as_object();
      const auto it = object.fields.find(expr.text);
      if (it == object.fields.end())
        throw InterpError("object " + object.struct_name + " has no field " + expr.text);
      if (shadow_ != nullptr && shadow != nullptr)
        *shadow = shadow_->shadow_field_read(object, expr.text, it->second);
      return it->second;
    }
    case Expr::Kind::kIndex: {
      const Value base = eval(*expr.args[0], frame);
      const Value index = eval(*expr.args[1], frame);
      if (sched_ != nullptr) sched_->shared_access();
      if (base.is_list()) {
        const auto& items = *base.as_list();
        const std::int64_t i = list_index(index);
        if (i < 0 || static_cast<std::size_t>(i) >= items.size())
          throw MiniThrow(Value::of_string("IndexOutOfBounds: " + std::to_string(i)));
        return items[static_cast<std::size_t>(i)];
      }
      if (base.is_map()) {
        const auto& map = *base.as_map();
        const auto it = map.find(map_key(index));
        return it == map.end() ? Value::null() : it->second;
      }
      if (base.is_null())
        throw MiniThrow(Value::of_string("NullPointerException: index access"));
      throw InterpError("index on non-container");
    }
    case Expr::Kind::kUnary: {
      if (expr.un_op == UnOp::kNot) {
        ShadowId operand_shadow = kNoShadow;
        const Value operand = eval(*expr.args[0], frame, &operand_shadow);
        if (!operand.is_bool()) throw InterpError("'!' on non-bool");
        if (shadow_ != nullptr && shadow != nullptr) *shadow = shadow_->shadow_not(operand_shadow);
        return Value::of_bool(!operand.as_bool());
      }
      const Value operand = eval(*expr.args[0], frame);
      if (!operand.is_int()) throw InterpError("unary '-' on non-int");
      return Value::of_int(int_neg(operand.as_int()));
    }
    case Expr::Kind::kBinary: return eval_binary(expr, frame, shadow);
    case Expr::Kind::kCall:
      if (expr.callee != nullptr) return call_function(*expr.callee, eval_args(expr, frame));
      return call_builtin(expr, frame);
    case Expr::Kind::kNew: {
      const StructDecl* decl = expr.struct_decl;
      if (decl == nullptr) throw InterpError("unknown struct: " + expr.text);
      auto object = std::make_shared<Object>();
      object->struct_name = expr.text;
      object->object_id = next_object_id_++;
      // Default-initialize every declared field, then apply initializers.
      for (const FieldDecl& field : decl->fields) {
        switch (field.type->kind) {
          case Type::Kind::kInt: object->fields[field.name] = Value::of_int(0); break;
          case Type::Kind::kBool: object->fields[field.name] = Value::of_bool(false); break;
          case Type::Kind::kString: object->fields[field.name] = Value::of_string(""); break;
          case Type::Kind::kList: object->fields[field.name] = Value::new_list(); break;
          case Type::Kind::kMap: object->fields[field.name] = Value::new_map(); break;
          default: object->fields[field.name] = Value::null(); break;
        }
      }
      for (std::size_t i = 0; i < expr.args.size(); ++i) {
        if (decl->find_field(expr.field_names[i]) == nullptr)
          throw InterpError("struct " + expr.text + " has no field " + expr.field_names[i]);
        object->fields[expr.field_names[i]] = eval(*expr.args[i], frame);
      }
      return Value::of_object(std::move(object));
    }
  }
  throw InterpError("unreachable expression kind");
}

Value Interp::eval_binary(const Expr& expr, Frame& frame, ShadowId* shadow) {
  // Short-circuit operators first: a short-circuit result is the lhs, shadow
  // included.
  if (expr.bin_op == BinOp::kAnd || expr.bin_op == BinOp::kOr) {
    const bool is_and = expr.bin_op == BinOp::kAnd;
    ShadowId lhs_shadow = kNoShadow;
    const bool lhs = truthy(eval(*expr.args[0], frame, &lhs_shadow), *expr.args[0]);
    if (lhs != is_and) {
      if (shadow != nullptr) *shadow = lhs_shadow;
      return Value::of_bool(lhs);
    }
    ShadowId rhs_shadow = kNoShadow;
    const bool rhs = truthy(eval(*expr.args[1], frame, &rhs_shadow), *expr.args[1]);
    if (shadow_ != nullptr && shadow != nullptr)
      *shadow = shadow_->shadow_logic(is_and, lhs_shadow, rhs_shadow);
    return Value::of_bool(rhs);
  }
  // Arithmetic results are untracked, so only comparisons collect the
  // operands' shadows.
  const bool arithmetic = expr.bin_op == BinOp::kAdd || expr.bin_op == BinOp::kSub ||
                          expr.bin_op == BinOp::kMul || expr.bin_op == BinOp::kDiv ||
                          expr.bin_op == BinOp::kMod;
  const bool collect = shadow != nullptr && !arithmetic;
  ShadowId lhs_shadow = kNoShadow;
  ShadowId rhs_shadow = kNoShadow;
  const Value lhs = eval(*expr.args[0], frame, collect ? &lhs_shadow : nullptr);
  const Value rhs = eval(*expr.args[1], frame, collect ? &rhs_shadow : nullptr);
  switch (expr.bin_op) {
    case BinOp::kEq:
    case BinOp::kNe: {
      const bool eq = expr.bin_op == BinOp::kEq;
      if (shadow_ != nullptr && shadow != nullptr)
        *shadow = shadow_->shadow_equality(eq, lhs, lhs_shadow, rhs, rhs_shadow);
      return Value::of_bool(lhs.equals(rhs) == eq);
    }
    case BinOp::kAdd:
      if (lhs.is_string() || rhs.is_string()) {
        if (sched_ != nullptr && (reaches_heap(lhs) || reaches_heap(rhs))) sched_->shared_access();
        return Value::of_string(lhs.to_display() + rhs.to_display());
      }
      if (lhs.is_int() && rhs.is_int()) return Value::of_int(int_add(lhs.as_int(), rhs.as_int()));
      throw InterpError("'+' on incompatible operands");
    case BinOp::kSub:
    case BinOp::kMul:
    case BinOp::kDiv:
    case BinOp::kMod: {
      if (!lhs.is_int() || !rhs.is_int()) throw InterpError("arithmetic on non-int");
      const std::int64_t a = lhs.as_int();
      const std::int64_t b = rhs.as_int();
      switch (expr.bin_op) {
        case BinOp::kSub: return Value::of_int(int_sub(a, b));
        case BinOp::kMul: return Value::of_int(int_mul(a, b));
        case BinOp::kDiv:
          if (b == 0) throw MiniThrow(Value::of_string("ArithmeticException: divide by zero"));
          return Value::of_int(int_div(a, b));
        default:
          if (b == 0) throw MiniThrow(Value::of_string("ArithmeticException: mod by zero"));
          return Value::of_int(int_mod(a, b));
      }
    }
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe: {
      if (lhs.is_string() && rhs.is_string()) {
        const int cmp = lhs.as_string().compare(rhs.as_string());
        switch (expr.bin_op) {
          case BinOp::kLt: return Value::of_bool(cmp < 0);
          case BinOp::kLe: return Value::of_bool(cmp <= 0);
          case BinOp::kGt: return Value::of_bool(cmp > 0);
          default: return Value::of_bool(cmp >= 0);
        }
      }
      if (!lhs.is_int() || !rhs.is_int()) throw InterpError("comparison on incompatible types");
      const std::int64_t a = lhs.as_int();
      const std::int64_t b = rhs.as_int();
      if (shadow_ != nullptr && shadow != nullptr)
        *shadow = shadow_->shadow_compare(expr.bin_op, a, lhs_shadow, b, rhs_shadow);
      switch (expr.bin_op) {
        case BinOp::kLt: return Value::of_bool(a < b);
        case BinOp::kLe: return Value::of_bool(a <= b);
        case BinOp::kGt: return Value::of_bool(a > b);
        default: return Value::of_bool(a >= b);
      }
    }
    default:
      throw InterpError("unreachable binary operator");
  }
}

Value Interp::call_builtin(const Expr& expr, Frame& frame) {
  std::vector<Value> args;
  args.reserve(expr.args.size());
  for (const ExprPtr& arg : expr.args) args.push_back(eval(*arg, frame));
  const Builtin* builtin = find_builtin(expr.text);
  if (builtin == nullptr) throw InterpError("unknown function or builtin: " + expr.text);
  check_builtin_args(*builtin, args);
  switch (builtin->sched) {
    case SchedOp::kNone: {
      // A row may read or render any argument; now and advance_clock use the
      // virtual clock that other threads' blocking calls advance.
      if (sched_ != nullptr && (std::ranges::any_of(args, reaches_heap) ||
                                builtin->name == "now" || builtin->name == "advance_clock"))
        sched_->shared_access();
      BuiltinContext context{&output_, &now_ms_};
      return builtin->impl(args, context);
    }
    case SchedOp::kBlocking:
      if (sched_ != nullptr) sched_->yield({ScheduleOp::Kind::kBlocking, "io:" + expr.text});
      now_ms_ = int_add(now_ms_, blocking_latency_ms_);
      if (observer_ != nullptr) observer_->on_blocking(expr.text, ctx_->sync_depth);
      break;
    // Outside a scheduled run the coordination builtins are no-ops: the
    // serial semantics, under which spawned roots already ran to completion.
    case SchedOp::kWait:
      if (sched_ != nullptr) sched_->wait_on(args[0]);
      break;
    case SchedOp::kNotify:
    case SchedOp::kNotifyAll:
      if (sched_ != nullptr) sched_->notify(args[0], builtin->sched == SchedOp::kNotifyAll);
      break;
    case SchedOp::kJoinAll:
      if (sched_ != nullptr) sched_->join_all();
      break;
  }
  return Value::null();
}

bool Interp::run_test(const std::string& test_name) {
  last_error_.clear();
  step_limit_hit_ = false;
  try {
    call(test_name, {});
    return true;
  } catch (const MiniThrow& thrown) {
    last_error_ = thrown.value().to_display();
    return false;
  } catch (const StepLimitExceeded& limit) {
    step_limit_hit_ = true;
    last_error_ = limit.what();
    return false;
  } catch (const InterpError& error) {
    last_error_ = error.what();
    return false;
  }
}

ScheduleRunResult Interp::run_scheduled_test(const std::string& test_name,
                                             ScheduleController& controller) {
  last_error_.clear();
  step_limit_hit_ = false;
  ScheduleRunResult out;
  const FuncDecl* fn = program_.find_function(test_name);
  if (fn == nullptr) {
    out.error = "unknown test: " + test_name;
    return out;
  }
  Scheduler scheduler(*this, controller);
  sched_ = &scheduler;
  bool main_ok = false;
  std::string main_error;
  try {
    call_function(*fn, {});
    scheduler.drain();  // implicit join: finish threads still running
    main_ok = true;
  } catch (const ScheduleAborted&) {
    // Hang or spawned-thread failure; the scheduler recorded the cause.
  } catch (const MiniThrow& thrown) {
    main_error = thrown.value().to_display();
  } catch (const StepLimitExceeded& limit) {
    step_limit_hit_ = true;
    out.degraded = true;
    main_error = limit.what();
  } catch (const InterpError& error) {
    main_error = error.what();
  }
  // Finalize (which switches into every still-live fiber so it unwinds)
  // must run before sched_ is cleared: threads parked inside sync bodies
  // call sched_->sync_exit while unwinding ScheduleAborted.
  scheduler.finalize(out);
  sched_ = nullptr;
  if (!main_error.empty()) out.error = main_error;
  if (out.degraded) step_limit_hit_ = true;
  out.test_passed = main_ok && out.error.empty() && !out.hung && !out.degraded;
  last_error_ = out.error;
  return out;
}

std::pair<int, int> Interp::run_all_tests() {
  int passed = 0;
  int failed = 0;
  for (const FuncDecl* test : program_.functions_with("test")) {
    if (run_test(test->name))
      ++passed;
    else
      ++failed;
  }
  return {passed, failed};
}

}  // namespace lisa::minilang
