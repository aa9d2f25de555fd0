#include "concolic/schedule.hpp"

#include <chrono>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "minilang/printer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/faultpoint.hpp"
#include "support/stopwatch.hpp"

namespace lisa::concolic {

using minilang::Expr;
using minilang::ExprPtr;
using minilang::FuncDecl;
using minilang::ScheduleOp;
using minilang::Stmt;
using minilang::StmtPtr;
using minilang::ThreadStatus;

std::string ScheduleWitness::decisions_text() const {
  std::string out;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(decisions[i]);
  }
  return out;
}

std::vector<int> ScheduleWitness::parse_decisions(const std::string& text) {
  std::vector<int> out;
  std::string current;
  for (const char c : text) {
    if (c == ',') {
      if (!current.empty()) out.push_back(std::stoi(current));
      current.clear();
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      current.push_back(c);
    }
  }
  if (!current.empty()) out.push_back(std::stoi(current));
  return out;
}

std::string ScheduleWitness::to_compact() const {
  // detail is last because it is free-form text; every other field is
  // ';'-free by construction.
  return "test=" + test + ";seed=" + std::to_string(seed) +
         ";decisions=" + decisions_text() + ";outcome=" + outcome + ";detail=" + detail;
}

ScheduleWitness ScheduleWitness::from_compact(const std::string& text) {
  ScheduleWitness witness;
  const auto field = [&](const std::string& key) -> std::string {
    const std::string marker = key + "=";
    const std::size_t at = text.find(marker);
    if (at == std::string::npos) return "";
    const std::size_t start = at + marker.size();
    const std::size_t end = key == "detail" ? std::string::npos : text.find(';', start);
    return text.substr(start, end == std::string::npos ? end : end - start);
  };
  witness.test = field("test");
  const std::string seed_text = field("seed");
  if (!seed_text.empty()) witness.seed = std::stoull(seed_text);
  witness.decisions = parse_decisions(field("decisions"));
  witness.outcome = field("outcome");
  witness.detail = field("detail");
  return witness;
}

namespace {

// --- conflict detection ----------------------------------------------------

/// Operations that always branch. Thread lifecycle ops (start/spawn/join)
/// because their data footprint is unknown; monitor ops (sync/wait/notify)
/// because their effect is *control*, not data — wait(m) commutes with a
/// field write as a state transition, yet delaying the wait past a later
/// notify loses the wakeup entirely. Pending-op conflict detection cannot
/// see that future, so monitor ordering is never pruned (this is what makes
/// the missed-notify corpus case reachable). A deferred release names
/// neither the container it touches nor the monitors released before it.
bool footprint_unknown(ScheduleOp::Kind kind) {
  switch (kind) {
    case ScheduleOp::Kind::kStart:
    case ScheduleOp::Kind::kSpawn:
    case ScheduleOp::Kind::kJoin:
    case ScheduleOp::Kind::kSyncEnter:
    case ScheduleOp::Kind::kDeferredRelease:
    case ScheduleOp::Kind::kWait:
    case ScheduleOp::Kind::kNotify:
      return true;
    case ScheduleOp::Kind::kFieldRead:
    case ScheduleOp::Kind::kFieldWrite:
    case ScheduleOp::Kind::kBlocking:
      return false;
  }
  return true;
}

/// Two pending operations commute iff they touch provably different named
/// resources (different monitors, different object fields). Same resource
/// always conflicts — deliberately including read/read, because container
/// mutations via builtins (put/push/del) are only visible here as the field
/// *read* that fetched the container.
bool ops_conflict(const ScheduleOp& a, const ScheduleOp& b) {
  if (footprint_unknown(a.kind) || footprint_unknown(b.kind)) return true;
  if (a.resource.empty() || b.resource.empty()) return true;
  return a.resource == b.resource;
}

bool has_conflict(const std::vector<ThreadStatus>& runnable) {
  for (std::size_t i = 0; i < runnable.size(); ++i)
    for (std::size_t j = i + 1; j < runnable.size(); ++j)
      if (ops_conflict(runnable[i].op, runnable[j].op)) return true;
  return false;
}

/// Dependence for the sleep-set *wake* rule. ops_conflict decides where the
/// DFS must branch and is deliberately future-blind (an op whose footprint
/// is unknown always branches); this relation instead asks whether the
/// *immediate effect* of the granted segment can interact with a sleeping
/// thread's recorded pending op:
///   - start/spawn/join segments are purely local or control-forced: every
///     shared access is its own later yield point, except a monitor release
///     that falls inside the segment (`sync (m) { spawn f(); }`). That
///     release is dependent only on an acquire of the same monitor, and
///     such an acquire would have blocked while m was held in the covering
///     run, so keeping its thread asleep loses nothing. They wake nothing;
///   - monitor and field ops interact only through the same named resource
///     (a monitor key never equals a field key — acquiring s is independent
///     of writing s.ephemerals);
///   - wait/notify/blocking carry invisible futures (a delayed wait loses a
///     later notify; blocking advances the shared virtual clock), and a
///     deferred release names neither its container nor its monitors, so
///     they conservatively wake every sleeper.
/// Precision here is what makes the pruning effective: a sleeping thread
/// that survives the granted op means the current interleaving still covers
/// the one where it ran earlier.
bool wake_dependent(const ScheduleOp& granted, const ScheduleOp& sleeping) {
  const auto local_only = [](ScheduleOp::Kind kind) {
    return kind == ScheduleOp::Kind::kStart || kind == ScheduleOp::Kind::kSpawn ||
           kind == ScheduleOp::Kind::kJoin;
  };
  if (local_only(granted.kind) || local_only(sleeping.kind)) return false;
  const auto named_resource = [](ScheduleOp::Kind kind) {
    return kind == ScheduleOp::Kind::kSyncEnter || kind == ScheduleOp::Kind::kFieldRead ||
           kind == ScheduleOp::Kind::kFieldWrite;
  };
  if (named_resource(granted.kind) && named_resource(sleeping.kind))
    return !granted.resource.empty() && granted.resource == sleeping.resource;
  return true;  // wait / notify / blocking / deferred release: never prune past them
}

// --- controllers -----------------------------------------------------------

/// One decision point on the DFS stack: the awake alternatives that existed
/// when the frontier first reached it (thread + its pending op, needed for
/// sleep inheritance), and which one the next run takes.
struct ChoicePoint {
  std::vector<ThreadStatus> alternatives;
  std::size_t next = 0;
};

/// Stateless-search DFS with sleep sets. Each run replays the stack prefix,
/// then extends the frontier:
///   - at a replayed choice point, the alternatives already explored there
///     are put to sleep on their recorded ops (the prefix is byte-identical
///     across runs, so the recorded ops are exactly their pending ops);
///   - a sleeping thread wakes when a granted op is wake_dependent with its
///     recorded op — until then, scheduling it would only permute commuting
///     segments of an interleaving another run already covers;
///   - a fresh choice point branches over every *awake* runnable thread
///     when some pair of pending ops conflicts (only the lowest id when all
///     commute), and prunes the run outright when every runnable thread is
///     asleep — the classic sleep-set cut that keeps the schedule count
///     polynomial where naive conflict branching explodes.
class DfsController final : public minilang::ScheduleController {
 public:
  explicit DfsController(std::vector<ChoicePoint>& stack) : stack_(stack) {}

  int pick(const std::vector<ThreadStatus>& runnable) override {
    int chosen;
    if (depth_ < stack_.size()) {
      const ChoicePoint& point = stack_[depth_];
      // Sleep inheritance: alternatives tried by earlier runs are covered.
      for (std::size_t i = 0; i < point.next; ++i)
        sleeping_[point.alternatives[i].thread_id] = point.alternatives[i].op;
      chosen = point.alternatives[point.next].thread_id;
      bool still_runnable = false;
      for (const ThreadStatus& status : runnable)
        if (status.thread_id == chosen) still_runnable = true;
      if (!still_runnable) chosen = runnable.front().thread_id;
    } else {
      std::vector<ThreadStatus> awake;
      for (const ThreadStatus& status : runnable)
        if (sleeping_.find(status.thread_id) == sleeping_.end())
          awake.push_back(status);
      if (awake.empty()) return kPruneRun;  // every continuation is covered
      ChoicePoint point;
      if (has_conflict(runnable))
        point.alternatives = std::move(awake);
      else
        point.alternatives.push_back(awake.front());
      chosen = point.alternatives.front().thread_id;
      stack_.push_back(std::move(point));
    }
    ++depth_;
    trace_.push_back(chosen);
    return chosen;
  }

  void observe(const ThreadStatus& granted) override {
    for (auto it = sleeping_.begin(); it != sleeping_.end();) {
      if (it->first != granted.thread_id && wake_dependent(granted.op, it->second))
        it = sleeping_.erase(it);
      else
        ++it;
    }
    sleeping_.erase(granted.thread_id);
  }

  [[nodiscard]] const std::vector<int>& trace() const { return trace_; }

 private:
  std::vector<ChoicePoint>& stack_;
  std::unordered_map<int, ScheduleOp> sleeping_;
  std::size_t depth_ = 0;
  std::vector<int> trace_;
};

/// Advances the DFS to the next unexplored schedule. Returns false when the
/// stack drains — the reduced schedule space is exhausted.
bool advance(std::vector<ChoicePoint>& stack) {
  while (!stack.empty()) {
    ChoicePoint& top = stack.back();
    if (++top.next < top.alternatives.size()) return true;
    stack.pop_back();
  }
  return false;
}

/// Follows a witness decision list; past its end (or when the recorded
/// thread is no longer runnable) falls back to lowest id, deterministically.
class ReplayController final : public minilang::ScheduleController {
 public:
  explicit ReplayController(const std::vector<int>& decisions) : decisions_(decisions) {}

  int pick(const std::vector<ThreadStatus>& runnable) override {
    int chosen = runnable.front().thread_id;
    if (index_ < decisions_.size()) {
      const int want = decisions_[index_];
      for (const ThreadStatus& status : runnable)
        if (status.thread_id == want) chosen = want;
    }
    ++index_;
    return chosen;
  }

 private:
  const std::vector<int>& decisions_;
  std::size_t index_ = 0;
};

// --- spawn detection -------------------------------------------------------

void collect_expr_calls(const Expr& expr, std::unordered_set<std::string>& calls) {
  if (expr.kind == Expr::Kind::kCall) calls.insert(expr.text);
  for (const ExprPtr& arg : expr.args) collect_expr_calls(*arg, calls);
}

void walk_stmt(const Stmt& stmt, bool& spawns, std::unordered_set<std::string>& calls) {
  if (stmt.kind == Stmt::Kind::kSpawn) spawns = true;
  if (stmt.expr) collect_expr_calls(*stmt.expr, calls);
  if (stmt.expr2) collect_expr_calls(*stmt.expr2, calls);
  for (const StmtPtr& child : stmt.body) walk_stmt(*child, spawns, calls);
  for (const StmtPtr& child : stmt.else_body) walk_stmt(*child, spawns, calls);
}

}  // namespace

ScheduleExplorer::ScheduleExplorer(const minilang::Program& program,
                                   ScheduleExploreOptions options)
    : program_(program), options_(options) {}

bool ScheduleExplorer::test_spawns(const std::string& test_name) const {
  std::unordered_set<std::string> visited;
  std::vector<std::string> work{test_name};
  while (!work.empty()) {
    const std::string name = std::move(work.back());
    work.pop_back();
    if (!visited.insert(name).second) continue;
    const FuncDecl* fn = program_.find_function(name);
    if (fn == nullptr) continue;  // builtin
    bool spawns = false;
    std::unordered_set<std::string> calls;
    for (const StmtPtr& stmt : fn->body) walk_stmt(*stmt, spawns, calls);
    if (spawns) return true;
    for (const std::string& callee : calls) work.push_back(callee);
  }
  return false;
}

void ScheduleExplorer::explore_into(const std::string& test_name,
                                    ScheduleExplorationResult& out) {
  // One span per explored test. Each run only records its time in a
  // histogram: a span per run would cost too much at hundreds of runs.
  // Pruned runs are also recorded apart, to show what abandoned schedules
  // cost, and so is their teardown: the time from the prune to the end of
  // the run, which every live thread spends unwinding.
  obs::ScopedSpan span("schedule.explore");
  obs::Histogram& run_us = obs::metrics().histogram("schedule.run_us");
  obs::Histogram& pruned_run_us = obs::metrics().histogram("schedule.pruned_run_us");
  obs::Histogram& teardown_us = obs::metrics().histogram("schedule.teardown_us");
  const int first_schedule = out.schedules_explored;
  int pruned = 0;
  bool conclusive = true;
  const auto inconclusive = [&](std::string reason) {
    conclusive = false;
    out.conclusive = false;
    if (out.inconclusive_reason.empty()) out.inconclusive_reason = std::move(reason);
  };
  const int bound = options_.max_schedules > 0 ? options_.max_schedules : 1;
  // DFS over conflict-directed choice points.
  std::vector<ChoicePoint> stack;
  bool drained = false;
  bool violated = false;
  while (!drained && !violated && out.schedules_explored < bound) {
    if (options_.budget != nullptr && !options_.budget->charge_schedule()) {
      inconclusive(options_.budget->exhausted_reason());
      break;
    }
    const support::Stopwatch timer;
    minilang::Interp interp(program_);
    DfsController controller(stack);
    const minilang::ScheduleRunResult run =
        interp.run_scheduled_test(test_name, controller);
    const double elapsed_us = timer.elapsed_us();
    const auto ended = std::chrono::steady_clock::now();
    run_us.record(elapsed_us);
    ++out.schedules_explored;
    if (run.pruned) {
      // Sleep-set cut: this interleaving only permutes commuting segments
      // of one already explored. A charged probe, not a verdict.
      pruned_run_us.record(elapsed_us);
      teardown_us.record(std::chrono::duration<double, std::micro>(ended - run.pruned_at).count());
      ++pruned;
    } else if (run.degraded) {
      inconclusive("schedule run degraded: " + run.error);
    } else if (!run.test_passed) {
      ScheduleWitness witness;
      witness.test = test_name;
      witness.decisions = controller.trace();
      witness.detail = run.error;
      witness.outcome = run.hung ? "hang"
                       : run.error.find("assertion failed") != std::string::npos
                           ? "assert-failure"
                           : "exception";
      out.witnesses.push_back(std::move(witness));
      out.violation_found = true;
      violated = true;
      break;
    }
    drained = !advance(stack);  // conclusive for this test (unless degraded above)
  }
  // The bound ran out before the stack drained: no proof of absence.
  if (!drained && !violated && conclusive)
    inconclusive("schedule space not exhausted within " + std::to_string(bound) +
                 " schedules");
  span.attr("test", test_name);
  span.attr("schedules", out.schedules_explored - first_schedule);
  span.attr("pruned", pruned);
  span.attr("conclusive", conclusive);
}

ScheduleExplorationResult ScheduleExplorer::explore() {
  ScheduleExplorationResult out;
  const support::FaultAction fault = support::faultpoint("schedule.explore");
  if (fault != support::FaultAction::kNone) {
    out.conclusive = false;
    out.inconclusive_reason = std::string("fault injected: schedule.explore (") +
                              support::fault_action_name(fault) + ")";
    return out;
  }
  for (const FuncDecl* test : program_.functions_with("test")) {
    if (!test_spawns(test->name)) continue;
    ++out.tests_with_threads;
    explore_into(test->name, out);
    if (out.violation_found) break;  // first violating schedule decides the verdict
  }
  return out;
}

ScheduleExplorationResult ScheduleExplorer::explore_test(const std::string& test_name) {
  ScheduleExplorationResult out;
  if (!test_spawns(test_name)) {
    // One serial schedule is the whole space: vacuously conclusive.
    out.conclusive = true;
    return out;
  }
  out.tests_with_threads = 1;
  explore_into(test_name, out);
  return out;
}

minilang::ScheduleRunResult ScheduleExplorer::replay(
    const ScheduleWitness& witness,
    const std::function<void(minilang::Interp&)>& configure) {
  minilang::Interp interp(program_);
  if (configure) configure(interp);
  ReplayController controller(witness.decisions);
  return interp.run_scheduled_test(witness.test, controller);
}

namespace {

constexpr std::size_t kNarrationMaxSteps = 400;
constexpr std::int64_t kNarrationFuel = 200'000;

/// Records the interleaved step trace of a witness replay, each step tagged
/// with the MiniLang thread that executed it. Every MiniLang thread is a
/// fiber on the replaying OS thread and exactly one runs interpreter code at
/// a time, so the unsynchronized appends are safe.
class ScheduleNarrator final : public minilang::ExecObserver {
 public:
  explicit ScheduleNarrator(obs::Narration* out) : out_(out) {}

  void attach(minilang::Interp* interp) { interp_ = interp; }

  [[nodiscard]] bool wants_state() override { return true; }

  void on_state(const minilang::FuncDecl& fn, const minilang::Stmt& stmt,
                minilang::StateAccess& state) override {
    if (out_->steps.size() >= kNarrationMaxSteps) {
      truncated_ = true;
      return;
    }
    obs::NarrationStep step;
    step.function = fn.name;
    step.line = stmt.loc.line;
    step.stmt = minilang::stmt_header_text(stmt);
    if (step.stmt.size() > 96) step.stmt = step.stmt.substr(0, 93) + "...";
    step.sync_depth = state.sync_depth();
    step.thread = interp_ != nullptr ? interp_->current_thread_id() : 0;
    out_->steps.push_back(std::move(step));
  }

  [[nodiscard]] bool truncated() const { return truncated_; }

 private:
  obs::Narration* out_;
  minilang::Interp* interp_ = nullptr;
  bool truncated_ = false;
};

}  // namespace

obs::Narration narrate_schedule(const minilang::Program& program,
                                const ScheduleWitness& witness) {
  obs::Narration narration;
  narration.kind = "schedule-replay";
  narration.test = witness.test;
  ScheduleNarrator narrator(&narration);
  ScheduleExplorer explorer(program, ScheduleExploreOptions{});
  const minilang::ScheduleRunResult run =
      explorer.replay(witness, [&](minilang::Interp& interp) {
        narrator.attach(&interp);
        interp.set_fuel(kNarrationFuel);
        interp.set_observer(&narrator);
      });
  narration.reproduced = !run.test_passed;
  std::string detail = "schedule [" + witness.decisions_text() + "] replayed";
  if (!run.test_passed)
    detail += ": " + (run.error.empty() ? witness.outcome : run.error);
  else
    detail += ": violation not reproduced (stale witness)";
  if (narrator.truncated()) detail += "; step trace truncated";
  narration.detail = std::move(detail);
  return narration;
}

}  // namespace lisa::concolic
