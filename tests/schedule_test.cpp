// Schedule exploration: serial replay blindness, witness determinism,
// budget exhaustion as typed inconclusives, chaos injection, the gate
// policy that an undrained schedule space blocks a commit, and the fiber
// scheduler underneath (per-thread exception state, stack depth, teardown
// on every abort path).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "concolic/schedule.hpp"
#include "corpus/ticket.hpp"
#include "inference/mock_llm.hpp"
#include "lisa/checker.hpp"
#include "lisa/ci_gate.hpp"
#include "lisa/contract.hpp"
#include "minilang/interp.hpp"
#include "minilang/sema.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "support/budget.hpp"
#include "support/faultpoint.hpp"
#include "support/json.hpp"

namespace {

using namespace lisa;

const corpus::FailureTicket& ticket_or_die(const std::string& case_id) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find(case_id);
  EXPECT_NE(ticket, nullptr) << case_id;
  return *ticket;
}

/// The three schedule-explored corpus cases (two atomicity, one liveness)
/// and the schedules each version takes: the buggy version until its first
/// violation, the patched one to drain its reduced space.
struct ExploredCase {
  std::string id;
  int buggy_schedules = 0;
  int patched_schedules = 0;
};

const std::vector<ExploredCase>& explored_cases() {
  static const std::vector<ExploredCase> cases{
      {"zk-session-close-race", 2, 16},
      {"hbase-counter-race", 2, 124},
      {"cass-flush-notify", 5, 14},
  };
  return cases;
}

TEST(ScheduleWitness, CompactRoundTripPreservesEveryField) {
  concolic::ScheduleWitness witness;
  witness.test = "test_concurrent_increments_all_land";
  witness.seed = 0x5eedULL + 17;
  witness.decisions = {0, 0, 1, 1, 2, 2, 1};
  witness.outcome = "assert-failure";
  witness.detail = "assertion failed: no increment lost; schedule [0,0,1]";
  const concolic::ScheduleWitness loaded =
      concolic::ScheduleWitness::from_compact(witness.to_compact());
  EXPECT_EQ(loaded.test, witness.test);
  EXPECT_EQ(loaded.seed, witness.seed);
  EXPECT_EQ(loaded.decisions, witness.decisions);
  EXPECT_EQ(loaded.outcome, witness.outcome);
  // detail is the last field, so free-form text (even with ';') survives.
  EXPECT_EQ(loaded.detail, witness.detail);
  EXPECT_EQ(loaded.to_compact(), witness.to_compact());
}

TEST(ScheduleExplorer, CatchesAtomicityBugsSerialReplayMisses) {
  // The central claim: on every buggy schedule-explored case the embedded
  // tests pass under serial replay (one interleaving, spawn runs inline),
  // yet the explorer finds a violating schedule and captures a witness.
  for (const ExploredCase& explored_case : explored_cases()) {
    const std::string& case_id = explored_case.id;
    const corpus::FailureTicket& ticket = ticket_or_die(case_id);
    const minilang::Program program = minilang::parse_checked(ticket.buggy_source);

    minilang::Interp serial(program);
    const auto [passed, failed] = serial.run_all_tests();
    EXPECT_GT(passed, 0) << case_id;
    EXPECT_EQ(failed, 0) << case_id << ": serial replay should be blind — "
                         << serial.last_error();

    concolic::ScheduleExplorer explorer(program, {});
    const concolic::ScheduleExplorationResult result = explorer.explore();
    EXPECT_TRUE(result.violation_found) << case_id;
    EXPECT_EQ(result.schedules_explored, explored_case.buggy_schedules) << case_id;
    ASSERT_FALSE(result.witnesses.empty()) << case_id;
    const concolic::ScheduleWitness& witness = result.witnesses.front();
    EXPECT_FALSE(witness.test.empty()) << case_id;
    EXPECT_FALSE(witness.decisions.empty()) << case_id;
    EXPECT_TRUE(witness.outcome == "assert-failure" || witness.outcome == "hang")
        << case_id << ": " << witness.outcome;
  }
}

TEST(ScheduleExplorer, PatchedCasesExploreConclusivelyWithNoViolation) {
  // Exact counts pin the reduced space: a change to the yield points or the
  // reduction moves them, and must say why.
  for (const ExploredCase& explored_case : explored_cases()) {
    const std::string& case_id = explored_case.id;
    const corpus::FailureTicket& ticket = ticket_or_die(case_id);
    const minilang::Program program = minilang::parse_checked(ticket.patched_source);
    concolic::ScheduleExplorer explorer(program, {});
    const concolic::ScheduleExplorationResult result = explorer.explore();
    EXPECT_FALSE(result.violation_found) << case_id;
    EXPECT_TRUE(result.conclusive) << case_id << ": " << result.inconclusive_reason;
    EXPECT_EQ(result.schedules_explored, explored_case.patched_schedules) << case_id;
    EXPECT_GT(result.tests_with_threads, 0) << case_id;
  }
}

TEST(ScheduleExplorer, MissedNotifyManifestsAsHangWitness) {
  const corpus::FailureTicket& ticket = ticket_or_die("cass-flush-notify");
  const minilang::Program program = minilang::parse_checked(ticket.buggy_source);
  concolic::ScheduleExplorer explorer(program, {});
  const concolic::ScheduleExplorationResult result = explorer.explore();
  ASSERT_FALSE(result.witnesses.empty());
  EXPECT_EQ(result.witnesses.front().outcome, "hang");
  EXPECT_NE(result.witnesses.front().detail.find("waiting"), std::string::npos)
      << result.witnesses.front().detail;
}

/// Records the interleaved execution as "t<id>:<function>:<line>;" so two
/// replays can be compared byte-for-byte.
class TraceRecorder final : public minilang::ExecObserver {
 public:
  void attach(minilang::Interp* interp) { interp_ = interp; }
  void on_stmt(const minilang::FuncDecl& fn, const minilang::Stmt& stmt) override {
    trace_ += "t" + std::to_string(interp_->current_thread_id()) + ":" + fn.name +
              ":" + std::to_string(stmt.loc.line) + ";";
  }
  [[nodiscard]] const std::string& trace() const { return trace_; }

 private:
  minilang::Interp* interp_ = nullptr;
  std::string trace_;
};

TEST(ScheduleExplorer, WitnessReplayIsByteIdenticalAcrossFiftyRuns) {
  for (const ExploredCase& explored_case : explored_cases()) {
    const std::string& case_id = explored_case.id;
    const corpus::FailureTicket& ticket = ticket_or_die(case_id);
    const minilang::Program program = minilang::parse_checked(ticket.buggy_source);
    concolic::ScheduleExplorer explorer(program, {});
    const concolic::ScheduleExplorationResult explored = explorer.explore();
    ASSERT_FALSE(explored.witnesses.empty()) << case_id;
    const concolic::ScheduleWitness& witness = explored.witnesses.front();

    std::string first_trace;
    std::string first_error;
    for (int run = 0; run < 50; ++run) {
      TraceRecorder recorder;
      const minilang::ScheduleRunResult result =
          explorer.replay(witness, [&](minilang::Interp& interp) {
            recorder.attach(&interp);
            interp.set_observer(&recorder);
          });
      // The witness re-derives the identical failing trace, every time.
      EXPECT_FALSE(result.test_passed) << case_id << " run " << run;
      EXPECT_EQ(result.error, witness.detail) << case_id << " run " << run;
      if (run == 0) {
        first_trace = recorder.trace();
        first_error = result.error;
        EXPECT_FALSE(first_trace.empty()) << case_id;
      } else {
        ASSERT_EQ(recorder.trace(), first_trace) << case_id << " run " << run;
        ASSERT_EQ(result.error, first_error) << case_id << " run " << run;
      }
    }
  }
}

TEST(ScheduleExplorer, StaleWitnessDegradesDeterministically) {
  // A witness whose decisions no longer apply (recorded against the buggy
  // source, replayed against the patch) falls back to lowest-id scheduling:
  // the run completes and reports "not reproduced" instead of crashing.
  const corpus::FailureTicket& ticket = ticket_or_die("hbase-counter-race");
  const minilang::Program buggy = minilang::parse_checked(ticket.buggy_source);
  concolic::ScheduleExplorer buggy_explorer(buggy, {});
  const concolic::ScheduleExplorationResult explored = buggy_explorer.explore();
  ASSERT_FALSE(explored.witnesses.empty());

  const minilang::Program patched = minilang::parse_checked(ticket.patched_source);
  concolic::ScheduleExplorer patched_explorer(patched, {});
  const minilang::ScheduleRunResult first =
      patched_explorer.replay(explored.witnesses.front());
  const minilang::ScheduleRunResult second =
      patched_explorer.replay(explored.witnesses.front());
  EXPECT_TRUE(first.test_passed) << first.error;
  EXPECT_EQ(first.test_passed, second.test_passed);
  EXPECT_EQ(first.error, second.error);
  const obs::Narration narration =
      concolic::narrate_schedule(patched, explored.witnesses.front());
  EXPECT_FALSE(narration.reproduced);
  EXPECT_NE(narration.detail.find("stale witness"), std::string::npos)
      << narration.detail;
}

TEST(ScheduleExplorer, NonSpawningTestIsVacuouslyConclusive) {
  const corpus::FailureTicket& ticket = ticket_or_die("hbase-counter-race");
  const minilang::Program program = minilang::parse_checked(ticket.buggy_source);
  concolic::ScheduleExplorer explorer(program, {});
  EXPECT_FALSE(explorer.test_spawns("test_single_increment_lands"));
  EXPECT_TRUE(explorer.test_spawns("test_concurrent_increments_all_land"));
  const concolic::ScheduleExplorationResult result =
      explorer.explore_test("test_single_increment_lands");
  EXPECT_TRUE(result.conclusive);
  EXPECT_EQ(result.schedules_explored, 0);
  EXPECT_EQ(result.tests_with_threads, 0);
}

TEST(ScheduleExplorer, BoundExhaustionIsTypedInconclusive) {
  // Too small a bound on a correct program: never a silent pass. The DFS
  // spends the whole bound without draining the space, and the result says
  // so in a typed reason.
  const corpus::FailureTicket& ticket = ticket_or_die("hbase-counter-race");
  const minilang::Program program = minilang::parse_checked(ticket.patched_source);
  concolic::ScheduleExploreOptions options;
  options.max_schedules = 4;
  concolic::ScheduleExplorer explorer(program, options);
  const concolic::ScheduleExplorationResult result = explorer.explore();
  EXPECT_FALSE(result.violation_found);
  EXPECT_FALSE(result.conclusive);
  EXPECT_NE(result.inconclusive_reason.find("not exhausted"), std::string::npos)
      << result.inconclusive_reason;
  EXPECT_EQ(result.inconclusive_reason.find("random"), std::string::npos)
      << result.inconclusive_reason;
  EXPECT_EQ(result.schedules_explored, 4);
}

TEST(ScheduleExplorer, BudgetExhaustionIsTypedAndCharged) {
  const corpus::FailureTicket& ticket = ticket_or_die("zk-session-close-race");
  const minilang::Program program = minilang::parse_checked(ticket.patched_source);
  support::BudgetLimits limits;
  limits.max_schedules = 3;
  support::Budget budget(limits);
  concolic::ScheduleExploreOptions options;
  options.budget = &budget;
  concolic::ScheduleExplorer explorer(program, options);
  const concolic::ScheduleExplorationResult result = explorer.explore();
  EXPECT_FALSE(result.conclusive);
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(support::budget_resource_name(budget.exhausted_resource()),
            std::string("schedules"));
  EXPECT_EQ(result.inconclusive_reason, budget.exhausted_reason());
  // The denied charge stops exploration before the run happens.
  EXPECT_EQ(result.schedules_explored, 3);
}

TEST(ScheduleExplorer, FaultpointForcesNarratedInconclusive) {
  support::FaultRegistry::instance().configure("schedule.explore=fail");
  const corpus::FailureTicket& ticket = ticket_or_die("hbase-counter-race");
  const minilang::Program program = minilang::parse_checked(ticket.buggy_source);
  concolic::ScheduleExplorer explorer(program, {});
  const concolic::ScheduleExplorationResult result = explorer.explore();
  support::FaultRegistry::instance().clear();
  EXPECT_FALSE(result.conclusive);
  EXPECT_FALSE(result.violation_found);
  EXPECT_NE(result.inconclusive_reason.find("fault injected: schedule.explore"),
            std::string::npos)
      << result.inconclusive_reason;
}

/// The attributes of every `schedule.explore` span recorded while `run` runs.
std::vector<std::map<std::string, support::Json>> explore_spans(
    const std::function<void()>& run) {
  obs::tracer().clear();
  obs::tracer().set_enabled(true);
  run();
  obs::tracer().set_enabled(false);
  std::vector<std::map<std::string, support::Json>> out;
  for (const obs::SpanRecord& span : obs::tracer().snapshot())
    if (span.name == "schedule.explore") out.emplace_back(span.attrs.begin(), span.attrs.end());
  obs::tracer().clear();
  return out;
}

TEST(ScheduleExplorer, ExploreSpanCarriesEachTestsCounts) {
  // One span per explored test, one run_us sample per explored schedule
  // and one pruned_run_us sample per pruned one.
  const corpus::FailureTicket& ticket = ticket_or_die("zk-session-close-race");
  const minilang::Program program = minilang::parse_checked(ticket.patched_source);
  const obs::Histogram& run_us = obs::metrics().histogram("schedule.run_us");
  const obs::Histogram& pruned_run_us = obs::metrics().histogram("schedule.pruned_run_us");
  const std::int64_t samples_before = run_us.count();
  const std::int64_t pruned_samples_before = pruned_run_us.count();
  concolic::ScheduleExplorationResult result;
  const auto spans = explore_spans([&] {
    concolic::ScheduleExplorer explorer(program, {});
    result = explorer.explore();
  });
  ASSERT_EQ(static_cast<int>(spans.size()), result.tests_with_threads);
  std::int64_t schedules = 0;
  std::int64_t pruned = 0;
  for (const auto& attrs : spans) {
    EXPECT_FALSE(attrs.at("test").as_string().empty());
    schedules += attrs.at("schedules").as_int();
    pruned += attrs.at("pruned").as_int();
    EXPECT_GE(attrs.at("pruned").as_int(), 0);
    EXPECT_LE(attrs.at("pruned").as_int(), attrs.at("schedules").as_int());
    EXPECT_TRUE(attrs.at("conclusive").as_bool());
  }
  EXPECT_EQ(schedules, result.schedules_explored);
  EXPECT_EQ(run_us.count() - samples_before, result.schedules_explored);
  EXPECT_EQ(pruned, 5);
  EXPECT_EQ(pruned_run_us.count() - pruned_samples_before, pruned);

  // A bound that cuts the search shows on the span, not only on the result.
  const minilang::Program hbase =
      minilang::parse_checked(ticket_or_die("hbase-counter-race").patched_source);
  concolic::ScheduleExploreOptions options;
  options.max_schedules = 4;
  const auto bounded = explore_spans([&] {
    concolic::ScheduleExplorer explorer(hbase, options);
    result = explorer.explore();
  });
  ASSERT_EQ(static_cast<int>(bounded.size()), result.tests_with_threads);
  std::int64_t bounded_schedules = 0;
  bool any_inconclusive = false;
  for (const auto& attrs : bounded) {
    bounded_schedules += attrs.at("schedules").as_int();
    any_inconclusive = any_inconclusive || !attrs.at("conclusive").as_bool();
  }
  EXPECT_EQ(bounded_schedules, 4);
  EXPECT_TRUE(any_inconclusive);
  EXPECT_FALSE(result.conclusive);
}

TEST(ScheduleNarration, StepsCarryOffMainThreadMarkers) {
  const corpus::FailureTicket& ticket = ticket_or_die("zk-session-close-race");
  const minilang::Program program = minilang::parse_checked(ticket.buggy_source);
  concolic::ScheduleExplorer explorer(program, {});
  const concolic::ScheduleExplorationResult explored = explorer.explore();
  ASSERT_FALSE(explored.witnesses.empty());
  const obs::Narration narration =
      concolic::narrate_schedule(program, explored.witnesses.front());
  EXPECT_EQ(narration.kind, "schedule-replay");
  EXPECT_TRUE(narration.reproduced) << narration.detail;
  ASSERT_FALSE(narration.steps.empty());
  bool off_main = false;
  for (const obs::NarrationStep& step : narration.steps)
    if (step.thread != 0) off_main = true;
  EXPECT_TRUE(off_main);
  EXPECT_NE(narration.detail.find("replayed"), std::string::npos);
}

// --- ground-truth mutants ---------------------------------------------------
//
// Small programs whose verdict is known by construction. Each racy one has
// exactly one kind of unprotected shared access, so a change to the yield
// points or the reduction that drops that access's preemption point loses
// the race here first.

concolic::ScheduleExplorationResult explore_source(const char* source) {
  const minilang::Program program = minilang::parse_checked(source);
  concolic::ScheduleExplorer explorer(program, {});
  return explorer.explore();
}

/// A racy mutant: one kind of unprotected shared access, and an assert that
/// fails in some interleaving of it.
struct RacyMutant {
  const char* name;
  const char* source;
};

const RacyMutant kRacyMutants[] = {
    // The producer fetches the list under no lock, bumps the count under
    // the monitor and pushes after releasing it. The push has no yield
    // point of its own: only the preemption point the release leaves owed
    // lets the consumer run between the two.
    {"container pushed after the release", R"ml(
struct Queue { items: list<int>; count: int; }

fn producer(q: Queue) {
  let items = q.items;
  sync (q) {
    q.count = q.count + 1;
  }
  push(items, 1);
}

fn consumer(q: Queue) {
  sync (q) {
    assert(len(q.items) == q.count, "items and count agree");
  }
}

@test
fn test_items_match_count() {
  let q = new Queue { count: 0 };
  spawn producer(q);
  spawn consumer(q);
  join_all();
}
)ml"},
    {"field incremented under two monitors", R"ml(
struct Counter { value: int; }
struct Lock { id: int; }

fn bump(c: Counter, m: Lock) {
  sync (m) {
    c.value = c.value + 1;
  }
}

@test
fn test_increments_under_two_monitors() {
  let c = new Counter { value: 0 };
  let a = new Lock { id: 1 };
  let b = new Lock { id: 2 };
  spawn bump(c, a);
  spawn bump(c, b);
  join_all();
  assert(c.value == 2, "no increment lost");
}
)ml"},
    {"unguarded increment after sync", R"ml(
struct Counter { value: int; done: int; }

fn work(c: Counter) {
  sync (c) {
    c.value = c.value + 1;
  }
  c.done = c.done + 1;
}

@test
fn test_done_counts_every_worker() {
  let c = new Counter { value: 0, done: 0 };
  spawn work(c);
  spawn work(c);
  join_all();
  assert(c.done == 2, "no done lost");
}
)ml"},
    // now() reads the shared virtual clock, which the other thread's
    // blocking call advances under the monitor just released.
    {"clock read after the release", R"ml(
struct S { x: int; }

fn worker(s: S) {
  let t0 = now();
  sync (s) {
    s.x = 1;
  }
  assert(now() == t0, "the clock stood still");
}

fn other(s: S) {
  sync (s) {
    if (s.x == 1) {
      write_record();
    }
  }
}

@test
fn test_clock_after_release() {
  let s = new S { x: 0 };
  spawn worker(s);
  spawn other(s);
  join_all();
}
)ml"},
    // str() renders every field of the object without a field-read yield.
    {"object rendered by str after the release", R"ml(
struct S { x: int; }

fn writer(s: S) {
  sync (s) {
    s.x = 1;
  }
  assert(str(s) == "S{x: 1}", "x is still 1");
}

fn bumper(s: S) {
  sync (s) {
    if (s.x == 1) {
      s.x = 2;
    }
  }
}

@test
fn test_rendered_after_release() {
  let s = new S { x: 0 };
  spawn writer(s);
  spawn bumper(s);
  join_all();
}
)ml"},
    // String concatenation renders the object the same way.
    {"object concatenated after the release", R"ml(
struct S { x: int; }

fn writer(s: S) {
  sync (s) {
    s.x = 1;
  }
  let seen = "s=" + s;
  assert(seen == "s=S{x: 1}", "x is still 1");
}

fn bumper(s: S) {
  sync (s) {
    if (s.x == 1) {
      s.x = 2;
    }
  }
}

@test
fn test_concatenated_after_release() {
  let s = new S { x: 0 };
  spawn writer(s);
  spawn bumper(s);
  join_all();
}
)ml"},
    // A list monitor is keyed by its contents. Keyed right after the
    // release, the list still matches the key the other thread holds it
    // under; keyed after that thread's push, it names another monitor, and
    // the two increments race.
    {"list monitor keyed after the release", R"ml(
struct S { x: int; n: int; }

fn first(s: S, items: list<int>) {
  sync (s) {
    s.x = 1;
  }
  sync (items) {
    s.n = s.n + 1;
  }
}

fn second(s: S, items: list<int>) {
  sync (s) {
    sync (items) {
      if (s.x == 1) {
        push(items, 7);
      }
      s.n = s.n + 1;
    }
  }
}

@test
fn test_list_monitor_excludes() {
  let s = new S { x: 0, n: 0 };
  let items = list_new();
  spawn first(s, items);
  spawn second(s, items);
  join_all();
  assert(s.n == 2, "no increment lost");
}
)ml"},
};

TEST(ScheduleMutants, EveryRacyMutantViolates) {
  for (const RacyMutant& mutant : kRacyMutants) {
    const concolic::ScheduleExplorationResult result = explore_source(mutant.source);
    EXPECT_TRUE(result.violation_found) << mutant.name;
    EXPECT_EQ(result.witnesses.empty() ? "no witness" : result.witnesses.front().outcome,
              "assert-failure")
        << mutant.name;
  }
}

TEST(ScheduleMutants, ReadOnlyScansPassConclusively) {
  // Race-free: both threads only read the shared list, and add to the total
  // under its monitor. With a preemption point right after every release
  // this took 58 schedules; the deferred point takes 26.
  const concolic::ScheduleExplorationResult result = explore_source(R"ml(
struct Shared { items: list<int>; total: int; }

fn scan(s: Shared) {
  let items = s.items;
  let sum = 0;
  let i = 0;
  while (i < len(items)) {
    sum = sum + items[i];
    i = i + 1;
  }
  sync (s) {
    s.total = s.total + sum;
  }
}

@test
fn test_scans_add_up() {
  let s = new Shared { total: 0 };
  let i = 0;
  while (i < 8) {
    push(s.items, i);
    i = i + 1;
  }
  spawn scan(s);
  spawn scan(s);
  join_all();
  assert(s.total == 56, "both scans land");
}
)ml");
  EXPECT_FALSE(result.violation_found)
      << (result.witnesses.empty() ? "" : result.witnesses.front().to_compact());
  EXPECT_TRUE(result.conclusive) << result.inconclusive_reason;
  EXPECT_EQ(result.schedules_explored, 26);
}

// --- fiber scheduler -------------------------------------------------------

/// Exactly two threads, each throwing inside `sync` within a MiniLang `try`.
/// The sync unwind releases the monitor without yielding. The catch body
/// runs inside the C++ handler that caught the MiniThrow, and its
/// shared-field read yields, so threads switch while that handler is
/// active: a handler exit that saw the other thread's exception state would
/// record the wrong value.
constexpr const char* kCatchIsolationSource = R"ml(
struct Box { shared: int; a: string; b: string; }

fn worker(box: Box, mine: string, slot: int) {
  try {
    sync (box) {
      throw mine;
    }
  } catch (e) {
    let peek = box.shared;
    if (slot == 1) { box.a = e; } else { box.b = e; }
  }
}

@test
fn test_each_thread_catches_its_own() {
  let box = new Box { shared: 0 };
  spawn worker(box, "from-t1", 1);
  spawn worker(box, "from-t2", 2);
  join_all();
  assert(box.a == "from-t1", "t1 caught its own");
  assert(box.b == "from-t2", "t2 caught its own");
}
)ml";

TEST(FiberScheduler, EachThreadCatchesItsOwnExceptionInEverySchedule) {
  const minilang::Program program = minilang::parse_checked(kCatchIsolationSource);
  concolic::ScheduleExplorer explorer(program, {});
  const concolic::ScheduleExplorationResult result = explorer.explore();
  EXPECT_FALSE(result.violation_found)
      << (result.witnesses.empty() ? "" : result.witnesses.front().to_compact());
  EXPECT_TRUE(result.conclusive) << result.inconclusive_reason;
  // Not vacuous: the handlers really interleave across many schedules.
  EXPECT_GT(result.schedules_explored, 20);
}

TEST(FiberScheduler, DeepRecursionInSpawnedThreadIsTypedDepthFailure) {
  // Every level nests try and sync, the deepest interpreter frames a
  // MiniLang call can produce; the 256-frame limit must trip before the
  // fiber stack runs out.
  const minilang::Program program = minilang::parse_checked(R"ml(
struct Box { v: int; }

fn dive(box: Box, n: int) -> int {
  try {
    sync (box) {
      return dive(box, n + 1) + 1;
    }
  } catch (e) {
    return 0;
  }
}

@test
fn test_deep() {
  let box = new Box { v: 0 };
  spawn dive(box, 0);
  join_all();
}
)ml");
  concolic::ScheduleExplorer explorer(program, {});
  const concolic::ScheduleExplorationResult result = explorer.explore();
  ASSERT_TRUE(result.violation_found);
  const concolic::ScheduleWitness& witness = result.witnesses.front();
  EXPECT_EQ(witness.outcome, "exception");
  EXPECT_NE(witness.detail.find("thread t1: call depth limit exceeded in dive"),
            std::string::npos)
      << witness.detail;
}

/// Maximal preemption: grants the lowest runnable thread other than the
/// one granted last, and optionally abandons the run at pick `prune_at`.
class AlternatingController final : public minilang::ScheduleController {
 public:
  explicit AlternatingController(int prune_at = -1) : prune_at_(prune_at) {}

  int pick(const std::vector<minilang::ThreadStatus>& runnable) override {
    if (picks_++ == prune_at_) return kPruneRun;
    for (const minilang::ThreadStatus& status : runnable)
      if (status.thread_id != last_) return status.thread_id;
    return runnable.front().thread_id;
  }
  void observe(const minilang::ThreadStatus& granted) override { last_ = granted.thread_id; }

 private:
  int prune_at_;
  int picks_ = 0;
  int last_ = 0;
};

/// Two threads in lock-order inversion, a third spawned thread parked inside
/// its own monitor, and the hooks each abort path needs.
constexpr const char* kAbortPathsSource = R"ml(
struct Box { v: int; name: string; }

fn holder(first: Box, second: Box) {
  sync (first) {
    let x = first.v;
    sync (second) { second.v = x + 1; }
  }
}

fn parked(box: Box) {
  sync (box) {
    let label = "parked on " + box.name;
    let y = box.v;
    box.v = y + 1;
  }
}

fn failer(box: Box) {
  let z = box.v;
  throw "boom from " + box.name;
}

fn spinner(box: Box) {
  sync (box) {
    while (true) { box.v = box.v + 1; }
  }
}

@test
fn test_hang_main_blocked() {
  let a = new Box { v: 0, name: "a" };
  let b = new Box { v: 0, name: "b" };
  let c = new Box { v: 0, name: "c" };
  spawn holder(a, b);
  spawn parked(c);
  sync (b) {
    let y = b.v;
    sync (a) { a.v = y + 1; }
  }
  join_all();
}

@test
fn test_failure_while_main_holds_monitor() {
  let a = new Box { v: 0, name: "a" };
  let c = new Box { v: 0, name: "c" };
  sync (a) {
    spawn parked(c);
    spawn failer(a);
    let y = a.v;
    a.v = y + 1;
  }
  join_all();
}

@test
fn test_prunable() {
  let a = new Box { v: 0, name: "a" };
  let c = new Box { v: 0, name: "c" };
  spawn parked(c);
  spawn parked(a);
  sync (c) { let y = c.v; }
  join_all();
}

@test
fn test_spinning_thread() {
  let a = new Box { v: 0, name: "a" };
  let c = new Box { v: 0, name: "c" };
  spawn parked(c);
  spawn spinner(a);
  join_all();
}
)ml";

TEST(FiberScheduler, EveryAbortPathUnwindsEveryFiberRepeatedly) {
  // Each abort path tears a schedule down while spawned fibers still have
  // live frames (strings, values, held monitors). Repetition makes a leaked
  // frame visible to LeakSanitizer under `check.sh sanitize`, and a stack
  // recycled in a dirty state visible as a crash or a changed outcome.
  const minilang::Program program = minilang::parse_checked(kAbortPathsSource);
  struct Path {
    const char* test;
    int prune_at;
    std::int64_t fuel;
  };
  const Path paths[] = {
      {"test_hang_main_blocked", -1, 2'000'000},
      {"test_failure_while_main_holds_monitor", -1, 2'000'000},
      {"test_prunable", 3, 2'000'000},
      {"test_spinning_thread", -1, 2'000},
  };
  for (const Path& path : paths) {
    minilang::ScheduleRunResult first;
    for (int run = 0; run < 500; ++run) {
      minilang::Interp interp(program);
      interp.set_fuel(path.fuel);
      AlternatingController controller(path.prune_at);
      const minilang::ScheduleRunResult result =
          interp.run_scheduled_test(path.test, controller);
      ASSERT_FALSE(result.test_passed) << path.test;
      if (run == 0) {
        first = result;
        continue;
      }
      ASSERT_EQ(result.error, first.error) << path.test << " run " << run;
      ASSERT_EQ(result.decisions, first.decisions) << path.test << " run " << run;
    }
    const std::string test = path.test;
    EXPECT_EQ(first.threads_spawned, 2) << test;
    if (test == "test_hang_main_blocked") {
      EXPECT_TRUE(first.hung) << first.error;
      EXPECT_NE(first.error.find("t0 blocked on obj:"), std::string::npos) << first.error;
    } else if (test == "test_failure_while_main_holds_monitor") {
      EXPECT_NE(first.error.find("thread t2: boom from a"), std::string::npos) << first.error;
    } else if (test == "test_prunable") {
      EXPECT_TRUE(first.pruned);
      EXPECT_TRUE(first.error.empty()) << first.error;
    } else {
      EXPECT_TRUE(first.degraded);
      EXPECT_NE(first.error.find("step limit exhausted"), std::string::npos) << first.error;
    }
  }
}

core::ContractStore contracts_for(const corpus::FailureTicket& ticket) {
  const inference::SemanticsProposal proposal = inference::MockLlm().infer(ticket);
  core::TranslationResult translation = core::translate(proposal, ticket.system);
  core::ContractStore store;
  store.add_all(std::move(translation.contracts));
  return store;
}

TEST(GateSchedule, InconclusiveExplorationBlocksUnlessDowngraded) {
  // Gate policy: an undrained schedule space is "no violation found so far",
  // not a pass. It blocks by default and is downgradable only through the
  // explicit --schedule-warn-only escape hatch (which still flags the run).
  const corpus::FailureTicket& ticket = ticket_or_die("hbase-counter-race");
  const core::ContractStore store = contracts_for(ticket);
  core::CheckOptions options;
  options.max_schedules = 4;  // far below the 124 the patch needs
  const core::CiGate gate(options);

  const core::GateDecision blocked = gate.evaluate(ticket.patched_source, store);
  EXPECT_FALSE(blocked.allowed);
  EXPECT_EQ(blocked.totals.schedule_inconclusive, 1);
  bool narrated = false;
  for (const std::string& violation : blocked.violations)
    if (violation.find("schedule exploration inconclusive") != std::string::npos)
      narrated = true;
  EXPECT_TRUE(narrated);

  core::GateRunOptions downgraded;
  downgraded.schedule_warn_only = true;
  const core::GateDecision warned =
      gate.evaluate(ticket.patched_source, store, downgraded);
  EXPECT_TRUE(warned.allowed);
  EXPECT_TRUE(warned.needs_attention);
  EXPECT_EQ(warned.totals.schedule_inconclusive, 1);
}

TEST(GateSchedule, ViolatingInterleavingBlocksWithLedgerRecordedWitness) {
  // Acceptance shape for the whole feature: the buggy commit is blocked, the
  // decision carries the witness, and the ledger's narration replays it.
  const corpus::FailureTicket& ticket = ticket_or_die("zk-session-close-race");
  const core::ContractStore store = contracts_for(ticket);
  obs::ProvenanceLedger ledger;
  core::GateRunOptions run_options;
  run_options.ledger = &ledger;
  const core::GateDecision decision =
      core::CiGate(core::CheckOptions{}).evaluate(ticket.buggy_source, store, run_options);
  EXPECT_FALSE(decision.allowed);
  ASSERT_FALSE(decision.reports.empty());
  const core::ContractCheckReport& report = decision.reports.front();
  EXPECT_GT(report.schedule_violations, 0);
  ASSERT_FALSE(report.schedule_witness.empty());
  const concolic::ScheduleWitness witness =
      concolic::ScheduleWitness::from_compact(report.schedule_witness);
  EXPECT_FALSE(witness.decisions.empty());
  const obs::ContractCapture* capture = ledger.find(report.contract_id);
  ASSERT_NE(capture, nullptr);
  EXPECT_EQ(capture->schedule_witness, report.schedule_witness);
  EXPECT_EQ(capture->narration.kind, "schedule-replay");
  EXPECT_TRUE(capture->narration.reproduced);
}

}  // namespace
