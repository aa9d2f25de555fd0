// Bounded schedule exploration for spawn-ing MiniLang programs.
//
// Serial replay runs every spawned thread root inline, so a single replay
// sees exactly one interleaving and is provably blind to atomicity bugs.
// The ScheduleExplorer quantifies over interleavings instead: it re-runs a
// @test under the interpreter's cooperative scheduler, choosing a different
// thread order each time.
//
// The interpreter preempts before every spawn, monitor acquisition, field
// read and write, blocking call, wait, notify and join (minilang/interp.hpp).
// A monitor release is no yield point of its own. A release is a left mover
// (Lipton's reduction), so the releasing thread owes the preemption point to
// its next yield. Every shared access that otherwise never yields (an index
// access, a builtin reading a list, map or object or using the clock, a
// concatenation rendering one) yields to pay that debt as a
// kDeferredRelease op: it conflicts with every op and wakes every sleeper.
// So the thread touches only thread-local state between the release and
// the yield that pays for it.
//
// One phase, one bound (`max_schedules`, every run charged to the Budget):
// DFS with conflict-directed branching. A yield point becomes a backtrack
// point only when two runnable threads have pending operations that do not
// commute (same monitor, same object field, or an operation whose footprint
// is unknown); otherwise the lowest id runs and no alternative is recorded.
// This is a simplified sleep-set-spirit reduction: commuting choices are
// pruned, conflicting choices are explored exhaustively. If the DFS drains
// its stack within the bound, exploration is *conclusive* for the reduced
// space; if the bound runs out first, finding no violation is a typed
// inconclusive, never a silent pass.
//
// A violating schedule is captured as a replayable witness — the decision
// taken at every choice point — which re-derives the identical trace on any
// later run (determinism is asserted by schedule_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "minilang/ast.hpp"
#include "minilang/interp.hpp"
#include "obs/provenance.hpp"
#include "support/budget.hpp"

namespace lisa::concolic {

/// Replayable evidence for one violating interleaving.
struct ScheduleWitness {
  std::string test;
  /// Always 0: the decisions alone replay a witness. Kept so the compact
  /// form, and every ledger that carries it, stays unchanged.
  std::uint64_t seed = 0;
  /// Thread picked at each choice point, in order. Replay follows this list
  /// and falls back to lowest-id once it is exhausted.
  std::vector<int> decisions;
  std::string outcome;  // "assert-failure" | "hang" | "exception"
  std::string detail;   // narrated failure (assert text, hang description)

  [[nodiscard]] std::string decisions_text() const;  // "0,1,1,0"
  [[nodiscard]] static std::vector<int> parse_decisions(const std::string& text);
  /// Compact one-line form carried through reports and the ledger:
  /// "test=...;seed=...;decisions=...;outcome=...".
  [[nodiscard]] std::string to_compact() const;
  [[nodiscard]] static ScheduleWitness from_compact(const std::string& text);
};

struct ScheduleExplorationResult {
  int schedules_explored = 0;
  int tests_with_threads = 0;
  /// True when the DFS drained the (reduced) schedule space of every
  /// thread-spawning test within the bound and no run was degraded. A
  /// violation found is a real verdict regardless.
  bool conclusive = true;
  bool violation_found = false;
  std::string inconclusive_reason;  // typed cause when !conclusive
  std::vector<ScheduleWitness> witnesses;  // first violation per failing test
};

struct ScheduleExploreOptions {
  int max_schedules = 2048;           // the DFS bound
  support::Budget* budget = nullptr;  // charged one schedule per run
};

class ScheduleExplorer {
 public:
  /// `program` must outlive the explorer.
  ScheduleExplorer(const minilang::Program& program, ScheduleExploreOptions options);

  /// Explores every @test that (transitively) executes a spawn statement.
  /// Tests that never spawn have exactly one schedule and cost nothing.
  ScheduleExplorationResult explore();

  /// Explores one test (which need not spawn; then it is trivially
  /// conclusive after one run).
  ScheduleExplorationResult explore_test(const std::string& test_name);

  /// Re-runs a witness schedule. `configure` (optional) receives the fresh
  /// interpreter before the run — attach trace observers there.
  minilang::ScheduleRunResult replay(
      const ScheduleWitness& witness,
      const std::function<void(minilang::Interp&)>& configure = nullptr);

  /// True when `test_name` (or anything it calls) contains a spawn.
  [[nodiscard]] bool test_spawns(const std::string& test_name) const;

 private:
  void explore_into(const std::string& test_name, ScheduleExplorationResult& out);

  const minilang::Program& program_;
  ScheduleExploreOptions options_;
};

/// Narrates a violating interleaving: replays `witness` under the scheduler
/// with a recording observer and returns a Narration of kind
/// "schedule-replay" whose steps carry the executing MiniLang thread id
/// (rendered as [tN] markers by `lisa explain`).
[[nodiscard]] obs::Narration narrate_schedule(const minilang::Program& program,
                                              const ScheduleWitness& witness);

}  // namespace lisa::concolic
