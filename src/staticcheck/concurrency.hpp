// Static concurrency analysis — interprocedural locksets, the global
// lock-acquisition-order graph, and an Eraser-style shared-field race
// detector.
//
// Three layers, all built on the existing CFGs and function summaries:
//
//   * LocksetAnalysis — a forward must-analysis tracking the stack of
//     monitors definitely held at each statement. Join is the longest
//     common prefix (monitors held on *every* path survive), `sync` enter/
//     exit push/pop, and exception edges release `sync_unwind` monitors in
//     LIFO order — the same unwinding discipline LockStateAnalysis uses.
//   * Summary extension (`summarize_concurrency`, called from the summary
//     fixpoint): per function, the monitors it may (transitively) acquire,
//     the lock-acquisition orderings it exhibits, and every shared-field
//     access with its must-held lockset. Monitor names are rewritten
//     through call arguments (callee param root → caller argument path;
//     anything else gets a `callee::` prefix), so a caller sees callee
//     locks in its own namespace. Same-SCC imports skip rewriting, which
//     keeps the name set finite on recursive cycles.
//   * Whole-program verdicts over the thread roots (@entry functions and
//     uncalled non-test functions): `LockGraph` with SCC-based cycle
//     detection (each cycle is a potential deadlock, reported as located
//     acquisition chains), and `race_diagnostics` (a field written from
//     distinct roots under inconsistent locksets, with at least one access
//     guarded by the field's own monitor and one write not).
//
// Soundness caveats (see docs/staticcheck.md): monitors are abstracted by
// canonical access-path *names*, not objects — two distinct objects passed
// under the same name alias, and the same object under two names does not.
// The race rule is deliberately biased to fields that are guarded
// *somewhere* (Eraser's inconsistent-lockset discipline), so wholly
// unguarded fields — the single-threaded common case — stay silent.
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/callgraph.hpp"
#include "staticcheck/dataflow.hpp"
#include "staticcheck/diagnostics.hpp"
#include "staticcheck/summaries.hpp"

namespace lisa::staticcheck {

/// Canonical monitor name of a `sync` expression: its access path
/// ("node.lock"), falling back to the printed expression text.
[[nodiscard]] std::string monitor_path(const minilang::Expr& expr);

// ---------------------------------------------------------------------------
// Lockset dataflow (must-held monitors)
// ---------------------------------------------------------------------------

class LocksetAnalysis {
 public:
  struct State {
    /// Monitors definitely held, outermost first (a stack: `sync` is
    /// block-structured so must-held sets are always nested).
    std::vector<std::string> held;
    bool operator==(const State& other) const { return held == other.held; }
  };

  LocksetAnalysis(const minilang::Program& program, const analysis::CallGraph& graph,
                  const SummaryMap* summaries = nullptr)
      : program_(&program), graph_(&graph), summaries_(summaries) {}

  [[nodiscard]] State boundary(const Cfg& cfg) const {
    (void)cfg;
    return State{};
  }
  /// Must-join: the longest common prefix of the two stacks.
  bool join(State& into, const State& from) const;
  void transfer(const CfgNode& node, State& state) const;
  void refine(const minilang::Expr& guard, bool taken, State& state) const {
    (void)guard;
    (void)taken;
    (void)state;
  }
  /// Exception edges unwinding out of sync blocks release monitors LIFO.
  void edge_effect(const CfgEdge& edge, State& state) const {
    for (int i = 0; i < edge.sync_unwind && !state.held.empty(); ++i)
      state.held.pop_back();
  }
  void widen(State& state) const { (void)state; }

 private:
  const minilang::Program* program_;
  const analysis::CallGraph* graph_;
  const SummaryMap* summaries_ = nullptr;
};

/// Fills the concurrency fields of `out` (acquired_locks, lock_order_edges,
/// field_locks) for one function. Called from the bottom-up summary
/// fixpoint; reads callee facts (and same-SCC iterates) from `map`.
void summarize_concurrency(const minilang::Program& program,
                           const analysis::CallGraph& graph, const SummaryMap& map,
                           const minilang::FuncDecl& fn, FunctionSummary* out);

// ---------------------------------------------------------------------------
// Lock-acquisition-order graph
// ---------------------------------------------------------------------------

/// One potential deadlock: the lock-order edges of a strongly connected
/// component of the acquisition graph, in deterministic order. Each edge is
/// one located acquisition chain ("f acquires B at f:12 while holding A").
struct LockCycle {
  std::vector<std::string> monitors;   // SCC members, sorted
  std::vector<LockOrderEdge> edges;    // intra-SCC edges, sorted

  /// Human rendering: every chain with its source location.
  [[nodiscard]] std::string render() const;
};

/// The global lock-acquisition-order graph over the program's thread roots.
struct LockGraph {
  std::set<LockOrderEdge> edges;   // union over every thread root
  std::vector<LockCycle> cycles;   // potential deadlocks (empty = acyclic)
  /// Some root's summary degraded to conservative: the edge set is
  /// incomplete, so acyclicity proves nothing.
  bool degraded = false;

  [[nodiscard]] bool acyclic() const { return cycles.empty() && !degraded; }

  [[nodiscard]] static LockGraph build(const minilang::Program& program,
                                       const analysis::CallGraph& graph,
                                       const SummaryMap& summaries);
};

// ---------------------------------------------------------------------------
// Shared-field access index and race detection
// ---------------------------------------------------------------------------

/// All root-reachable accesses of one field: (thread root, site) pairs plus
/// whether any contributing summary hit the per-field site cap.
struct FieldAccesses {
  std::vector<std::pair<std::string, FieldAccessSite>> sites;
  /// Site cap hit or a summary degraded: the set is incomplete.
  bool truncated = false;
};

/// Field name → every access reachable from a thread root, with the root it
/// is reachable from. Deterministic ordering.
[[nodiscard]] std::map<std::string, FieldAccesses> shared_field_accesses(
    const minilang::Program& program, const analysis::CallGraph& graph,
    const SummaryMap& summaries);

/// True when some monitor in `lockset` guards an access with base path
/// `base` — the monitor *is* the accessed object (name-equal modulo
/// `callee::` prefixes) or a prefix of its path.
[[nodiscard]] bool lockset_guards(const std::set<std::string>& lockset,
                                  const std::string& base);

/// True when some monitor in `lockset` matches `guard` (a plain monitor
/// name, e.g. the `m` of a `holds(m)` contract) modulo namespace prefixes.
[[nodiscard]] bool lockset_covers(const std::set<std::string>& lockset,
                                  const std::string& guard);

/// The monitor a guarded_field contract's condition names as
/// "holds(<monitor>)"; empty when it names none.
[[nodiscard]] std::string guard_monitor(const std::string& condition_text);

/// Potential deadlocks as lint diagnostics (analysis "deadlock"), one per
/// cycle, each message carrying every located acquisition chain.
[[nodiscard]] std::vector<Diagnostic> deadlock_diagnostics(const LockGraph& graph);

/// Eraser-style inconsistent-lockset races as lint diagnostics (analysis
/// "race"): a field accessed from two distinct thread roots, written at
/// least once, guarded by its own monitor at some site and written without
/// it at another.
[[nodiscard]] std::vector<Diagnostic> race_diagnostics(const minilang::Program& program,
                                                       const analysis::CallGraph& graph,
                                                       const SummaryMap& summaries);

}  // namespace lisa::staticcheck
