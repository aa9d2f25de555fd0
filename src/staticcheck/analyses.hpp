// Concrete dataflow analyses — lattice instances for dataflow.hpp.
//
// Four analyses, each a forward problem over the per-function CFG:
//   * NullnessAnalysis: tracks {null, non-null, unknown} per access path;
//     guard refinement (`p == null` arms) and `new`-literal defaults feed
//     the facts; definite null dereferences are errors.
//   * DefiniteAssignmentAnalysis: tracks which fields of locally
//     constructed objects (`let x = new T {...}`) have been assigned; a
//     read of a never-assigned field gets its default value, which is
//     usually an accident.
//   * LockStateAnalysis: tracks monitor depth through `sync` blocks
//     path-sensitively and flags calls that (transitively) block while a
//     monitor is held — the no-blocking-in-sync rule the lock-state screen
//     (Screener::screen_structural) applies to structural contracts.
//   * IntervalAnalysis: integer intervals with constant propagation and
//     guard clamping; proves integer guards and flags branch conditions
//     that are always true/false.
//
// All four share conservative aliasing rules: a write to `a.f` kills facts
// about any path mentioning field `f`, and a call kills facts about every
// heap path (locals survive — MiniLang callees cannot rebind caller
// locals). The screener composes the nullness/interval lattices with
// boolean facts into one product state (screener.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/callgraph.hpp"
#include "staticcheck/dataflow.hpp"
#include "staticcheck/diagnostics.hpp"

namespace lisa::staticcheck {

class SummaryMap;  // summaries.hpp; analyses only need the pointer

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// True if any expression reachable from `expr` is a call.
[[nodiscard]] bool contains_call(const minilang::Expr& expr);

/// Access paths whose facts must die when `written` is assigned: the path
/// itself, any extension of it, and (for field writes) any path mentioning
/// the written field name — the conservative aliasing rule.
[[nodiscard]] bool write_kills(const std::string& written, const std::string& fact_path);

/// True if `path` has a field segment equal to `field` anywhere past the
/// root variable ("s.closed" mentions "closed").
[[nodiscard]] bool mentions_field(const std::string& path, const std::string& field);

/// Appends every call expression reachable from `expr` (itself included) to
/// `out`, in pre-order.
void collect_calls(const minilang::Expr& expr, std::vector<const minilang::Expr*>& out);

/// Applies `visit` to every statement-level expression of a CFG node
/// (condition, initializer, lvalue, rhs), skipping nulls.
void for_each_node_expr(const CfgNode& node,
                        const std::function<void(const minilang::Expr&)>& visit);

// ---------------------------------------------------------------------------
// Nullness
// ---------------------------------------------------------------------------

enum class NullFact { kNull, kNonNull };

class NullnessAnalysis {
 public:
  /// Facts per access path; absence means "unknown".
  using State = std::map<std::string, NullFact>;

  /// `summaries` refines call handling (MOD-set havoc, return nullability,
  /// param transfer facts); nullptr keeps the legacy havoc-everything rule.
  explicit NullnessAnalysis(const minilang::Program& program,
                            const SummaryMap* summaries = nullptr)
      : program_(&program), summaries_(summaries) {}

  [[nodiscard]] State boundary(const Cfg& cfg) const;
  bool join(State& into, const State& from) const;
  void transfer(const CfgNode& node, State& state) const;
  void refine(const minilang::Expr& guard, bool taken, State& state) const;
  void edge_effect(const CfgEdge& edge, State& state) const {
    (void)edge;
    (void)state;
  }
  void widen(State& state) const { (void)state; }

  /// Post-pass: definite null dereferences in `cfg` given the fixpoint
  /// entry states (indexed by node id).
  void report(const Cfg& cfg, const std::vector<State>& in,
              const std::vector<bool>& reached, std::vector<Diagnostic>& out) const;

 private:
  void assign(const std::string& written, const minilang::Expr* rhs, State& state) const;
  void apply_call_effects(const CfgNode& node, State& state) const;
  const minilang::Program* program_;
  const SummaryMap* summaries_ = nullptr;
};

// ---------------------------------------------------------------------------
// Definite assignment (of constructed-object fields)
// ---------------------------------------------------------------------------

class DefiniteAssignmentAnalysis {
 public:
  struct Tracked {
    std::set<std::string> unassigned;  // fields never assigned so far
    bool operator==(const Tracked& other) const { return unassigned == other.unassigned; }
  };
  /// Locals bound to a `new` literal → their not-yet-assigned fields.
  using State = std::map<std::string, Tracked>;

  /// With `summaries`, an argument escapes only when the callee may write
  /// through that parameter; without, any call kills the tracking.
  explicit DefiniteAssignmentAnalysis(const minilang::Program& program,
                                      const SummaryMap* summaries = nullptr)
      : program_(&program), summaries_(summaries) {}

  [[nodiscard]] State boundary(const Cfg& cfg) const;
  bool join(State& into, const State& from) const;
  void transfer(const CfgNode& node, State& state) const;
  void refine(const minilang::Expr& guard, bool taken, State& state) const {
    (void)guard;
    (void)taken;
    (void)state;
  }
  void edge_effect(const CfgEdge& edge, State& state) const {
    (void)edge;
    (void)state;
  }
  void widen(State& state) const { (void)state; }

  void report(const Cfg& cfg, const std::vector<State>& in,
              const std::vector<bool>& reached, std::vector<Diagnostic>& out) const;

 private:
  const minilang::Program* program_;
  const SummaryMap* summaries_ = nullptr;
};

// ---------------------------------------------------------------------------
// Lock state
// ---------------------------------------------------------------------------

class LockStateAnalysis {
 public:
  struct State {
    int depth = 0;                    // monitors currently held (max over paths)
    std::vector<std::string> monitors;  // rendered monitor expressions, inner last
    bool operator==(const State& other) const {
      return depth == other.depth && monitors == other.monitors;
    }
  };

  /// With `summaries`, calls apply the callee's *net monitor effect* and
  /// blocking checks use the CFG-reachable `may_block` bit; without, calls
  /// are monitor-neutral and blocking falls back to `reaches_blocking`.
  LockStateAnalysis(const minilang::Program& program, const analysis::CallGraph& graph,
                    const SummaryMap* summaries = nullptr)
      : program_(&program), graph_(&graph), summaries_(summaries) {}

  [[nodiscard]] State boundary(const Cfg& cfg) const;
  bool join(State& into, const State& from) const;
  void transfer(const CfgNode& node, State& state) const;
  void refine(const minilang::Expr& guard, bool taken, State& state) const {
    (void)guard;
    (void)taken;
    (void)state;
  }
  /// Exception edges unwinding out of sync blocks release their monitors.
  void edge_effect(const CfgEdge& edge, State& state) const {
    for (int i = 0; i < edge.sync_unwind && state.depth > 0; ++i) {
      --state.depth;
      if (!state.monitors.empty()) state.monitors.pop_back();
    }
  }
  void widen(State& state) const { (void)state; }

  /// Blocking calls while a monitor may be held. Mirrors the structural
  /// rule's exemption for @test functions.
  void report(const Cfg& cfg, const std::vector<State>& in,
              const std::vector<bool>& reached, std::vector<Diagnostic>& out) const;

 private:
  [[nodiscard]] bool call_may_block(const std::string& callee) const;
  const minilang::Program* program_;
  const analysis::CallGraph* graph_;
  const SummaryMap* summaries_ = nullptr;
};

// ---------------------------------------------------------------------------
// Intervals / constant propagation
// ---------------------------------------------------------------------------

struct Interval {
  static constexpr std::int64_t kMin = INT64_MIN;
  static constexpr std::int64_t kMax = INT64_MAX;
  std::int64_t lo = kMin;
  std::int64_t hi = kMax;

  [[nodiscard]] static Interval constant(std::int64_t v) { return {v, v}; }
  [[nodiscard]] bool is_constant() const { return lo == hi; }
  [[nodiscard]] bool unbounded() const { return lo == kMin && hi == kMax; }
  [[nodiscard]] bool empty() const { return lo > hi; }
  bool operator==(const Interval& other) const { return lo == other.lo && hi == other.hi; }
};

class IntervalAnalysis {
 public:
  /// Interval per access path; absence means top (no information).
  using State = std::map<std::string, Interval>;

  /// With `summaries`, a call havocs only the callee's MOD set and call
  /// expressions evaluate to the callee's return interval.
  explicit IntervalAnalysis(const minilang::Program& program,
                            const SummaryMap* summaries = nullptr)
      : program_(&program), summaries_(summaries) {}

  [[nodiscard]] State boundary(const Cfg& cfg) const;
  bool join(State& into, const State& from) const;
  void transfer(const CfgNode& node, State& state) const;
  void refine(const minilang::Expr& guard, bool taken, State& state) const;
  void edge_effect(const CfgEdge& edge, State& state) const {
    (void)edge;
    (void)state;
  }
  /// Loop-head widening: drop every tracked bound (full top). Coarse but
  /// guarantees termination; see docs/staticcheck.md.
  void widen(State& state) const { state.clear(); }

  /// Branch guards decided by the intervals: always-true / always-false
  /// conditions (dead arms).
  void report(const Cfg& cfg, const std::vector<State>& in,
              const std::vector<bool>& reached, std::vector<Diagnostic>& out) const;

  /// Evaluates an integer expression to an interval under `state`.
  [[nodiscard]] Interval eval(const minilang::Expr& expr, const State& state) const;

  /// Decides `guard` under `state`: 1 = always true, 0 = always false,
  /// -1 = undecided. Exposed for the screener.
  [[nodiscard]] int decide(const minilang::Expr& guard, const State& state) const;

 private:
  void apply_call_effects(const CfgNode& node, State& state) const;
  const minilang::Program* program_;
  const SummaryMap* summaries_ = nullptr;
};

/// Runs all four analyses over every function of `program` and collects
/// their diagnostics, sorted by (line, column, function, analysis, message)
/// and deduplicated, so output is byte-stable across runs. `include_tests`
/// controls whether @test functions are linted too (lock-state always skips
/// them). `use_summaries` computes interprocedural summaries first and
/// threads them through every analysis; off reproduces call-site havoc.
[[nodiscard]] std::vector<Diagnostic> lint_program(const minilang::Program& program,
                                                   bool include_tests = true,
                                                   bool use_summaries = true);

}  // namespace lisa::staticcheck
