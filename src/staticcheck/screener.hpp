// Static contract screening: prove or refute contracts before concolic
// execution (the pipeline's dominant cost).
//
// The screener combines two static sources:
//   * dataflow facts (nullness + intervals, analyses.hpp) at each target
//     statement, converted into the SMT fragment with the same variable
//     naming as smt/minilang_bridge.cpp;
//   * the guard-only execution tree (analysis/paths.cpp) — the same
//     abstraction the path checker uses, so screener verdicts never
//     contradict the checker's.
//
// Three-valued verdicts:
//   * ProvedSafe     — every enumerated entry→target path verifies
//     (π ∧ ¬P unsat) and none is unmappable. The checker's static phase
//     would report zero violations, and the concolic replay cannot fire a
//     symbolic violation, so the contract can skip concolic entirely.
//     With interprocedural summaries a second route exists: if no path
//     produced a satisfiable violation and the dataflow facts at *every*
//     target statement make ¬P unsatisfiable, unmappable paths (or the
//     absence of any path) no longer block the verdict — the facts alone
//     close the proof (see screen_state_predicate).
//   * ProvedViolated — some path has π ∧ ¬P satisfiable AND the dataflow
//     facts at the target are consistent with ¬P (the witness is not ruled
//     out by assignments the guard-only path condition cannot see). The
//     witness records the call chain and a satisfying model.
//   * Unknown        — anything else (no targets, truncation, unmappable
//     paths, or facts-refuted violations). Unknown contracts proceed to the
//     full static + concolic check; screening is purely an accelerator and
//     never changes which contracts ultimately fail.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/callgraph.hpp"
#include "analysis/paths.hpp"
#include "obs/provenance.hpp"
#include "smt/formula.hpp"
#include "staticcheck/analyses.hpp"
#include "staticcheck/dataflow.hpp"
#include "staticcheck/concurrency.hpp"
#include "staticcheck/diagnostics.hpp"
#include "staticcheck/slice.hpp"
#include "staticcheck/summaries.hpp"

namespace lisa::staticcheck {

enum class ScreenVerdict { kProvedSafe, kProvedViolated, kUnknown };

[[nodiscard]] const char* screen_verdict_name(ScreenVerdict verdict);

struct ScreenOptions {
  std::size_t max_paths = 4096;
  bool prune_irrelevant = true;  // mirror the checker's path pruning
  /// Provenance capture (obs/provenance.hpp): when active, the screener
  /// records its dataflow facts (per analysis, with source locations),
  /// function-summary evidence, and every SMT query it issues. An inert
  /// handle (the default) is the zero-cost path.
  obs::CaptureHandle capture;
};

struct ScreenResult {
  ScreenVerdict verdict = ScreenVerdict::kUnknown;
  std::size_t targets = 0;        // matched target statements
  std::size_t paths_checked = 0;  // enumerated entry→target paths
  /// For ProvedViolated: "entry -> ... -> target | model" witness line.
  std::string witness;
  /// Why the verdict was reached (diagnostic for reports and the CLI).
  std::string reason;
  /// Structural screening: lock-state diagnostics (one per blocking call
  /// reachable under a held monitor).
  std::vector<Diagnostic> diagnostics;
  /// State-predicate screening: the guard-only execution tree the screen
  /// enumerated, handed over so the checker's static phase does not
  /// enumerate it again. Empty when the screen stopped before enumerating
  /// (no condition, no target statement).
  std::optional<analysis::ExecutionTree> tree;
  double elapsed_ms = 0.0;
};

/// The per-program analysis every contract of one evaluation shares: the
/// gate, the pipeline and the composer build one per program version and
/// pass it to every Checker::check. It builds the call graph (the program's
/// structural index, which holds every CFG and statement header),
/// summaries, slicer and lock graph on first use, so an evaluation that
/// checks no contract computes nothing and one that checks many computes
/// each once. The program must outlive it. Use it from one thread at a
/// time: first use fills its caches. Not copyable or movable: the slicer
/// holds references into it.
class Screener {
 public:
  /// `use_summaries` computes interprocedural function summaries (on first
  /// use) and threads them through every dataflow query, strengthening the
  /// facts (MOD-set havoc instead of kill-everything, boundary facts, return
  /// intervals). With strong enough facts the screener can settle contracts
  /// whose execution tree alone is inconclusive: when every enumerated path
  /// either verifies or is unmappable and the facts at *every* target refute
  /// ¬P outright, the contract is proved safe without concolic replay.
  /// Disabling reproduces the PR 2 facts byte-for-byte (the ablation
  /// baseline; only tests and bench_static_screening turn it off).
  explicit Screener(const minilang::Program& program, bool use_summaries = true);
  Screener(const Screener&) = delete;
  Screener& operator=(const Screener&) = delete;

  /// Screens a state-predicate contract <condition> at `target_fragment`.
  /// `condition` uses target-function-local variable names (as produced by
  /// contract translation); null conditions return Unknown.
  [[nodiscard]] ScreenResult screen_state_predicate(const std::string& target_fragment,
                                                    const smt::FormulaPtr& condition,
                                                    const ScreenOptions& options = {}) const;

  /// Screens the no-blocking-in-sync structural rule via the path-sensitive
  /// lock-state analysis. Structural rules are fully decidable statically:
  /// the verdict is never Unknown. The options overload records lock-state
  /// diagnostics into the provenance capture.
  [[nodiscard]] ScreenResult screen_structural() const;
  [[nodiscard]] ScreenResult screen_structural(const ScreenOptions& options) const;

  /// Screens an interleaving-sensitive contract against the concurrency
  /// summaries (staticcheck/concurrency.hpp). Two patterns:
  ///   * "lock_order_acyclic" — ProvedSafe iff the global lock-acquisition
  ///     graph over the thread roots has no cycle (and no summary degraded);
  ///     a cycle is a located ProvedViolated witness.
  ///   * "guarded_field" — `target_fragment` names the field and
  ///     `condition_text` its guard as "holds(<monitor>)". ProvedSafe when
  ///     every root-reachable access holds the guard and the lock graph is
  ///     acyclic; an access without the guard is ProvedViolated; truncated
  ///     summaries or an otherwise-guarded-but-cyclic program stay Unknown.
  /// Summaries disabled → Unknown (these verdicts are interprocedural).
  [[nodiscard]] ScreenResult screen_interleaving(const std::string& pattern,
                                                 const std::string& target_fragment,
                                                 const std::string& condition_text,
                                                 const ScreenOptions& options = {}) const;

  /// Dataflow facts at `stmt` of `fn` as a formula over local names
  /// (nullness indicator variables and interval bounds). Returns kTrue when
  /// nothing is known. Exposed for tests. The capture overload additionally
  /// records each fact with its producing analysis and source location.
  [[nodiscard]] smt::FormulaPtr facts_at(const minilang::FuncDecl& fn,
                                         const minilang::Stmt* stmt) const;
  [[nodiscard]] smt::FormulaPtr facts_at(const minilang::FuncDecl& fn,
                                         const minilang::Stmt* stmt,
                                         const obs::CaptureHandle& capture) const;

  [[nodiscard]] const minilang::Program& program() const { return *program_; }
  [[nodiscard]] const analysis::CallGraph& graph() const;

  /// The interprocedural summaries, or nullptr when disabled or when their
  /// computation failed. A failure logs once and is not retried: the rest
  /// of the evaluation screens with summary-free facts.
  [[nodiscard]] const SummaryMap* summaries() const;
  /// Time the summary computation took; 0 until summaries are computed.
  [[nodiscard]] double summary_ms() const {
    return summaries_.has_value() ? summaries_->stats().elapsed_ms : 0.0;
  }

  /// The backward slicer over this program (staticcheck/slice.hpp):
  /// contract cones, slice fingerprints, per-function dependence graphs.
  [[nodiscard]] const SliceEngine& slicer() const;

  /// The lock-acquisition-order graph over the thread roots, or nullptr
  /// when summaries are unavailable.
  [[nodiscard]] const LockGraph* lock_graph() const;

 private:
  /// Slice-based irrelevance rule: true when the contract's slice shows the
  /// footprint is written only by fully literal constructions, every target
  /// sees the footprint root bound exclusively to such constructions, and
  /// each construction's field facts make ¬P unsatisfiable. Fires only as a
  /// fallback where the fact closure is consulted (empty or unmappable
  /// trees), so it can never contradict the path checker: a locally
  /// constructed root makes the contract variables unmappable, which the
  /// checker reports as unmappable rather than violated.
  [[nodiscard]] bool slice_closure_refutes(const std::string& target_fragment,
                                           const smt::FormulaPtr& condition,
                                           const ScreenOptions& options,
                                           obs::PhasedSmtCapture& smt_capture) const;

  const minilang::Program* program_;
  mutable std::optional<analysis::CallGraph> graph_;
  /// True until the first summaries() call decides whether they exist.
  mutable bool summaries_pending_;
  mutable std::optional<SummaryMap> summaries_;
  mutable std::optional<SliceEngine> slicer_;
  mutable std::optional<LockGraph> lock_graph_;
};

}  // namespace lisa::staticcheck
