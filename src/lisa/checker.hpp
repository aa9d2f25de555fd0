// Contract enforcement: static path assertion + concolic confirmation.
//
// For a state-predicate contract <P> s:
//   * STATIC: the execution tree enumerates every entry→s path; each path's
//     condition π is checked against the renamed contract — the path is
//     VIOLATED iff π ∧ ¬P is satisfiable (the trace "fulfills the complement
//     of the checker formula", §3.2, with missing checks unconstrained).
//     Paths whose contract variables cannot be expressed in entry terms are
//     UNMAPPABLE and surfaced for a developer verdict.
//   * SANITY: the paths fixed by the original patch must verify — "we want at
//     least one path in this execution tree that will give verified result".
//   * DYNAMIC: relevant @test functions are selected by embedding similarity
//     and replayed on the concolic engine, which fires the injected check at
//     every target hit; static paths never reached by any selected test are
//     reported uncovered ("either the test suite does not have enough
//     coverage, or the LLM misses the related tests").
//
// Structural contracts are decided by the path-sensitive lock-state screen,
// interleaving-sensitive ones by the lockset screen or the schedule
// explorer. `check` takes the program's shared analysis (a
// staticcheck::Screener): the caller builds one per program version, and
// every contract checked against that version reuses its call graph,
// summaries, slicer and lock graph.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lisa/contract.hpp"
#include "minilang/ast.hpp"
#include "obs/provenance.hpp"
#include "staticcheck/screener.hpp"
#include "support/budget.hpp"
#include "support/json.hpp"

namespace lisa::core {

enum class PathVerdict { kVerified, kViolated, kUnmappable, kInconclusive };

[[nodiscard]] const char* path_verdict_name(PathVerdict verdict);

/// Inverse of path_verdict_name; nullopt on an unrecognized name (ledger
/// reports written by a different build).
[[nodiscard]] std::optional<PathVerdict> path_verdict_from_name(const std::string& name);

struct PathReport {
  std::vector<std::string> call_chain;
  int target_stmt_id = -1;
  std::string target_text;
  std::string path_condition;
  std::string contract_condition;  // renamed to canonical names
  PathVerdict verdict = PathVerdict::kVerified;
  std::string counterexample;  // model of π ∧ ¬P for violated paths
  std::string detail;          // kInconclusive: why the verdict was refused
  bool covered_by_test = false;
  std::vector<std::string> covering_tests;
};

struct DynamicReport {
  std::vector<std::string> selected_tests;
  int tests_run = 0;
  int tests_passed = 0;
  int target_hits = 0;
  int symbolic_violations = 0;
  int concrete_violations = 0;
  /// Target hits whose π ∧ ¬P query came back unknown (budget or fault):
  /// neither a violation nor a confirmation.
  int inconclusive_hits = 0;
  /// Runs cut short by the step limit or an exhausted budget.
  int degraded_runs = 0;
  std::vector<std::string> violation_details;
};

struct ContractCheckReport {
  std::string contract_id;
  std::string target_fragment;
  std::size_t target_statements = 0;
  std::vector<PathReport> paths;
  int verified = 0;
  int violated = 0;
  int unmappable = 0;
  int inconclusive = 0;     // paths refused by budget / fault / solver unknown
  int uncovered = 0;        // static paths no selected test exercised
  std::size_t raw_paths = 0;  // before pruning/dedup (ablation metric)
  bool truncated = false;
  /// ≥1 statically verified path (the fixed path) — the paper's sanity
  /// check; also the cross-validation signal that grounds LLM output
  /// against actual system behaviour (§5).
  bool sanity_ok = false;
  DynamicReport dynamic;
  std::vector<std::string> structural_violations;  // structural contracts

  // Static screening (src/staticcheck): three-valued verdict computed before
  // the expensive phases. Empty string when screening was disabled.
  std::string screen_verdict;   // "proved-safe" | "proved-violated" | "unknown"
  std::string screen_witness;   // entry->target chain + model for refutations
  std::string screen_reason;
  double screen_ms = 0.0;
  /// True when the screener verdict made the concolic replay unnecessary.
  bool screen_skipped_concolic = false;

  /// Resource governance (support/budget.hpp): set when the attached budget
  /// latched exhausted at any point during this contract's check. The
  /// skipped work is accounted under `inconclusive` / dynamic degradation —
  /// never silently dropped.
  bool budget_exhausted = false;
  std::string budget_reason;
  /// Typed exhaustion cause ("deadline" | "smt-queries" | "paths" |
  /// "fork-points" | "steps"); empty unless budget_exhausted.
  std::string budget_resource;

  /// Schedule exploration (concolic/schedule.hpp): interleaving contracts
  /// with `atomic` / `eventually` patterns are decided by re-running every
  /// spawning @test under the cooperative scheduler, one interleaving per
  /// run. Serial replay sees exactly one schedule and is provably blind to
  /// these bugs, so the explorer's verdict is the contract's verdict.
  int schedules_explored = 0;
  /// False when the DFS could not drain the reduced schedule space within
  /// the bound (or the budget): "no violation found so far", never a pass.
  bool schedule_conclusive = true;
  int schedule_violations = 0;
  /// Compact replayable witness of the first violating interleaving
  /// (ScheduleWitness::to_compact): seed + decision list re-derive the
  /// identical trace on any later run.
  std::string schedule_witness;
  std::string schedule_inconclusive_reason;
  std::vector<std::string> schedule_violation_details;

  /// Slice fingerprint of this contract's verdict cone
  /// (staticcheck/slice.hpp): the canonical identity of everything the
  /// verdict can depend on. Resume replays a report from the previous
  /// run's ledger iff its slice_fp still matches the current program.
  /// check_contracts stamps it when the run has a ledger; empty otherwise.
  std::string slice_fp;

  /// True when the checked program satisfies the contract everywhere.
  [[nodiscard]] bool passed() const {
    return violated == 0 && structural_violations.empty() &&
           dynamic.symbolic_violations == 0 && dynamic.concrete_violations == 0 &&
           schedule_violations == 0;
  }

  /// True when every phase ran to completion: no path refused, no run
  /// degraded, no budget exhaustion. `passed() && !conclusive()` means
  /// "no violation found so far" — needs attention, not a green light.
  [[nodiscard]] bool conclusive() const {
    return !budget_exhausted && inconclusive == 0 &&
           dynamic.inconclusive_hits == 0 && dynamic.degraded_runs == 0 &&
           schedule_conclusive;
  }

  /// Canonical rendering of everything verdict-relevant — counts, per-path
  /// verdicts and counterexamples, dynamic violations, structural findings,
  /// screen verdict — excluding timings and the screen reason/witness
  /// phrasing. Two runs decided a contract identically iff their signatures
  /// are byte-identical: the equivalence oracle for incremental re-checking
  /// (bench_incremental) and resume tests.
  [[nodiscard]] std::string verdict_signature() const;

  [[nodiscard]] support::Json to_json() const;
  /// Rebuilds a report from its to_json form (resume from a ledger).
  /// Best-effort: unknown verdict names degrade to kInconclusive.
  [[nodiscard]] static ContractCheckReport from_json(const support::Json& json);
};

struct CheckOptions {
  bool run_concolic = true;
  bool prune_irrelevant = true;   // §3.2 relevant-variable branch pruning
  std::size_t max_paths = 4096;
  std::size_t max_tests_per_contract = 8;
  double min_test_score = 0.01;
  /// Override test selection: run exactly these tests (empty = use RAG
  /// selection). Used by the test-selection ablation.
  std::vector<std::string> forced_tests;
  /// Run the staticcheck screener before the expensive phases. A ProvedSafe
  /// verdict skips the concolic replay (the static tree still runs, and
  /// forced tests are always honoured); Unknown contracts proceed unchanged.
  bool static_screen = true;
  /// Additionally skip concolic replay on ProvedViolated verdicts — the
  /// static witness already fails the contract. Only bench_static_screening
  /// sets it; the CI gate gets the same effect from run_concolic = false.
  bool trust_screen_verdicts = false;
  /// Schedule-exploration bound for interleaving contracts with `atomic` /
  /// `eventually` patterns: the total number of interleavings the explorer
  /// may run across all spawning @tests before the verdict degrades to a
  /// typed inconclusive. Every run is charged to the budget's `schedules`
  /// resource when one is attached.
  int max_schedules = 2048;
  /// Cooperative resource budget shared across phases: the static loop
  /// charges paths and SMT queries, the concolic engine charges steps and
  /// fork points. Refused work surfaces as kInconclusive paths or degraded
  /// runs. nullptr = ungoverned (byte-identical to the pre-budget checker).
  support::Budget* budget = nullptr;
  /// Verdict provenance (obs/provenance.hpp): when set, the checker records
  /// the complete evidence chain — screen facts and summaries, every static
  /// path's π ∧ ¬P query, concolic hits, budget charges, and a narrated
  /// counterexample for violated contracts. nullptr = zero-cost (the check
  /// output is byte-identical to an uncaptured run).
  obs::ProvenanceLedger* ledger = nullptr;
};

/// The canonical slice request for `contract` — the single construction the
/// checker, resume, and `lisa slice` all share, so their fingerprints agree.
/// `run_concolic` must match the CheckOptions in effect: state-predicate
/// cones include @test functions iff concolic replay is on; structural and
/// interleaving cones always include them (their analyses scan every
/// function).
[[nodiscard]] staticcheck::SliceRequest contract_slice_request(
    const SemanticContract& contract, bool run_concolic);

/// The slice fingerprint check_contracts records for `contract` and that
/// resume recomputes against the current program.
[[nodiscard]] std::string contract_slice_fingerprint(const staticcheck::SliceEngine& engine,
                                                     const SemanticContract& contract,
                                                     bool run_concolic);

class Checker {
 public:
  /// Checks one contract against the program version `analysis` was built
  /// for (analysis.program()).
  [[nodiscard]] ContractCheckReport check(const staticcheck::Screener& analysis,
                                          const SemanticContract& contract,
                                          const CheckOptions& options = {}) const;
};

}  // namespace lisa::core
