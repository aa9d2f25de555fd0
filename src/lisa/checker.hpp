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

#include <string>
#include <vector>

#include "lisa/contract.hpp"
#include "minilang/ast.hpp"
#include "obs/provenance.hpp"
#include "staticcheck/screener.hpp"
#include "support/budget.hpp"

namespace lisa::core {

// The report types live in obs (obs/provenance.hpp), so a ledger capture
// can hold its contract's report; the checker's callers name them here.
using obs::ContractCheckReport;
using obs::DynamicReport;
using obs::path_verdict_from_name;
using obs::path_verdict_name;
using obs::PathReport;
using obs::PathVerdict;

struct CheckOptions {
  bool run_concolic = true;
  bool prune_irrelevant = true;   // §3.2 relevant-variable branch pruning
  std::size_t max_paths = 4096;
  std::size_t max_tests_per_contract = 8;
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
  /// path's π ∧ ¬P query, concolic hits, budget charges, a narrated
  /// counterexample for violated contracts, and the report itself.
  /// nullptr = zero-cost (the check output is byte-identical to an
  /// uncaptured run).
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
