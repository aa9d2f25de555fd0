// Concolic execution engine — the reproduction's WeBridge.
//
// Runs a @test function on minilang::Interp, the one execution core, as a
// shadow layer (an ExecObserver that opts into shadow callbacks; see
// shadow.hpp): Interp defines every statement, expression and builtin, and
// the engine only keeps the symbolic shadows, the path condition, the
// relevance filter and the checks. It collects a symbolic path condition
// over locations relevant to a semantic contract, and fires an injected
// check every time execution reaches a target statement:
//
//   1. The *trace condition* π is the conjunction of recorded branch guards
//      (only guards whose shadows touch contract-relevant fields, mirroring
//      the paper's selective branch exploration; an option disables the
//      filter for the pruning ablation).
//   2. The contract P is *instantiated* at the hit: its variable paths are
//      resolved against the live frame, naming atoms by object identity.
//   3. Per §3.2, the path VIOLATES the contract iff π ∧ ¬P is satisfiable —
//      "the trace fulfills the complement of the checker formula"; a missing
//      check is treated as an unconstrained (true) condition exactly as the
//      paper prescribes.
//   4. Independently, P is evaluated on the concrete state; a false result
//      is a concrete witness (the injected assertion actually failing).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "minilang/ast.hpp"
#include "obs/provenance.hpp"
#include "smt/formula.hpp"
#include "support/budget.hpp"

namespace lisa::concolic {

/// What to check during a run.
struct CheckConfig {
  /// Ids of the target statements, which the caller resolved with
  /// analysis::CallGraph::targets; the contract is checked at every arrival
  /// at one of them.
  std::vector<int> target_stmt_ids;
  /// Contract precondition in target-frame local names (e.g. over `s.ttl`).
  smt::FormulaPtr contract;
  /// Record only guards touching fields the contract mentions (paper's
  /// relevant-variable pruning). Disable for the ablation bench.
  bool prune_irrelevant = true;
  /// Cooperative resource budget (support/budget.hpp): the engine charges
  /// interpreter steps and recorded fork points, and its per-hit solver
  /// charges SMT queries. Exhaustion ends the run with a structured
  /// RunResult::budget_exhausted outcome. nullptr = ungoverned.
  support::Budget* budget = nullptr;
  /// Provenance capture: every per-hit π ∧ ¬P query is recorded with phase
  /// "concolic". An inert handle (the default) is the zero-cost path.
  obs::CaptureHandle capture;
};

/// One arrival at a target statement.
struct TargetHit {
  int stmt_id = -1;
  std::string function;                  // function containing the target
  std::vector<std::string> call_chain;   // test frame first, target last
  smt::FormulaPtr trace_condition;       // π over object-named atoms
  smt::FormulaPtr instantiated_contract; // P over object-named atoms
  bool instantiable = true;   // all contract paths resolved to locations
  bool concrete_violation = false;  // P false on the live concrete state
  bool symbolic_violation = false;  // sat(π ∧ ¬P): a missing-check path
  bool inconclusive = false;  // the π ∧ ¬P query came back kUnknown (budget)
  std::string witness;              // model of π ∧ ¬P when symbolically violated
  /// Structured form of `witness` (object-identity variable names), kept so
  /// the counterexample narrator can replay the model without re-parsing.
  std::map<std::string, bool> witness_bools;
  std::map<std::string, std::int64_t> witness_ints;
};

struct RunResult {
  bool test_passed = false;
  std::string failure;                 // populated when !test_passed
  /// Structured resource outcomes — distinct from test failure so the
  /// checker can account them as inconclusive rather than broken:
  bool step_limit_hit = false;         // engine fuel ran out mid-test
  bool budget_exhausted = false;       // the attached Budget cut the run off
  std::string degraded_reason;         // which resource ran out
  std::vector<TargetHit> hits;
  std::int64_t branches_total = 0;     // branch decisions executed
  std::int64_t branches_recorded = 0;  // decisions recorded into π

  /// True when any structured degradation occurred during the run.
  [[nodiscard]] bool degraded() const {
    if (step_limit_hit || budget_exhausted) return true;
    for (const TargetHit& hit : hits)
      if (hit.inconclusive) return true;
    return false;
  }
};

class Engine {
 public:
  /// `program` must outlive the engine.
  explicit Engine(const minilang::Program& program);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs `test_name` under `config`. Deterministic.
  [[nodiscard]] RunResult run_test(const std::string& test_name, const CheckConfig& config);

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace lisa::concolic
