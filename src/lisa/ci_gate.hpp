// CI/CD enforcement — "every failure, once fixed, automatically becomes an
// executable contract that shields the system from ever repeating the same
// mistake" (§1).
//
// The ContractStore (lisa/contract.hpp) accumulates contracts as incidents
// are fixed; the CiGate evaluates every stored contract against each
// proposed commit and blocks commits that reintroduce a violated semantics.
#pragma once

#include <string>
#include <vector>

#include "lisa/contract.hpp"
#include "lisa/journal.hpp"

namespace lisa::core {

/// Per-evaluation knobs: the run options `lisa check` shares
/// (lisa/journal.hpp), whose inputs here are the source and the stored
/// contract ids, plus the gate's own. With a history file the evaluation
/// also runs the drift rules against the trailing baseline window; findings
/// whose `fails_gate` is set block the commit with a narrated cause.
struct GateRunOptions : RunOptions {
  /// Timeline key for the baseline series; defaults to a fingerprint of the
  /// stored contract ids (so the series survives source edits).
  std::string history_label;
  /// Thresholds for the drift rules (only read when history_path is set).
  obs::DriftOptions drift;
  /// Downgrade schedule-exploration inconclusiveness (budget exhaustion,
  /// undrained DFS, injected fault) from a gate block to needs_attention
  /// (`--schedule-warn-only`). A violating interleaving always blocks; only
  /// the "could not finish exploring" outcome is downgradable.
  bool schedule_warn_only = false;
};

struct GateDecision {
  bool allowed = true;
  std::vector<std::string> violations;        // human-readable block reasons
  std::vector<ContractCheckReport> reports;   // one per contract evaluated
  double evaluation_ms = 0.0;
  double summary_ms = 0.0;    // the commit's summary computation (once per evaluation)
  /// Screening, inconclusive and schedule-exploration counts over `reports`.
  /// An inconclusive contract never blocks the commit on its own — but it
  /// never silently passes either: `needs_attention` flags it.
  RunTotals totals;
  bool needs_attention = false;
  /// Contracts replayed from the checkpoint journal instead of re-checked.
  int resumed_contracts = 0;
  /// Longitudinal drift findings (only populated when GateRunOptions names a
  /// history file). A finding with `fails_gate` blocks the commit; the rest
  /// set `needs_attention`.
  std::vector<obs::DriftFinding> drift_findings;
  /// Baseline runs the drift rules compared against; -1 = history disabled
  /// (the sentinel keeps to_json() byte-identical to pre-history output).
  int baseline_runs = -1;

  [[nodiscard]] support::Json to_json() const;
};

class CiGate {
 public:
  explicit CiGate(CheckOptions options = {}) : options_(std::move(options)) {}

  /// Evaluates a commit (a full program source) against every stored
  /// contract. A parse/check failure of the source blocks the commit too.
  [[nodiscard]] GateDecision evaluate(const std::string& source,
                                      const ContractStore& store) const;
  [[nodiscard]] GateDecision evaluate(const std::string& source, const ContractStore& store,
                                      const GateRunOptions& run_options) const;

 private:
  CheckOptions options_;
};

}  // namespace lisa::core
