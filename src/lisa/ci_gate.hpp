// CI/CD enforcement — "every failure, once fixed, automatically becomes an
// executable contract that shields the system from ever repeating the same
// mistake" (§1).
//
// The ContractStore accumulates contracts as incidents are fixed; the CiGate
// evaluates every stored contract against each proposed commit and blocks
// commits that reintroduce a violated semantics.
#pragma once

#include <string>
#include <vector>

#include "lisa/checker.hpp"
#include "lisa/contract.hpp"
#include "obs/history.hpp"

namespace lisa::core {

/// Durable store of contracts learned from past incidents.
class ContractStore {
 public:
  void add(SemanticContract contract);
  void add_all(std::vector<SemanticContract> contracts);

  [[nodiscard]] const std::vector<SemanticContract>& all() const { return contracts_; }
  [[nodiscard]] std::size_t size() const { return contracts_.size(); }

  /// Serialization for persistence across "CI runs".
  [[nodiscard]] support::Json to_json() const;
  [[nodiscard]] static ContractStore from_json(const support::Json& json);

 private:
  std::vector<SemanticContract> contracts_;
};

/// Per-evaluation knobs: checkpointing and resume (lisa/journal.hpp).
struct GateRunOptions {
  std::string journal_path;  // empty = no checkpointing
  bool resume = false;       // reuse conclusive journaled reports
  /// Verdict provenance (obs/provenance.hpp): when set, the evaluation binds
  /// the ledger to (source, stored contract ids) — the same inputs as the
  /// checkpoint journal — and every evaluated contract captures its full
  /// evidence chain. nullptr = zero-cost.
  obs::ProvenanceLedger* ledger = nullptr;
  /// Longitudinal observability (obs/history.hpp): when set, the evaluation
  /// loads this run-history file, runs the drift rules against the trailing
  /// baseline window, and appends one RunRecord for this run. Findings whose
  /// `fails_gate` is set block the commit with a narrated cause. Empty =
  /// zero-cost, byte-identical output.
  std::string history_path;
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
  // Screened-vs-explored accounting (see CheckOptions::static_screen):
  int screened_settled = 0;   // contracts decided without concolic ambiguity
  int screened_unknown = 0;   // contracts that needed the full check
  int concolic_skipped = 0;   // replays the screener made unnecessary
  double summary_ms = 0.0;    // the commit's summary computation (once per evaluation)
  // Resource governance: contracts whose check was cut short (budget, fault
  // injection). An inconclusive contract never blocks the commit on its own
  // — but it never silently passes either: `needs_attention` flags it.
  int inconclusive_contracts = 0;
  bool needs_attention = false;
  /// Contracts replayed from the checkpoint journal instead of re-checked.
  int resumed_contracts = 0;
  /// Schedule-exploration accounting (interleaving contracts with atomic /
  /// eventually patterns): contracts the explorer decided, total
  /// interleavings run, and contracts whose exploration stayed inconclusive.
  /// All zero when no stored contract routes to the explorer.
  int schedule_contracts = 0;
  int schedules_explored = 0;
  int schedule_inconclusive = 0;
  /// Longitudinal drift findings (only populated when GateRunOptions names a
  /// history file). A finding with `fails_gate` blocks the commit; the rest
  /// set `needs_attention`.
  std::vector<obs::DriftFinding> drift_findings;
  /// Baseline runs the drift rules compared against; -1 = history disabled
  /// (the sentinel keeps to_json() byte-identical to pre-history output).
  int baseline_runs = -1;

  /// Fraction of screened contracts the screener settled (1.0 when no
  /// contract was screened).
  [[nodiscard]] double settled_fraction() const {
    const int total = screened_settled + screened_unknown;
    return total == 0 ? 1.0 : static_cast<double>(screened_settled) / total;
  }

  /// Fraction of schedule-explored contracts whose exploration drained the
  /// reduced interleaving space (1.0 when none was explored).
  [[nodiscard]] double interleaving_conclusive_fraction() const {
    return schedule_contracts == 0
               ? 1.0
               : static_cast<double>(schedule_contracts - schedule_inconclusive) /
                     schedule_contracts;
  }

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
