// The bookkeeping `lisa check` (Pipeline::run) and `lisa gate`
// (CiGate::evaluate) share around Checker::check: the contract loop with its
// checkpoint journal, the run's totals, and its history record.
//
// Checkpoint journal: crash-safe resume for long checking runs.
//
// A governed run (deadline, query budget) can be cut off mid-corpus — by
// its own budget, a CI timeout, or a crash. The journal makes the work
// durable at contract granularity: every finished ContractCheckReport is
// appended as one JSONL line, and a resumed run (`lisa check --resume`,
// `lisa gate --resume`) replays conclusive entries from the journal instead
// of re-checking them. Inconclusive entries (budget-refused paths, degraded
// replays) are deliberately *not* reused — resuming is the second chance to
// settle them.
//
// Format (one JSON document per line):
//   {"journal":"lisa-check","version":1,"fingerprint":"<hex>"}
//   {<ContractCheckReport::to_json()>}
//   ...
//
// The header fingerprint records the inputs the journal was written
// against. Callers that demand identical inputs pass it to load();
// check_contracts, the journal's only user, instead loads any compatible
// journal (empty expected fingerprint) and decides replay per entry by
// matching each report's slice fingerprint (staticcheck/slice.hpp) against
// the current program — a one-function edit then re-checks only the
// contracts whose verdict cone contains it. A torn final line (crash
// mid-append) is dropped; everything before it survives.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "lisa/checker.hpp"
#include "obs/history.hpp"

namespace lisa::core {

/// Per-run options `lisa check` and `lisa gate` share. The defaults cost
/// nothing: no inputs string, no fingerprint, no slice fingerprint, and
/// output byte-identical to a run without them.
struct RunOptions {
  /// JSONL checkpoint journal (CheckJournal below). Empty = no journal.
  std::string journal_path;
  /// Replay conclusive journaled reports whose slice fingerprint still
  /// matches instead of re-checking; inconclusive entries are re-checked.
  bool resume = false;
  /// Verdict provenance (obs/provenance.hpp): when set, the run binds the
  /// ledger to its inputs and every checked contract captures its full
  /// evidence chain (the pipeline adds the inference proposal's retry
  /// history). nullptr = zero-cost.
  obs::ProvenanceLedger* ledger = nullptr;
  /// Longitudinal observability (obs/history.hpp): when set, the run appends
  /// one RunRecord (history_record below, plus the run's own timings) to
  /// this file. Empty = zero-cost, byte-identical output.
  std::string history_path;

  /// True when the run journals or captures provenance: only then does it
  /// need the string naming its inputs (check_contracts).
  [[nodiscard]] bool names_inputs() const { return !journal_path.empty() || ledger != nullptr; }

  /// These options, with `local` as the ledger when there is none but the
  /// history record needs one: it reads per-contract SMT evidence, which
  /// only a ledger captures (and capture is output-neutral).
  [[nodiscard]] RunOptions with_history_ledger(obs::ProvenanceLedger& local) const {
    RunOptions run = *this;
    if (!history_path.empty() && ledger == nullptr) run.ledger = &local;
    return run;
  }
};

class CheckJournal {
 public:
  explicit CheckJournal(std::string path) : path_(std::move(path)) {}

  /// Loads an existing journal. Returns true iff the file exists, its
  /// header matches `expected_fingerprint` (empty = accept any journal of
  /// this kind/version), and at least the header parsed. Entries with
  /// unparseable lines (torn tail) are skipped with a warning.
  [[nodiscard]] bool load(const std::string& expected_fingerprint);

  /// Starts a fresh journal: truncates the file and writes the header.
  /// Returns false (and disables recording) when the file cannot be opened.
  bool begin(const std::string& fingerprint);

  /// Appends one finished report and flushes, so a crash right after loses
  /// nothing. No-op when the journal is disabled (begin failed / no path).
  void record(const ContractCheckReport& report);

  /// The journaled report for `contract_id`, or nullptr. Loaded entries
  /// only — records written this run are not replayed back.
  [[nodiscard]] const ContractCheckReport* find(const std::string& contract_id) const;

  /// The loaded report resume replays for `contract`: a conclusive entry
  /// whose slice fingerprint still matches the program `analysis` was built
  /// for. nullptr = check the contract again.
  [[nodiscard]] const ContractCheckReport* replayable(const SemanticContract& contract,
                                                      const staticcheck::Screener& analysis,
                                                      bool run_concolic) const;

  [[nodiscard]] std::size_t loaded_entries() const { return entries_.size(); }

 private:
  std::string path_;
  bool writable_ = false;
  std::map<std::string, ContractCheckReport> entries_;
};

/// One run's reports and how many of them were replayed from the journal.
struct CheckedContracts {
  std::vector<ContractCheckReport> reports;  // one per contract, in order
  int resumed = 0;
};

/// Checks `contracts` in order against the program `analysis` was built for,
/// binding the run's ledger to `inputs` and journaling under their
/// fingerprint: on resume each contract with a replayable entry is replayed
/// instead of checked. `inputs` is read, and slice fingerprints computed,
/// only when run_options.names_inputs().
[[nodiscard]] CheckedContracts check_contracts(
    const staticcheck::Screener& analysis, const std::vector<const SemanticContract*>& contracts,
    const CheckOptions& options, const RunOptions& run_options, const std::string& inputs);

/// Counts over one run's reports. The gate decision, the pipeline result,
/// their markdown and their history records all read these.
struct RunTotals {
  int proved_safe = 0;
  int proved_violated = 0;
  int unknown = 0;           // screened, but fell through to the full check
  int concolic_skipped = 0;  // replays the screener made unnecessary
  int inconclusive = 0;      // reports cut short by a budget or a fault
  /// Contracts that went to the schedule explorer (it ran a schedule, or it
  /// was cut before its first one), the interleavings it ran, and the
  /// contracts whose reduced interleaving space it did not drain.
  int schedule_contracts = 0;
  int schedules_explored = 0;
  int schedule_inconclusive = 0;

  [[nodiscard]] int settled() const { return proved_safe + proved_violated; }
  [[nodiscard]] int screened() const { return settled() + unknown; }
  /// Fraction of screened contracts the screener settled (1.0 when no
  /// contract was screened).
  [[nodiscard]] double settled_fraction() const {
    return screened() == 0 ? 1.0 : static_cast<double>(settled()) / screened();
  }
  /// Fraction of explored contracts whose exploration drained the reduced
  /// interleaving space (1.0 when none was explored).
  [[nodiscard]] double interleaving_conclusive_fraction() const {
    return schedule_contracts == 0 ? 1.0
                                   : static_cast<double>(schedule_contracts -
                                                         schedule_inconclusive) /
                                         schedule_contracts;
  }
};

[[nodiscard]] RunTotals tally(const std::vector<ContractCheckReport>& reports);

/// The history record both runs write, minus each run's own timings and
/// violation count: per-contract outcomes and the SMT digest from `reports`
/// and the evidence `ledger` captured for them, the ledger's run
/// fingerprint, and the shared metrics. The interleaving metrics appear
/// whenever a contract went to the schedule explorer, so thread-free
/// records stay byte-identical.
[[nodiscard]] obs::RunRecord history_record(std::string kind, std::string label,
                                            const std::vector<ContractCheckReport>& reports,
                                            const RunTotals& totals, double summary_ms,
                                            const obs::ProvenanceLedger& ledger);

}  // namespace lisa::core
