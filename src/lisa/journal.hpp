// The bookkeeping `lisa check` (Pipeline::run) and `lisa gate`
// (CiGate::evaluate) share around Checker::check: the contract loop with its
// resume, the run's totals, and its history record.
//
// Resume: crash-safe checkpointing for long checking runs.
//
// A governed run (deadline, query budget) can be cut off mid-corpus — by
// its own budget, a CI timeout, or a crash. `--journal <file>` makes the
// work durable at contract granularity: the run writes its provenance
// ledger (obs/provenance.hpp) to the file as it goes, one capture line per
// finished contract, each holding the contract's report and the digest of
// its line. A resumed run (`lisa check --resume`, `lisa gate --resume`)
// loads the previous run's file and replays a contract instead of
// re-checking it when its capture is intact (the digest still matches)
// and its report is conclusive, names the contract, and carries the slice
// fingerprint (staticcheck/slice.hpp) the contract has on the current
// program — a one-function edit then re-checks only the contracts whose
// verdict cone contains it. The replayed capture goes into this run's
// ledger unchanged. Inconclusive entries (budget-refused paths, degraded
// replays) are deliberately *not* reused — resuming is the second chance to
// settle them. A torn final line (crash mid-append) is dropped; everything
// before it survives. A file of another kind or version is ignored with a
// warning, and every contract is checked.
#pragma once

#include <string>
#include <vector>

#include "lisa/checker.hpp"
#include "obs/history.hpp"

namespace lisa::core {

/// Per-run options `lisa check` and `lisa gate` share. The defaults cost
/// nothing: no inputs string, no slice fingerprint, no capture, and output
/// byte-identical to a run without them.
struct RunOptions {
  /// Ledger file the run writes as it goes and a resumed run reads (the
  /// JSONL form of obs/provenance.hpp). Empty = none.
  std::string journal_path;
  /// Replay conclusive reports from the journal whose slice fingerprint
  /// still matches instead of re-checking; inconclusive entries are
  /// re-checked.
  bool resume = false;
  /// Verdict provenance (obs/provenance.hpp): when set, the run binds the
  /// ledger to its inputs and every checked contract captures its full
  /// evidence chain, its slice fingerprint and its report (the pipeline
  /// adds the inference proposal's retry history). nullptr = zero-cost.
  obs::ProvenanceLedger* ledger = nullptr;
  /// Longitudinal observability (obs/history.hpp): when set, the run appends
  /// one RunRecord (history_record below, plus the run's own timings) to
  /// this file. Empty = zero-cost, byte-identical output.
  std::string history_path;

  /// These options, with `local` as the ledger when there is none but the
  /// run needs one: the journal is a ledger file, and the history record
  /// reads per-contract SMT evidence, which only a ledger captures (and
  /// capture is output-neutral).
  [[nodiscard]] RunOptions with_ledger(obs::ProvenanceLedger& local) const {
    RunOptions run = *this;
    if (ledger == nullptr && (!journal_path.empty() || !history_path.empty()))
      run.ledger = &local;
    return run;
  }
};

/// One run's reports and how many of them were replayed from the journal.
struct CheckedContracts {
  std::vector<ContractCheckReport> reports;  // one per contract, in order
  int resumed = 0;
};

/// Checks `contracts` in order against the program `analysis` was built
/// for. With a ledger, binds it to `inputs`, stamps each report (and the
/// copy its capture holds) with the contract's slice fingerprint, writes
/// the ledger to the journal as it goes, and on resume replays each
/// contract the previous journal settled (see the file comment). Without
/// one, `inputs` is not read and no fingerprint is computed.
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
