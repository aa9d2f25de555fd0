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
// The header fingerprint records the (case, source) the journal was written
// against. Callers that demand identical inputs pass it to load(); the
// pipeline and gate instead load any compatible journal (empty expected
// fingerprint) and decide replay per entry by matching each report's
// slice fingerprint (staticcheck/slice.hpp) against the current program —
// a one-function edit then re-checks only the contracts whose verdict cone
// contains it. A torn final line (crash mid-append) is dropped; everything
// before it survives.
//
// The pipeline and the gate share the per-run bookkeeping around the
// journal through this header: the per-entry resume test
// (CheckJournal::replayable) and the history record's per-contract outcomes
// (record_outcomes).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lisa/checker.hpp"
#include "obs/history.hpp"

namespace lisa::core {

class CheckJournal {
 public:
  explicit CheckJournal(std::string path) : path_(std::move(path)) {}

  /// Stable content fingerprint over the journal's identifying inputs
  /// (e.g. case id + source text, or store ids + source text).
  [[nodiscard]] static std::string fingerprint(const std::string& inputs);

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
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  bool writable_ = false;
  std::map<std::string, ContractCheckReport> entries_;
};

/// Fills the history record's per-contract outcomes and SMT digest from
/// `reports` and the SMT evidence `ledger` captured for them; returns the
/// run's total SMT query count.
std::int64_t record_outcomes(const std::vector<ContractCheckReport>& reports,
                             const obs::ProvenanceLedger& ledger, obs::RunRecord& record);

}  // namespace lisa::core
