#include "lisa/journal.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>

#include "support/jsonl.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

namespace lisa::core {

using support::Json;

namespace {

constexpr const char* kJournalKind = "lisa-check";
constexpr std::int64_t kJournalVersion = 1;

}  // namespace

bool CheckJournal::load(const std::string& expected_fingerprint) {
  entries_.clear();
  const support::JsonlRead read = support::read_jsonl(
      path_, kJournalKind, kJournalVersion, expected_fingerprint, [this](const Json& line) {
        ContractCheckReport report = ContractCheckReport::from_json(line);
        if (report.contract_id.empty()) return false;
        entries_[report.contract_id] = std::move(report);
        return true;
      });
  if (!read.matched) {
    if (read.found)
      support::log(support::LogLevel::warn, "journal ", path_,
                   " does not match this run's inputs; starting fresh");
    return false;
  }
  if (read.dropped > 0)
    support::log(support::LogLevel::warn, "journal ", path_, ": dropped ", read.dropped,
                 " unreadable entr(ies)");
  support::log(support::LogLevel::info, "journal ", path_, ": loaded ",
               entries_.size(), " checkpointed report(s)");
  return true;
}

bool CheckJournal::begin(const std::string& fingerprint) {
  std::ofstream out(path_, std::ios::trunc);
  if (!out) {
    support::log(support::LogLevel::warn, "journal ", path_,
                 " cannot be opened for writing; checkpointing disabled");
    writable_ = false;
    return false;
  }
  out << support::jsonl_header(kJournalKind, kJournalVersion, fingerprint) << "\n";
  writable_ = static_cast<bool>(out);
  return writable_;
}

void CheckJournal::record(const ContractCheckReport& report) {
  if (!writable_ || path_.empty()) return;
  std::ofstream out(path_, std::ios::app);
  if (!out) return;
  out << report.to_json().dump() << "\n";
  out.flush();
}

const ContractCheckReport* CheckJournal::find(const std::string& contract_id) const {
  const auto it = entries_.find(contract_id);
  return it == entries_.end() ? nullptr : &it->second;
}

const ContractCheckReport* CheckJournal::replayable(const SemanticContract& contract,
                                                    const staticcheck::Screener& analysis,
                                                    bool run_concolic) const {
  const ContractCheckReport* checkpointed = find(contract.id);
  if (checkpointed == nullptr || !checkpointed->conclusive() || checkpointed->slice_fp.empty())
    return nullptr;
  return checkpointed->slice_fp ==
                 contract_slice_fingerprint(analysis.slicer(), contract, run_concolic)
             ? checkpointed
             : nullptr;
}

CheckedContracts check_contracts(const staticcheck::Screener& analysis,
                                 const std::vector<const SemanticContract*>& contracts,
                                 const CheckOptions& options, const RunOptions& run_options,
                                 const std::string& inputs) {
  if (run_options.ledger != nullptr) run_options.ledger->bind(inputs);
  CheckJournal journal(run_options.journal_path);
  const bool journaling = !run_options.journal_path.empty();
  if (journaling) {
    if (run_options.resume) (void)journal.load("");
    journal.begin(support::fnv1a_fingerprint(inputs));
  }
  CheckOptions contract_options = options;
  contract_options.ledger = run_options.ledger;
  contract_options.compute_slice_fp = run_options.names_inputs();
  const Checker checker;
  CheckedContracts checked;
  checked.reports.reserve(contracts.size());
  for (const SemanticContract* contract : contracts) {
    // Per-entry resume: an edit only re-checks the contracts whose verdict
    // cone contains it; inconclusive entries are always re-checked.
    if (const ContractCheckReport* checkpointed =
            journal.replayable(*contract, analysis, options.run_concolic)) {
      checked.reports.push_back(*checkpointed);
      ++checked.resumed;
    } else {
      checked.reports.push_back(checker.check(analysis, *contract, contract_options));
    }
    if (journaling) journal.record(checked.reports.back());
  }
  return checked;
}

RunTotals tally(const std::vector<ContractCheckReport>& reports) {
  RunTotals totals;
  for (const ContractCheckReport& report : reports) {
    if (report.screen_verdict == "proved-safe")
      ++totals.proved_safe;
    else if (report.screen_verdict == "proved-violated")
      ++totals.proved_violated;
    else if (!report.screen_verdict.empty())
      ++totals.unknown;
    if (report.screen_skipped_concolic) ++totals.concolic_skipped;
    if (!report.conclusive()) ++totals.inconclusive;
    if (report.schedules_explored > 0 || !report.schedule_conclusive) {
      ++totals.schedule_contracts;
      totals.schedules_explored += report.schedules_explored;
      if (!report.schedule_conclusive) ++totals.schedule_inconclusive;
    }
  }
  return totals;
}

obs::RunRecord history_record(std::string kind, std::string label,
                              const std::vector<ContractCheckReport>& reports,
                              const RunTotals& totals, double summary_ms,
                              const obs::ProvenanceLedger& ledger) {
  obs::RunRecord record;
  record.kind = std::move(kind);
  record.label = std::move(label);
  record.input_fingerprint = ledger.run_fingerprint();
  std::int64_t total_smt_queries = 0;
  std::vector<std::string> smt_digests;
  for (const ContractCheckReport& report : reports) {
    obs::ContractOutcome outcome;
    outcome.passed = report.passed();
    outcome.conclusive = report.conclusive();
    outcome.verdict = !outcome.conclusive ? "inconclusive"
                      : outcome.passed    ? "passed"
                                          : "violated";
    outcome.signature_digest = support::fnv1a_fingerprint(report.verdict_signature());
    outcome.slice_fp = report.slice_fp;
    if (const obs::ContractCapture* capture = ledger.find(report.contract_id)) {
      outcome.smt_queries = static_cast<std::int64_t>(capture->smt_queries.size());
      for (const obs::SmtQueryEvidence& query : capture->smt_queries)
        smt_digests.push_back(query.digest);
    }
    total_smt_queries += outcome.smt_queries;
    record.contracts[report.contract_id] = std::move(outcome);
  }
  if (!smt_digests.empty()) {
    std::sort(smt_digests.begin(), smt_digests.end());
    record.smt_digest = support::fnv1a_fingerprint(support::join(smt_digests, "\n") + "\n");
  }
  record.metrics["summary_ms"] = summary_ms;
  record.metrics["settled_fraction"] = totals.settled_fraction();
  record.metrics["smt_queries"] = static_cast<double>(total_smt_queries);
  record.metrics["contracts"] = static_cast<double>(reports.size());
  record.metrics["inconclusive"] = static_cast<double>(totals.inconclusive);
  // Interleaving coverage: `lisa trends` and the interleaving-conclusive-drop
  // drift rule watch these to catch schedule exploration that quietly stops
  // concluding — including exploration cut before its first schedule.
  if (totals.schedule_contracts > 0) {
    record.metrics["schedules_explored"] = static_cast<double>(totals.schedules_explored);
    record.metrics["interleaving_conclusive_fraction"] =
        totals.interleaving_conclusive_fraction();
  }
  return record;
}

}  // namespace lisa::core
