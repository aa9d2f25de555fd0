#include "lisa/journal.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <optional>

#include "support/jsonl.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

namespace lisa::core {

using support::Json;

namespace {

/// The report as a capture embeds it: to_json() without the screen's
/// elapsed time, because ledger lines carry no timings.
Json embedded_report(const ContractCheckReport& report) {
  Json json = report.to_json();
  if (json.has("screen")) json.as_object().at("screen").as_object().erase("elapsed_ms");
  return json;
}

/// The report `contract` replays from its capture in the previous run's
/// ledger: the capture is conclusive and embeds a conclusive report of the
/// same contract with the capture's pass/fail outcome, and both carry
/// `slice_fp`, the contract's slice fingerprint on this program. The
/// outcome check keeps a corrupted count in the report from replaying as a
/// pass. nullopt = check the contract again.
std::optional<ContractCheckReport> replayable(const obs::ContractCapture* capture,
                                              const SemanticContract& contract,
                                              const std::string& slice_fp) {
  if (capture == nullptr || !capture->conclusive || capture->slice_fp != slice_fp)
    return std::nullopt;
  ContractCheckReport report = ContractCheckReport::from_json(capture->report);
  if (report.contract_id != contract.id || !report.conclusive() ||
      report.passed() != capture->passed || report.slice_fp != slice_fp)
    return std::nullopt;
  return report;
}

}  // namespace

CheckedContracts check_contracts(const staticcheck::Screener& analysis,
                                 const std::vector<const SemanticContract*>& contracts,
                                 const CheckOptions& options, const RunOptions& run_options,
                                 const std::string& inputs) {
  obs::ProvenanceLedger* ledger = run_options.ledger;
  CheckOptions contract_options = options;
  contract_options.ledger = ledger;
  const Checker checker;
  CheckedContracts checked;
  checked.reports.reserve(contracts.size());
  if (ledger == nullptr) {
    for (const SemanticContract* contract : contracts)
      checked.reports.push_back(checker.check(analysis, *contract, contract_options));
    return checked;
  }
  ledger->bind(inputs);
  const std::string& journal = run_options.journal_path;
  obs::ProvenanceLedger previous;
  if (run_options.resume) {
    if (previous.load_jsonl(journal))
      support::log(support::LogLevel::info, "journal ", journal, ": loaded ", previous.size(),
                   " capture(s)");
    else if (std::ifstream(journal).peek() != std::ifstream::traits_type::eof())
      support::log(support::LogLevel::warn, "journal ", journal,
                   " is not a provenance ledger; checking every contract");
  }
  bool journaling = !journal.empty();
  if (journaling && !ledger->start_jsonl(journal)) {
    support::log(support::LogLevel::warn, "journal ", journal,
                 " cannot be opened for writing; checkpointing disabled");
    journaling = false;
  }
  for (const SemanticContract* contract : contracts) {
    const std::string slice_fp =
        contract_slice_fingerprint(analysis.slicer(), *contract, options.run_concolic);
    // Per-contract resume: an edit only re-checks the contracts whose verdict
    // cone contains it; inconclusive entries are always re-checked.
    const obs::ContractCapture* prior = previous.find(contract->id);
    if (std::optional<ContractCheckReport> replayed = replayable(prior, *contract, slice_fp)) {
      *ledger->capture_for(contract->id) = *prior;
      checked.reports.push_back(std::move(*replayed));
      ++checked.resumed;
    } else {
      ContractCheckReport report = checker.check(analysis, *contract, contract_options);
      report.slice_fp = slice_fp;
      obs::ContractCapture* capture = ledger->capture_for(contract->id);
      capture->slice_fp = slice_fp;
      capture->report = embedded_report(report);
      checked.reports.push_back(std::move(report));
    }
    if (journaling) ledger->append_jsonl(journal, contract->id);
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
