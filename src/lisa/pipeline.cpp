#include "lisa/pipeline.hpp"

#include <algorithm>

#include "lisa/journal.hpp"
#include "minilang/sema.hpp"
#include "obs/history.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "staticcheck/screener.hpp"
#include "support/jsonl.hpp"
#include "support/log.hpp"

namespace lisa::core {

using support::Json;
using support::JsonArray;
using support::JsonObject;

bool PipelineResult::all_passed() const {
  if (inference_failed) return false;
  for (const ContractCheckReport& report : reports)
    if (!report.passed() || !report.conclusive()) return false;
  return true;
}

ScreeningSummary PipelineResult::screening() const {
  ScreeningSummary summary;
  for (const ContractCheckReport& report : reports) {
    if (report.screen_verdict == "proved-safe") ++summary.proved_safe;
    else if (report.screen_verdict == "proved-violated") ++summary.proved_violated;
    else if (report.screen_verdict == "unknown") ++summary.unknown;
    if (report.screen_skipped_concolic) ++summary.concolic_skipped;
  }
  return summary;
}

int PipelineResult::total_violations() const {
  int total = 0;
  for (const ContractCheckReport& report : reports) {
    total += report.violated;
    total += static_cast<int>(report.structural_violations.size());
    total += report.dynamic.symbolic_violations;
    total += report.schedule_violations;
  }
  return total;
}

int PipelineResult::schedules_explored() const {
  int total = 0;
  for (const ContractCheckReport& report : reports) total += report.schedules_explored;
  return total;
}

double PipelineResult::interleaving_conclusive_fraction() const {
  int explored = 0;
  int conclusive = 0;
  for (const ContractCheckReport& report : reports) {
    if (report.schedules_explored == 0 && report.schedule_conclusive) continue;
    ++explored;
    if (report.schedule_conclusive) ++conclusive;
  }
  return explored == 0 ? 1.0 : static_cast<double>(conclusive) / explored;
}

Json PipelineResult::to_json() const {
  JsonObject root;
  root["proposal"] = proposal.to_json();
  JsonArray contract_entries;
  for (const SemanticContract& contract : contracts)
    contract_entries.push_back(contract.to_json());
  root["contracts"] = Json(std::move(contract_entries));
  JsonArray rejected_entries;
  for (const std::string& entry : rejected) rejected_entries.push_back(Json(entry));
  root["rejected"] = Json(std::move(rejected_entries));
  JsonArray report_entries;
  for (const ContractCheckReport& report : reports)
    report_entries.push_back(report.to_json());
  root["reports"] = Json(std::move(report_entries));
  JsonObject timing;
  timing["infer_ms"] = timings.infer_ms;
  timing["translate_ms"] = timings.translate_ms;
  timing["check_ms"] = timings.check_ms;
  timing["screen_ms"] = timings.screen_ms;
  timing["summary_ms"] = timings.summary_ms;
  timing["total_ms"] = timings.total_ms;
  root["timings"] = Json(std::move(timing));
  const ScreeningSummary summary = screening();
  JsonObject screen;
  screen["proved_safe"] = summary.proved_safe;
  screen["proved_violated"] = summary.proved_violated;
  screen["unknown"] = summary.unknown;
  screen["settled"] = summary.settled();
  screen["settled_fraction"] = summary.settled_fraction();
  screen["concolic_skipped"] = summary.concolic_skipped;
  root["screening"] = Json(std::move(screen));
  root["all_passed"] = all_passed();
  // Present only when the schedule explorer ran, so thread-free pipeline
  // output stays byte-identical to the pre-scheduler form.
  if (schedules_explored() > 0) {
    root["schedules_explored"] = schedules_explored();
    root["interleaving_conclusive_fraction"] = interleaving_conclusive_fraction();
  }
  if (inference_attempts > 1) root["inference_attempts"] = inference_attempts;
  if (inference_failed) {
    root["inference_failed"] = true;
    root["inference_error"] = inference_error;
  }
  if (resumed_contracts > 0) root["resumed_contracts"] = resumed_contracts;
  return Json(std::move(root));
}

PipelineResult Pipeline::run(const corpus::FailureTicket& ticket,
                             const std::string& source_to_check) const {
  return run(ticket, source_to_check, PipelineRunOptions{});
}

PipelineResult Pipeline::run(const corpus::FailureTicket& ticket,
                             const std::string& source_to_check,
                             const PipelineRunOptions& run_options) const {
  PipelineResult result;
  obs::ScopedSpan run_span("pipeline.run");
  run_span.attr("case", ticket.case_id);
  // History needs per-contract SMT evidence, which only a ledger captures;
  // a history-enabled run without a caller ledger attaches a local one
  // (ledger attachment is provably output-neutral, see provenance tests).
  const bool history_enabled = !run_options.history_path.empty();
  obs::ProvenanceLedger local_ledger;
  obs::ProvenanceLedger* ledger = run_options.ledger;
  if (history_enabled && ledger == nullptr) ledger = &local_ledger;
  if (ledger != nullptr) ledger->bind(ticket.case_id + "\n" + source_to_check);

  {
    obs::ScopedSpan stage("pipeline.infer");
    inference::InferenceOutcome outcome = inference::infer_with_retry(
        [&] { return llm_.infer(ticket); }, ticket.case_id, retry_policy_);
    result.inference_attempts = outcome.attempts;
    if (ledger != nullptr) {
      // Inference provenance: how the proposal behind these contracts came
      // to be, including the retry/validation history (PR 5).
      obs::ProposalEvidence evidence;
      evidence.case_id = ticket.case_id;
      evidence.succeeded = outcome.succeeded;
      evidence.attempts = outcome.attempts;
      evidence.transient_errors = outcome.transient_errors;
      evidence.validation_failures = outcome.validation_failures;
      evidence.error = outcome.error;
      if (outcome.succeeded) {
        evidence.high_level = outcome.proposal.high_level_semantics;
        for (const inference::LowLevelSemantics& low : outcome.proposal.low_level)
          evidence.low_level.push_back(low.description);
      }
      ledger->set_proposal(std::move(evidence));
    }
    if (outcome.succeeded) {
      result.proposal = std::move(outcome.proposal);
    } else {
      result.inference_failed = true;
      result.inference_error = outcome.error;
      result.proposal.case_id = ticket.case_id;
    }
    result.timings.infer_ms = stage.elapsed_ms();
  }
  if (result.inference_failed) {
    // Structured degradation: the run completes with zero contracts and
    // all_passed() == false, so no downstream consumer mistakes a lost
    // inference for a verified case.
    result.timings.total_ms = result.timings.infer_ms;
    obs::metrics().counter("pipeline.inference_failed").add();
    run_span.attr("inference_failed", true);
    return result;
  }
  {
    obs::ScopedSpan stage("pipeline.translate");
    TranslationResult translation = translate(result.proposal, ticket.system);
    result.contracts = std::move(translation.contracts);
    result.rejected = std::move(translation.rejected);
    stage.attr("contracts", result.contracts.size());
    stage.attr("rejected", result.rejected.size());
    result.timings.translate_ms = stage.elapsed_ms();
  }
  support::log(support::LogLevel::info, "pipeline ", ticket.case_id, ": ",
               result.contracts.size(), " contract(s) translated, ",
               result.rejected.size(), " rejected");
  {
    obs::ScopedSpan stage("pipeline.check");
    const minilang::Program program = minilang::parse_checked(source_to_check);
    // One analysis of the checked version, shared by every contract.
    const staticcheck::Screener analysis(program);
    const Checker checker;
    CheckJournal journal(run_options.journal_path);
    const bool journaling = !run_options.journal_path.empty();
    if (journaling) {
      const std::string fingerprint =
          CheckJournal::fingerprint(ticket.case_id + "\n" + source_to_check);
      if (run_options.resume) (void)journal.load("");
      journal.begin(fingerprint);
    }
    for (const SemanticContract& contract : result.contracts) {
      // Resume: a conclusive checkpointed report whose slice fingerprint
      // still matches stands; inconclusive ones (budget-cut, fault-degraded)
      // and entries whose cone changed get re-checked here.
      const ContractCheckReport* checkpointed =
          journal.replayable(contract, analysis, check_options_.run_concolic);
      ContractCheckReport report;
      if (checkpointed != nullptr) {
        report = *checkpointed;
        ++result.resumed_contracts;
        obs::metrics().counter("pipeline.resumed_contracts").add();
      } else {
        CheckOptions contract_options = check_options_;
        contract_options.ledger = ledger;
        contract_options.compute_slice_fp = journaling || ledger != nullptr;
        report = checker.check(analysis, contract, contract_options);
      }
      if (journaling) journal.record(report);
      support::log(report.passed() ? support::LogLevel::debug : support::LogLevel::info,
                   "contract ", contract.id, ": ",
                   report.passed() ? "passed" : "VIOLATED", " (screen=",
                   report.screen_verdict.empty() ? "n/a" : report.screen_verdict,
                   ", paths=", report.paths.size(), ")");
      result.reports.push_back(std::move(report));
    }
    result.timings.summary_ms = analysis.summary_ms();
    result.timings.check_ms = stage.elapsed_ms();
  }
  // screen/summary are shares of the check stage (see StageTimings);
  // total is the exact stage sum, so the fields never double-count.
  for (const ContractCheckReport& report : result.reports)
    result.timings.screen_ms += report.screen_ms;
  result.timings.total_ms =
      result.timings.infer_ms + result.timings.translate_ms + result.timings.check_ms;

  obs::MetricsRegistry& registry = obs::metrics();
  registry.counter("pipeline.runs").add();
  registry.histogram("pipeline.infer_ms").record(result.timings.infer_ms);
  registry.histogram("pipeline.translate_ms").record(result.timings.translate_ms);
  registry.histogram("pipeline.check_ms").record(result.timings.check_ms);
  registry.histogram("pipeline.total_ms").record(result.timings.total_ms);
  if (history_enabled) {
    obs::RunHistory history(run_options.history_path);
    (void)history.load();
    obs::RunRecord record;
    record.kind = "check";
    record.label = ticket.case_id;
    record.input_fingerprint =
        CheckJournal::fingerprint(ticket.case_id + "\n" + source_to_check);
    const std::int64_t total_smt_queries = record_outcomes(result.reports, *ledger, record);
    const auto inconclusive =
        std::count_if(result.reports.begin(), result.reports.end(),
                      [](const ContractCheckReport& report) { return !report.conclusive(); });
    record.metrics["infer_ms"] = result.timings.infer_ms;
    record.metrics["translate_ms"] = result.timings.translate_ms;
    record.metrics["check_ms"] = result.timings.check_ms;
    record.metrics["screen_ms"] = result.timings.screen_ms;
    record.metrics["summary_ms"] = result.timings.summary_ms;
    record.metrics["total_ms"] = result.timings.total_ms;
    record.metrics["settled_fraction"] = result.screening().settled_fraction();
    record.metrics["smt_queries"] = static_cast<double>(total_smt_queries);
    record.metrics["contracts"] = static_cast<double>(result.reports.size());
    record.metrics["violations"] = static_cast<double>(result.total_violations());
    record.metrics["inconclusive"] = static_cast<double>(inconclusive);
    // Interleaving coverage for `lisa trends`; written only when the
    // explorer ran so thread-free history records stay byte-identical.
    if (result.schedules_explored() > 0) {
      record.metrics["schedules_explored"] =
          static_cast<double>(result.schedules_explored());
      record.metrics["interleaving_conclusive_fraction"] =
          result.interleaving_conclusive_fraction();
    }
    (void)history.append(record);
  }
  run_span.attr("contracts", result.contracts.size());
  run_span.attr("all_passed", result.all_passed());
  return result;
}

}  // namespace lisa::core
