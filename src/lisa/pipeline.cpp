#include "lisa/pipeline.hpp"

#include "minilang/sema.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "staticcheck/screener.hpp"
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
  JsonObject screen;
  screen["proved_safe"] = totals.proved_safe;
  screen["proved_violated"] = totals.proved_violated;
  screen["unknown"] = totals.unknown;
  screen["settled"] = totals.settled();
  screen["settled_fraction"] = totals.settled_fraction();
  screen["concolic_skipped"] = totals.concolic_skipped;
  root["screening"] = Json(std::move(screen));
  root["all_passed"] = all_passed();
  // Present only when a contract went to the schedule explorer, so
  // thread-free pipeline output stays byte-identical to the pre-scheduler
  // form.
  if (totals.schedule_contracts > 0) {
    root["schedules_explored"] = totals.schedules_explored;
    root["interleaving_conclusive_fraction"] = totals.interleaving_conclusive_fraction();
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
  obs::ProvenanceLedger local_ledger;
  const RunOptions run = run_options.with_ledger(local_ledger);

  {
    obs::ScopedSpan stage("pipeline.infer");
    inference::InferenceOutcome outcome = inference::infer_with_retry(
        [&] { return llm_.infer(ticket); }, ticket.case_id, retry_policy_);
    result.inference_attempts = outcome.attempts;
    if (run.ledger != nullptr) {
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
      run.ledger->set_proposal(std::move(evidence));
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
    std::vector<const SemanticContract*> contracts;
    for (const SemanticContract& contract : result.contracts) contracts.push_back(&contract);
    const std::string inputs =
        run.ledger != nullptr ? ticket.case_id + "\n" + source_to_check : std::string();
    CheckedContracts checked = check_contracts(analysis, contracts, check_options_, run, inputs);
    result.reports = std::move(checked.reports);
    result.resumed_contracts = checked.resumed;
    result.timings.summary_ms = analysis.summary_ms();
    result.timings.check_ms = stage.elapsed_ms();
  }
  result.totals = tally(result.reports);
  // screen/summary are shares of the check stage (see StageTimings);
  // total is the exact stage sum, so the fields never double-count.
  for (const ContractCheckReport& report : result.reports) {
    result.timings.screen_ms += report.screen_ms;
    support::log(report.passed() ? support::LogLevel::debug : support::LogLevel::info,
                 "contract ", report.contract_id, ": ", report.passed() ? "passed" : "VIOLATED",
                 " (screen=", report.screen_verdict.empty() ? "n/a" : report.screen_verdict,
                 ", paths=", report.paths.size(), ")");
  }
  result.timings.total_ms =
      result.timings.infer_ms + result.timings.translate_ms + result.timings.check_ms;

  obs::MetricsRegistry& registry = obs::metrics();
  registry.counter("pipeline.runs").add();
  if (result.resumed_contracts > 0)
    registry.counter("pipeline.resumed_contracts").add(result.resumed_contracts);
  registry.histogram("pipeline.infer_ms").record(result.timings.infer_ms);
  registry.histogram("pipeline.translate_ms").record(result.timings.translate_ms);
  registry.histogram("pipeline.check_ms").record(result.timings.check_ms);
  registry.histogram("pipeline.total_ms").record(result.timings.total_ms);
  if (!run_options.history_path.empty()) {
    obs::RunRecord record = history_record("check", ticket.case_id, result.reports,
                                           result.totals, result.timings.summary_ms, *run.ledger);
    record.metrics["infer_ms"] = result.timings.infer_ms;
    record.metrics["translate_ms"] = result.timings.translate_ms;
    record.metrics["check_ms"] = result.timings.check_ms;
    record.metrics["screen_ms"] = result.timings.screen_ms;
    record.metrics["total_ms"] = result.timings.total_ms;
    record.metrics["violations"] = static_cast<double>(result.total_violations());
    (void)obs::RunHistory(run_options.history_path).append(record);
  }
  run_span.attr("contracts", result.contracts.size());
  run_span.attr("all_passed", result.all_passed());
  return result;
}

}  // namespace lisa::core
