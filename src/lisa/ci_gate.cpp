#include "lisa/ci_gate.hpp"

#include "analysis/paths.hpp"
#include "lisa/journal.hpp"
#include "minilang/sema.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "support/jsonl.hpp"
#include "staticcheck/screener.hpp"
#include "support/stopwatch.hpp"

namespace lisa::core {

using support::Json;
using support::JsonArray;
using support::JsonObject;

void ContractStore::add(SemanticContract contract) {
  contracts_.push_back(std::move(contract));
}

void ContractStore::add_all(std::vector<SemanticContract> contracts) {
  for (SemanticContract& contract : contracts) contracts_.push_back(std::move(contract));
}

Json ContractStore::to_json() const {
  JsonArray entries;
  for (const SemanticContract& contract : contracts_) entries.push_back(contract.to_json());
  JsonObject root;
  root["contracts"] = Json(std::move(entries));
  return Json(std::move(root));
}

ContractStore ContractStore::from_json(const Json& json) {
  ContractStore store;
  if (json.has("contracts"))
    for (const Json& entry : json.at("contracts").as_array())
      store.add(SemanticContract::from_json(entry));
  return store;
}

Json GateDecision::to_json() const {
  JsonObject root;
  root["allowed"] = allowed;
  JsonArray violation_entries;
  for (const std::string& violation : violations) violation_entries.push_back(Json(violation));
  root["violations"] = Json(std::move(violation_entries));
  JsonArray report_entries;
  for (const ContractCheckReport& report : reports) report_entries.push_back(report.to_json());
  root["reports"] = Json(std::move(report_entries));
  root["evaluation_ms"] = evaluation_ms;
  root["screened_settled"] = screened_settled;
  root["screened_unknown"] = screened_unknown;
  root["settled_fraction"] = settled_fraction();
  root["concolic_skipped"] = concolic_skipped;
  root["summary_ms"] = summary_ms;
  if (inconclusive_contracts > 0) root["inconclusive_contracts"] = inconclusive_contracts;
  if (needs_attention) root["needs_attention"] = true;
  if (resumed_contracts > 0) root["resumed_contracts"] = resumed_contracts;
  // Emitted only when the explorer decided at least one contract, so gate
  // output for thread-free programs stays byte-identical.
  if (schedule_contracts > 0) {
    root["schedule_contracts"] = schedule_contracts;
    root["schedules_explored"] = schedules_explored;
    root["schedule_inconclusive"] = schedule_inconclusive;
    root["interleaving_conclusive_fraction"] = interleaving_conclusive_fraction();
  }
  // Longitudinal fields appear only when a history file was in play, so
  // history-off output stays byte-identical to pre-history LISA.
  if (baseline_runs >= 0) {
    root["baseline_runs"] = baseline_runs;
    JsonArray drift_entries;
    for (const obs::DriftFinding& finding : drift_findings)
      drift_entries.push_back(finding.to_json());
    root["drift_findings"] = Json(std::move(drift_entries));
  }
  return Json(std::move(root));
}

GateDecision CiGate::evaluate(const std::string& source, const ContractStore& store) const {
  return evaluate(source, store, GateRunOptions{});
}

GateDecision CiGate::evaluate(const std::string& source, const ContractStore& store,
                              const GateRunOptions& run_options) const {
  GateDecision decision;
  obs::ScopedSpan span("gate.evaluate");
  span.attr("stored_contracts", store.size());
  const support::Stopwatch timer;
  minilang::Program program;
  try {
    program = minilang::parse_checked(source);
  } catch (const std::exception& error) {
    decision.allowed = false;
    decision.violations.push_back(std::string("commit does not build: ") + error.what());
    decision.evaluation_ms = timer.elapsed_ms();
    return decision;
  }
  CheckJournal journal(run_options.journal_path);
  const bool journaling = !run_options.journal_path.empty();
  // Longitudinal history needs per-contract SMT counts and digests, which
  // only a ledger captures — so a history-enabled run without a caller
  // ledger attaches a local one (provably output-neutral, see PR 6 tests).
  const bool history_enabled = !run_options.history_path.empty();
  obs::ProvenanceLedger local_ledger;
  obs::ProvenanceLedger* ledger = run_options.ledger;
  if (history_enabled && ledger == nullptr) ledger = &local_ledger;
  // One analysis of the commit for every stored contract: call graph,
  // summaries and slicer are built on first use and then shared.
  const staticcheck::Screener analysis(program);
  std::string inputs_fingerprint;
  if (journaling || ledger != nullptr) {
    std::string inputs = source;
    for (const SemanticContract& contract : store.all()) inputs += "\n" + contract.id;
    inputs_fingerprint = CheckJournal::fingerprint(inputs);
    if (ledger != nullptr) ledger->bind(inputs);
    if (journaling) {
      if (run_options.resume) (void)journal.load("");
      journal.begin(inputs_fingerprint);
    }
  }
  const Checker checker;
  for (const SemanticContract& contract : store.all()) {
    // Contracts whose target no longer exists in this codebase are vacuous
    // for the commit (e.g. contracts from another system's history).
    if (analysis::find_target_statements(program, contract.target_fragment).empty() &&
        contract.kind == corpus::SemanticsKind::kStatePredicate)
      continue;
    // Per-entry resume: an edit only re-checks the contracts whose verdict
    // cone contains it.
    const ContractCheckReport* checkpointed =
        journal.replayable(contract, analysis, options_.run_concolic);
    ContractCheckReport report;
    if (checkpointed != nullptr) {
      report = *checkpointed;
      ++decision.resumed_contracts;
    } else {
      CheckOptions contract_options = options_;
      contract_options.ledger = ledger;
      contract_options.compute_slice_fp = journaling || ledger != nullptr;
      report = checker.check(analysis, contract, contract_options);
    }
    if (journaling) journal.record(report);
    if (!report.conclusive()) {
      ++decision.inconclusive_contracts;
      decision.needs_attention = true;
    }
    if (report.screen_verdict == "proved-safe" || report.screen_verdict == "proved-violated")
      ++decision.screened_settled;
    else if (!report.screen_verdict.empty())
      ++decision.screened_unknown;
    if (report.screen_skipped_concolic) ++decision.concolic_skipped;
    if (report.schedules_explored > 0 || !report.schedule_conclusive) {
      ++decision.schedule_contracts;
      decision.schedules_explored += report.schedules_explored;
      if (!report.schedule_conclusive) {
        ++decision.schedule_inconclusive;
        // An undrained schedule space is "no violation found so far", not a
        // pass: it blocks the commit unless the operator explicitly
        // downgraded it. Violating interleavings block unconditionally
        // through the passed() branch below.
        if (run_options.schedule_warn_only) {
          decision.needs_attention = true;
        } else {
          decision.allowed = false;
          decision.violations.push_back(
              contract.id + " [" + contract.target_fragment +
              "]: schedule exploration inconclusive — " +
              report.schedule_inconclusive_reason +
              " (raise --max-schedules or pass --schedule-warn-only to downgrade)");
        }
      }
    }
    if (!report.passed()) {
      decision.allowed = false;
      std::string reason = contract.id + " [" + contract.target_fragment + "]: ";
      if (report.violated > 0)
        reason += std::to_string(report.violated) + " unguarded path(s); ";
      if (!report.structural_violations.empty())
        reason += std::to_string(report.structural_violations.size()) +
                  " structural violation(s); ";
      if (report.dynamic.symbolic_violations > 0)
        reason += std::to_string(report.dynamic.symbolic_violations) +
                  " missing-check trace(s); ";
      if (report.schedule_violations > 0)
        reason += std::to_string(report.schedule_violations) +
                  " violating interleaving(s), witness " + report.schedule_witness + "; ";
      reason += contract.description;
      decision.violations.push_back(std::move(reason));
    }
    decision.reports.push_back(std::move(report));
  }
  decision.evaluation_ms = timer.elapsed_ms();
  decision.summary_ms = analysis.summary_ms();
  obs::MetricsRegistry& registry = obs::metrics();
  registry.counter("gate.evaluations").add();
  if (!decision.allowed) registry.counter("gate.blocked").add();
  if (decision.needs_attention) registry.counter("gate.needs_attention").add();
  if (decision.resumed_contracts > 0)
    registry.counter("gate.resumed_contracts").add(decision.resumed_contracts);
  if (decision.schedules_explored > 0)
    registry.counter("gate.schedules_explored").add(decision.schedules_explored);
  if (decision.schedule_inconclusive > 0)
    registry.counter("gate.schedule_inconclusive").add(decision.schedule_inconclusive);
  registry.histogram("gate.evaluation_ms").record(decision.evaluation_ms);
  if (history_enabled) {
    obs::RunHistory history(run_options.history_path);
    (void)history.load();  // absent file = fresh baseline, not an error
    std::string label = run_options.history_label;
    if (label.empty()) {
      // Keyed by the contract ids, not the source: the baseline series must
      // survive source edits or flake detection could never fire.
      std::string ids;
      for (const SemanticContract& contract : store.all()) ids += contract.id + "\n";
      label = support::fnv1a_fingerprint(ids);
    }
    obs::RunRecord record;
    record.kind = "gate";
    record.label = std::move(label);
    record.input_fingerprint = inputs_fingerprint;
    const std::int64_t total_smt_queries = record_outcomes(decision.reports, *ledger, record);
    // evaluation_ms was captured BEFORE this block, so history bookkeeping
    // cannot regress the very latency metric the drift rules watch.
    record.metrics["evaluation_ms"] = decision.evaluation_ms;
    record.metrics["summary_ms"] = decision.summary_ms;
    record.metrics["settled_fraction"] = decision.settled_fraction();
    record.metrics["smt_queries"] = static_cast<double>(total_smt_queries);
    record.metrics["contracts"] = static_cast<double>(decision.reports.size());
    record.metrics["violations"] = static_cast<double>(decision.violations.size());
    record.metrics["inconclusive"] = static_cast<double>(decision.inconclusive_contracts);
    // Longitudinal interleaving coverage: `lisa trends` watches these to
    // catch a fleet whose schedule exploration quietly stops concluding.
    // Only written when the explorer ran, keeping thread-free history
    // records byte-identical.
    if (decision.schedule_contracts > 0) {
      record.metrics["schedules_explored"] =
          static_cast<double>(decision.schedules_explored);
      record.metrics["interleaving_conclusive_fraction"] =
          decision.interleaving_conclusive_fraction();
    }
    const std::vector<const obs::RunRecord*> baseline =
        history.matching("gate", record.label);
    decision.baseline_runs = static_cast<int>(baseline.size());
    decision.drift_findings = obs::detect_drift(baseline, record, run_options.drift);
    for (const obs::DriftFinding& finding : decision.drift_findings) {
      if (finding.fails_gate) {
        decision.allowed = false;
        decision.violations.push_back("drift [" + finding.kind + "]: " + finding.cause);
      } else {
        decision.needs_attention = true;
      }
    }
    if (!decision.drift_findings.empty()) {
      registry.counter("gate.drift_findings")
          .add(static_cast<std::int64_t>(decision.drift_findings.size()));
      if (!decision.allowed) registry.counter("gate.blocked_by_drift").add();
    }
    (void)history.append(record);  // red runs are history too
  }
  span.attr("allowed", decision.allowed);
  span.attr("evaluated", decision.reports.size());
  return decision;
}

}  // namespace lisa::core
