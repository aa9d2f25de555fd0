#include "lisa/ci_gate.hpp"

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
  root["screened_settled"] = totals.settled();
  root["screened_unknown"] = totals.unknown;
  root["settled_fraction"] = totals.settled_fraction();
  root["concolic_skipped"] = totals.concolic_skipped;
  root["summary_ms"] = summary_ms;
  if (totals.inconclusive > 0) root["inconclusive_contracts"] = totals.inconclusive;
  if (needs_attention) root["needs_attention"] = true;
  if (resumed_contracts > 0) root["resumed_contracts"] = resumed_contracts;
  // Emitted only when the explorer decided at least one contract, so gate
  // output for thread-free programs stays byte-identical.
  if (totals.schedule_contracts > 0) {
    root["schedule_contracts"] = totals.schedule_contracts;
    root["schedules_explored"] = totals.schedules_explored;
    root["schedule_inconclusive"] = totals.schedule_inconclusive;
    root["interleaving_conclusive_fraction"] = totals.interleaving_conclusive_fraction();
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
  obs::ProvenanceLedger local_ledger;
  const RunOptions run = run_options.with_ledger(local_ledger);
  std::string inputs;
  if (run.ledger != nullptr) {
    inputs = source;
    for (const SemanticContract& contract : store.all()) inputs += "\n" + contract.id;
  }
  // One analysis of the commit for every stored contract: call graph,
  // summaries and slicer are built on first use and then shared.
  const staticcheck::Screener analysis(program);
  // Contracts whose target no longer exists in this codebase are vacuous
  // for the commit (e.g. contracts from another system's history).
  std::vector<const SemanticContract*> contracts;
  for (const SemanticContract& contract : store.all())
    if (contract.kind != corpus::SemanticsKind::kStatePredicate ||
        !analysis.graph().targets(contract.target_fragment).empty())
      contracts.push_back(&contract);
  CheckedContracts checked = check_contracts(analysis, contracts, options_, run, inputs);
  decision.reports = std::move(checked.reports);
  decision.resumed_contracts = checked.resumed;
  decision.totals = tally(decision.reports);
  if (decision.totals.inconclusive > 0) decision.needs_attention = true;
  for (std::size_t i = 0; i < contracts.size(); ++i) {
    const SemanticContract& contract = *contracts[i];
    const ContractCheckReport& report = decision.reports[i];
    // An undrained schedule space is "no violation found so far", not a
    // pass: it blocks the commit unless the operator explicitly downgraded
    // it. Violating interleavings block unconditionally through the
    // passed() branch below.
    if (!report.schedule_conclusive) {
      if (run_options.schedule_warn_only) {
        decision.needs_attention = true;
      } else {
        decision.allowed = false;
        decision.violations.push_back(
            contract.id + " [" + contract.target_fragment +
            "]: schedule exploration inconclusive — " + report.schedule_inconclusive_reason +
            " (raise --max-schedules or pass --schedule-warn-only to downgrade)");
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
  }
  decision.evaluation_ms = timer.elapsed_ms();
  decision.summary_ms = analysis.summary_ms();
  obs::MetricsRegistry& registry = obs::metrics();
  registry.counter("gate.evaluations").add();
  if (!decision.allowed) registry.counter("gate.blocked").add();
  if (decision.needs_attention) registry.counter("gate.needs_attention").add();
  if (decision.resumed_contracts > 0)
    registry.counter("gate.resumed_contracts").add(decision.resumed_contracts);
  if (decision.totals.schedules_explored > 0)
    registry.counter("gate.schedules_explored").add(decision.totals.schedules_explored);
  if (decision.totals.schedule_inconclusive > 0)
    registry.counter("gate.schedule_inconclusive").add(decision.totals.schedule_inconclusive);
  registry.histogram("gate.evaluation_ms").record(decision.evaluation_ms);
  if (!run_options.history_path.empty()) {
    std::string label = run_options.history_label;
    if (label.empty()) {
      // Keyed by the contract ids, not the source: the baseline series must
      // survive source edits or flake detection could never fire.
      std::string ids;
      for (const SemanticContract& contract : store.all()) ids += contract.id + "\n";
      label = support::fnv1a_fingerprint(ids);
    }
    obs::RunRecord record = history_record("gate", std::move(label), decision.reports,
                                           decision.totals, decision.summary_ms, *run.ledger);
    // evaluation_ms was captured BEFORE this block, so history bookkeeping
    // cannot regress the very latency metric the drift rules watch.
    record.metrics["evaluation_ms"] = decision.evaluation_ms;
    record.metrics["violations"] = static_cast<double>(decision.violations.size());
    obs::RunHistory history(run_options.history_path);
    (void)history.load();  // absent file = fresh baseline, not an error
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
