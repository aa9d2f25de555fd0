#include "lisa/report.hpp"

#include <cstdio>

namespace lisa::core {

namespace {

std::string chain_text(const std::vector<std::string>& chain) {
  std::string out;
  for (const std::string& fn : chain) {
    if (!out.empty()) out += " → ";
    out += "`" + fn + "`";
  }
  return out;
}

const char* verdict_emoji(PathVerdict verdict) {
  switch (verdict) {
    case PathVerdict::kVerified: return "✅";
    case PathVerdict::kViolated: return "❌";
    case PathVerdict::kUnmappable: return "❓";
    case PathVerdict::kInconclusive: return "⏳";
  }
  return "?";
}

}  // namespace

std::string render_markdown(const ContractCheckReport& report,
                            const SemanticContract* contract) {
  std::string out = "### Contract `" + report.contract_id + "`\n\n";
  if (contract != nullptr) {
    out += "> " + contract->description + "\n>\n";
    out += "> `<" + contract->condition_text + "> " + contract->target_fragment + "...`\n\n";
  }
  out += "- target statements: " + std::to_string(report.target_statements) + "\n";
  out += "- paths: " + std::to_string(report.paths.size()) + " (verified " +
         std::to_string(report.verified) + ", violated " + std::to_string(report.violated) +
         ", unmappable " + std::to_string(report.unmappable) +
         (report.inconclusive > 0
              ? ", inconclusive " + std::to_string(report.inconclusive)
              : "") +
         ", uncovered by tests " + std::to_string(report.uncovered) + ")\n";
  out += std::string("- sanity (fixed path verifies): ") + (report.sanity_ok ? "yes" : "NO") +
         "\n";
  if (!report.screen_verdict.empty()) {
    out += "- screening: " + report.screen_verdict + " (" + report.screen_reason + ")";
    if (report.screen_skipped_concolic) out += " — concolic replay skipped";
    out += "\n";
  }
  if (report.budget_exhausted)
    out += "- ⏳ budget exhausted: " + report.budget_reason +
           " — rerun with a larger budget or `--resume` to settle the "
           "remaining work\n";
  // An inconclusive report can claim neither PASS nor FAIL: part of the
  // work was refused, so the honest verdict is "needs attention".
  out += std::string("- overall: **") +
         (report.passed() ? (report.conclusive() ? "PASS" : "INCONCLUSIVE") : "FAIL") +
         "**\n\n";
  if (!report.paths.empty()) {
    out += "| path | verdict | detail |\n|---|---|---|\n";
    for (const PathReport& path : report.paths) {
      out += "| " + chain_text(path.call_chain) + " | " + verdict_emoji(path.verdict) + " " +
             path_verdict_name(path.verdict) + " | ";
      if (path.verdict == PathVerdict::kViolated)
        out += "reachable with " + path.counterexample;
      else if (path.verdict == PathVerdict::kInconclusive)
        out += path.detail;
      else if (!path.covering_tests.empty())
        out += "exercised by `" + path.covering_tests.front() + "`";
      out += " |\n";
    }
    out += "\n";
  }
  for (const std::string& violation : report.structural_violations)
    out += "- ⚠ structural: " + violation + "\n";
  if (report.dynamic.tests_run > 0 || report.dynamic.degraded_runs > 0) {
    out += "\nConcolic replay: " + std::to_string(report.dynamic.tests_run) + " tests, " +
           std::to_string(report.dynamic.target_hits) + " target hits, " +
           std::to_string(report.dynamic.symbolic_violations) + " missing-check traces, " +
           std::to_string(report.dynamic.concrete_violations) + " concrete violations" +
           (report.dynamic.inconclusive_hits > 0
                ? ", " + std::to_string(report.dynamic.inconclusive_hits) +
                      " inconclusive hits"
                : "") +
           (report.dynamic.degraded_runs > 0
                ? ", " + std::to_string(report.dynamic.degraded_runs) + " degraded runs"
                : "") +
           ".\n";
    for (const std::string& detail : report.dynamic.violation_details)
      out += "  - " + detail + "\n";
  }
  return out;
}

std::string render_markdown(const PipelineResult& result) {
  std::string out = "## LISA pipeline report — case `" + result.proposal.case_id + "`\n\n";
  if (result.inference_failed) {
    out += "**⛔ Inference failed after " + std::to_string(result.inference_attempts) +
           " attempt(s).** " + result.inference_error +
           "\n\nNo contracts were extracted for this case; it needs attention, "
           "not a green check.\n";
    return out;
  }
  out += "**High-level semantics.** " + result.proposal.high_level_semantics + "\n\n";
  out += "**Low-level semantics.**\n\n";
  for (const auto& low : result.proposal.low_level)
    out += "- `<" + low.condition_statement + "> " + low.target_statement + "...` — " +
           low.description + "\n";
  if (!result.rejected.empty()) {
    out += "\n**Rejected (outside checkable fragment).**\n\n";
    for (const std::string& rejected : result.rejected) out += "- " + rejected + "\n";
  }
  out += "\n";
  for (std::size_t i = 0; i < result.reports.size(); ++i) {
    const SemanticContract* contract =
        i < result.contracts.size() ? &result.contracts[i] : nullptr;
    out += render_markdown(result.reports[i], contract);
    out += "\n";
  }
  const RunTotals& totals = result.totals;
  if (totals.screened() > 0) {
    char fraction[32];
    std::snprintf(fraction, sizeof(fraction), "%.0f%%", totals.settled_fraction() * 100.0);
    out += "_Screening: " + std::to_string(totals.settled()) + " settled statically (" +
           std::to_string(totals.proved_safe) + " safe, " +
           std::to_string(totals.proved_violated) + " violated, " + fraction +
           " settled), " + std::to_string(totals.unknown) +
           " explored by the full check, " + std::to_string(totals.concolic_skipped) +
           " concolic replay(s) skipped._\n\n";
  }
  if (totals.inconclusive > 0)
    out += "_⏳ " + std::to_string(totals.inconclusive) +
           " contract(s) inconclusive (budget or fault): rerun with a larger "
           "budget or `--resume` to settle them._\n\n";
  if (result.resumed_contracts > 0)
    out += "_Resumed " + std::to_string(result.resumed_contracts) +
           " contract(s) from the checkpoint journal._\n\n";
  char timing[224];
  std::snprintf(timing, sizeof(timing),
                "_Timings: infer %.2f ms, translate %.2f ms, assert %.2f ms (screen %.2f "
                "ms, summaries %.2f ms), total %.2f ms._\n",
                result.timings.infer_ms, result.timings.translate_ms,
                result.timings.check_ms, result.timings.screen_ms,
                result.timings.summary_ms, result.timings.total_ms);
  out += timing;
  return out;
}

std::string render_markdown(const GateDecision& decision) {
  std::string out = decision.allowed ? "## ✅ Commit admitted\n\n" : "## ⛔ Commit blocked\n\n";
  if (!decision.allowed) {
    out += "This change violates semantics learned from past incidents:\n\n";
    for (const std::string& violation : decision.violations) out += "- " + violation + "\n";
    out += "\nEach rule below links the unguarded path and a state that reaches it.\n\n";
  }
  // needs_attention can also be set by warn-only drift findings, which have
  // their own section below — the budget blurb only fits incomplete checks.
  if (decision.needs_attention && decision.totals.inconclusive > 0)
    out += "**⏳ Needs attention:** " + std::to_string(decision.totals.inconclusive) +
           " contract(s) were not checked to completion (budget or fault). The "
           "commit decision above covers only the settled contracts — rerun "
           "with a larger budget or `--resume` to close the gap.\n\n";
  if (decision.resumed_contracts > 0)
    out += "_Resumed " + std::to_string(decision.resumed_contracts) +
           " contract(s) from the checkpoint journal._\n\n";
  if (decision.baseline_runs >= 0 && !decision.drift_findings.empty()) {
    out += "### 📉 Drift vs the last " + std::to_string(decision.baseline_runs) +
           " recorded run(s)\n\n";
    for (const obs::DriftFinding& finding : decision.drift_findings)
      out += std::string("- ") + (finding.fails_gate ? "⛔" : "⚠") + " **" + finding.kind +
             "** (`" + finding.subject + "`): " + finding.cause + "\n";
    out += "\n";
  }
  for (const ContractCheckReport& report : decision.reports) {
    if (report.passed() && report.conclusive()) continue;
    out += render_markdown(report);
    out += "\n";
  }
  char timing[160];
  if (decision.totals.screened() > 0) {
    std::snprintf(timing, sizeof(timing),
                  "_Gate evaluation: %.1f ms (%d/%d contracts settled statically, "
                  "summaries %.2f ms)._\n",
                  decision.evaluation_ms, decision.totals.settled(), decision.totals.screened(),
                  decision.summary_ms);
  } else {
    std::snprintf(timing, sizeof(timing), "_Gate evaluation: %.1f ms._\n",
                  decision.evaluation_ms);
  }
  out += timing;
  return out;
}

std::string render_markdown(const PropertyReport& report) {
  std::string out = "## High-level property `" + report.property_id + "`: **" +
                    property_status_name(report.status) + "**\n\n";
  for (const std::string& finding : report.findings) out += "- " + finding + "\n";
  if (!report.findings.empty()) out += "\n";
  for (const ContractCheckReport& constituent : report.constituent_reports) {
    out += render_markdown(constituent);
    out += "\n";
  }
  return out;
}

}  // namespace lisa::core
