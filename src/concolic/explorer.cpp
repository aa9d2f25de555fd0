#include "concolic/explorer.hpp"

#include "analysis/callgraph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "smt/solver.hpp"
#include "support/faultpoint.hpp"

namespace lisa::concolic {

const char* explored_verdict_name(ExploredVerdict verdict) {
  switch (verdict) {
    case ExploredVerdict::kVerifiedByReplay: return "verified-by-replay";
    case ExploredVerdict::kViolatedByReplay: return "violated-by-replay";
    case ExploredVerdict::kInfeasible: return "infeasible";
    case ExploredVerdict::kNotSynthesizable: return "needs-human";
    case ExploredVerdict::kReplayMismatch: return "replay-mismatch";
    case ExploredVerdict::kSkipped: return "skipped";
  }
  return "?";
}

ExplorationReport explore(const minilang::Program& program,
                          const std::string& target_fragment,
                          const smt::FormulaPtr& contract_condition,
                          support::Budget* budget, const obs::CaptureHandle& capture) {
  ExplorationReport report;
  obs::ScopedSpan run_span("explorer.run");
  run_span.attr("target", target_fragment);
  const analysis::CallGraph graph = analysis::CallGraph::build(program);
  analysis::TreeOptions options;
  options.contract_condition = contract_condition;
  // Full path conditions: a synthesized input must satisfy every guard on
  // the way to the target, not only the contract-relevant ones.
  options.prune_irrelevant = false;
  const analysis::ExecutionTree tree =
      analysis::build_execution_tree(program, graph, target_fragment, options);
  run_span.attr("paths", tree.paths.size());

  smt::Solver solver;
  solver.set_budget(budget);
  obs::PhasedSmtCapture smt_capture(capture.ledger, capture.capture, "explore");
  if (capture.active()) solver.set_capture(&smt_capture);
  int sequence = 1;
  for (const analysis::ExecutionPath& path : tree.paths) {
    obs::ScopedSpan path_span("explorer.path");
    if (!path.call_chain.empty()) path_span.attr("entry", path.call_chain.front());
    ExploredPath explored;
    explored.call_chain = path.call_chain;

    // Governance: a refused path degrades to kSkipped — it never silently
    // disappears from the report, and never upgrades to a replay verdict.
    const bool fault_skip =
        support::faultpoint("explorer.path") != support::FaultAction::kNone;
    if (fault_skip) obs::metrics().counter("fault.explorer.path").add();
    if (fault_skip || (budget != nullptr && !budget->charge_path())) {
      explored.verdict = ExploredVerdict::kSkipped;
      explored.detail = fault_skip ? "injected fault at explorer.path"
                                   : budget->exhausted_reason();
      path_span.attr("verdict", explored_verdict_name(explored.verdict));
      report.paths.push_back(std::move(explored));
      ++report.skipped;
      continue;
    }

    const smt::SolveResult feasibility = solver.solve(path.condition);
    if (feasibility.unknown()) {
      explored.verdict = ExploredVerdict::kSkipped;
      explored.detail = "solver inconclusive: " + feasibility.reason;
      path_span.attr("verdict", explored_verdict_name(explored.verdict));
      report.paths.push_back(std::move(explored));
      ++report.skipped;
      continue;
    }
    if (!feasibility.sat()) {
      explored.verdict = ExploredVerdict::kInfeasible;
      explored.detail = "path condition unsatisfiable: " + path.condition->to_string();
      path_span.attr("verdict", explored_verdict_name(explored.verdict));
      report.paths.push_back(std::move(explored));
      ++report.infeasible;
      continue;
    }
    // Prefer a violating witness; fall back to a covering driver when the
    // path is guarded (π ∧ ¬P unsat).
    const bool violating =
        path.mappable &&
        solver
            .solve(smt::Formula::conj2(path.condition,
                                       smt::Formula::negate(path.renamed_contract)))
            .sat();
    const auto test = synthesize_path_test(program, path, violating, sequence);
    if (!test.has_value()) {
      explored.verdict = ExploredVerdict::kNotSynthesizable;
      explored.detail = "required state is not constructible through entry arguments";
      path_span.attr("verdict", explored_verdict_name(explored.verdict));
      report.paths.push_back(std::move(explored));
      ++report.human_needed;
      continue;
    }
    ++sequence;
    explored.test_source = test->source;
    const SynthesizedReplay run =
        replay_synthesized_test(program, *test, target_fragment, contract_condition, budget);
    if (!run.reached) {
      explored.verdict = ExploredVerdict::kReplayMismatch;
      explored.detail = "synthesized driver did not reach the target (model " +
                        test->model_text + ")";
      ++report.human_needed;
    } else if (run.violated) {
      explored.verdict = ExploredVerdict::kViolatedByReplay;
      explored.detail = "missing check reproduced; witness " +
                        (run.witness.empty() ? test->model_text : run.witness);
      ++report.violated;
    } else {
      explored.verdict = ExploredVerdict::kVerifiedByReplay;
      explored.detail = "replay confirmed the guard (model " + test->model_text + ")";
      ++report.verified;
    }
    path_span.attr("verdict", explored_verdict_name(explored.verdict));
    report.paths.push_back(std::move(explored));
  }
  if (budget != nullptr && budget->exhausted()) {
    report.budget_exhausted = true;
    report.budget_reason = budget->exhausted_reason();
  }
  obs::MetricsRegistry& registry = obs::metrics();
  registry.counter("explorer.paths").add(static_cast<std::int64_t>(report.paths.size()));
  registry.counter("explorer.verified").add(report.verified);
  registry.counter("explorer.violated").add(report.violated);
  registry.counter("explorer.infeasible").add(report.infeasible);
  registry.counter("explorer.human_needed").add(report.human_needed);
  registry.counter("explorer.skipped").add(report.skipped);
  return report;
}

}  // namespace lisa::concolic
