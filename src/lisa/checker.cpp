#include "lisa/checker.hpp"

#include <algorithm>
#include <set>

#include "analysis/paths.hpp"
#include "concolic/engine.hpp"
#include "concolic/schedule.hpp"
#include "inference/embedding.hpp"
#include "minilang/printer.hpp"
#include "obs/explain.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "smt/solver.hpp"
#include "staticcheck/concurrency.hpp"
#include "staticcheck/slice.hpp"

namespace lisa::core {

namespace {

/// Lowest embedding similarity at which a ranked test is selected for
/// concolic replay.
constexpr double kMinTestScore = 0.01;

/// True if `hit_chain` (test frame first) ends with `path_chain`.
bool chain_suffix_matches(const std::vector<std::string>& hit_chain,
                          const std::vector<std::string>& path_chain) {
  if (path_chain.size() > hit_chain.size()) return false;
  return std::equal(path_chain.rbegin(), path_chain.rend(), hit_chain.rbegin());
}

/// Folds one finished contract check into the metrics registry and closes
/// its span with the outcome attributes.
void record_contract_outcome(obs::ScopedSpan& span, const ContractCheckReport& report,
                             double elapsed_ms) {
  obs::MetricsRegistry& registry = obs::metrics();
  registry.counter("checker.contracts").add();
  registry.counter("checker.paths_verified").add(report.verified);
  registry.counter("checker.paths_violated").add(report.violated);
  registry.counter("checker.paths_unmappable").add(report.unmappable);
  registry.counter("checker.paths_uncovered").add(report.uncovered);
  if (report.inconclusive > 0)
    registry.counter("checker.paths_inconclusive").add(report.inconclusive);
  if (!report.conclusive()) registry.counter("checker.inconclusive_contracts").add();
  if (report.budget_exhausted) {
    registry.counter("checker.budget_exhausted").add();
    // Typed exhaustion cause as a labeled counter, so a metrics dump shows
    // *which* resource the fleet keeps running out of.
    if (!report.budget_resource.empty())
      registry.counter("budget.exhausted{reason=" + report.budget_resource + "}").add();
  }
  registry.histogram("checker.contract_ms").record(elapsed_ms);
  if (!report.screen_verdict.empty()) {
    registry.counter("screen." + report.screen_verdict).add();
    registry.histogram("screen.ms").record(report.screen_ms);
    if (report.screen_skipped_concolic) registry.counter("screen.concolic_skipped").add();
  }
  span.attr("paths", report.paths.size());
  span.attr("verified", report.verified);
  span.attr("violated", report.violated);
  span.attr("unmappable", report.unmappable);
  span.attr("passed", report.passed());
  if (!report.screen_verdict.empty()) span.attr("screen_verdict", report.screen_verdict);
  if (report.budget_exhausted && !report.budget_resource.empty())
    span.attr("budget.exhausted_reason", report.budget_resource);
}

/// Creates (or re-opens) the capture cell for `contract` and fills its
/// identity fields. Inert handle when no ledger is attached.
obs::CaptureHandle bind_capture(obs::ProvenanceLedger* ledger,
                                const SemanticContract& contract) {
  if (ledger == nullptr) return {};
  obs::ContractCapture* capture = ledger->capture_for(contract.id);
  capture->contract_id = contract.id;
  capture->system = contract.system;
  capture->kind = contract.kind == corpus::SemanticsKind::kStructuralPattern
                      ? "structural-pattern"
                  : contract.kind == corpus::SemanticsKind::kInterleavingSensitive
                      ? "interleaving-sensitive"
                      : "state-predicate";
  capture->target_fragment = contract.target_fragment;
  capture->condition_text = contract.condition_text;
  capture->description = contract.description;
  capture->fingerprint = obs::evidence_digest(contract.id + "|" + contract.target_fragment +
                                              "|" + contract.condition_text);
  return {ledger, capture};
}

/// Stores the report and the budget accounting in the capture cell.
/// Charges are counter snapshots (deterministic for non-deadline budgets);
/// elapsed time deliberately stays out of the ledger.
void finalize_capture(const obs::CaptureHandle& capture, const ContractCheckReport& report,
                      const support::Budget* budget) {
  if (!capture.active()) return;
  obs::ContractCapture* cell = capture.capture;
  cell->report = report;
  cell->budget.attached = budget != nullptr;
  if (budget != nullptr) {
    cell->budget.exhausted = budget->exhausted();
    if (budget->exhausted()) {
      cell->budget.resource = support::budget_resource_name(budget->exhausted_resource());
      cell->budget.reason = budget->exhausted_reason();
    }
    cell->budget.charges["smt-queries"] = budget->smt_queries();
    cell->budget.charges["paths"] = budget->paths();
    cell->budget.charges["fork-points"] = budget->fork_points();
    cell->budget.charges["steps"] = budget->steps();
    cell->budget.charges["schedules"] = budget->schedules();
  }
}

}  // namespace

staticcheck::SliceRequest contract_slice_request(const SemanticContract& contract,
                                                 bool run_concolic) {
  staticcheck::SliceRequest request;
  switch (contract.kind) {
    case corpus::SemanticsKind::kStructuralPattern:
      request.kind = staticcheck::SliceRequest::Kind::kStructural;
      request.include_tests = true;  // the lock-state scan covers test bodies
      break;
    case corpus::SemanticsKind::kInterleavingSensitive:
      request.kind = staticcheck::SliceRequest::Kind::kInterleaving;
      request.include_tests = true;  // thread roots may be anywhere
      break;
    case corpus::SemanticsKind::kStatePredicate:
      request.kind = staticcheck::SliceRequest::Kind::kStatePredicate;
      request.include_tests = run_concolic;
      break;
  }
  request.target_fragment = contract.target_fragment;
  request.condition = contract.condition;
  request.condition_text = contract.condition_text;
  request.pattern = contract.pattern;
  request.contract_text = contract.id + "|" + contract.target_fragment + "|" +
                          contract.condition_text + "|" + contract.pattern;
  return request;
}

std::string contract_slice_fingerprint(const staticcheck::SliceEngine& engine,
                                       const SemanticContract& contract,
                                       bool run_concolic) {
  return engine.slice(contract_slice_request(contract, run_concolic)).fingerprint;
}

namespace {

/// Stamps the budget's exhaustion onto `report`. Only the steps that charge
/// the budget (schedule exploration, static paths, concolic replay) call it:
/// `lisa gate` shares one budget across every contract, so stamping any other
/// step would make it inconclusive for an earlier contract's spend.
void stamp_budget(ContractCheckReport& report, const support::Budget* budget) {
  if (budget == nullptr || !budget->exhausted()) return;
  report.budget_exhausted = true;
  report.budget_reason = budget->exhausted_reason();
  report.budget_resource = support::budget_resource_name(budget->exhausted_resource());
}

void take_screen(const staticcheck::ScreenResult& screen, ContractCheckReport& report) {
  report.screen_verdict = staticcheck::screen_verdict_name(screen.verdict);
  report.screen_witness = screen.witness;
  report.screen_reason = screen.reason;
  report.screen_ms = screen.elapsed_ms;
}

/// Structural contracts. The lock-state screen (Screener::screen_structural)
/// checks the no-blocking-in-sync rule path-sensitively: exception edges
/// release monitors and nested sync depth is tracked per path. A failure
/// narrates by replaying tests until a blocking call executes under a held
/// monitor.
void screen_lock_state(const staticcheck::Screener& analysis,
                       const staticcheck::ScreenOptions& screen_options,
                       ContractCheckReport& report) {
  const staticcheck::ScreenResult screen = analysis.screen_structural(screen_options);
  for (const staticcheck::Diagnostic& diagnostic : screen.diagnostics)
    report.structural_violations.push_back(diagnostic.render());
  take_screen(screen, report);
  report.sanity_ok = true;  // structural rules need no fixed-path witness
}

/// Atomicity and liveness patterns cannot be settled by the lockset screen:
/// the violation is a specific interleaving of spawned threads, not a
/// missing lock edge. The schedule explorer quantifies over interleavings
/// instead — every spawning @test is re-run under the cooperative scheduler,
/// one thread order per run, bounded by max_schedules and charged to the
/// budget. Serial replay of the same tests sees exactly one schedule and is
/// provably blind to these bugs (schedule_test.cpp asserts it), so the
/// explorer's verdict is final: a violating schedule fails the contract with
/// a replayable witness; an undrained schedule space is a typed
/// inconclusive, never a pass. Returns the first violating schedule, which
/// the narration replays.
std::optional<concolic::ScheduleWitness> explore_schedules(
    const minilang::Program& program, const CheckOptions& options,
    ContractCheckReport& report) {
  report.sanity_ok = true;  // the witness schedule is its own evidence
  concolic::ScheduleExploreOptions schedule_options;
  schedule_options.max_schedules = options.max_schedules;
  schedule_options.budget = options.budget;
  concolic::ScheduleExplorer explorer(program, schedule_options);
  const concolic::ScheduleExplorationResult explored = explorer.explore();
  report.schedules_explored = explored.schedules_explored;
  report.schedule_conclusive = explored.conclusive;
  report.schedule_inconclusive_reason = explored.inconclusive_reason;
  report.schedule_violations = static_cast<int>(explored.witnesses.size());
  for (const concolic::ScheduleWitness& witness : explored.witnesses) {
    report.schedule_violation_details.push_back(
        witness.test + ": " + witness.outcome + " under schedule [" +
        witness.decisions_text() + "]" +
        (witness.detail.empty() ? "" : " — " + witness.detail));
    if (report.schedule_witness.empty())
      report.schedule_witness = witness.to_compact();
  }
  stamp_budget(report, options.budget);
  obs::metrics().counter("checker.interleaving_contracts").add();
  obs::metrics().counter("checker.schedule_contracts").add();
  obs::metrics().counter("checker.schedules_explored").add(explored.schedules_explored);
  if (explored.violation_found)
    obs::metrics().counter("checker.schedule_violations").add();
  if (!explored.conclusive)
    obs::metrics().counter("checker.schedule_inconclusive").add();
  if (explored.witnesses.empty()) return std::nullopt;
  return explored.witnesses.front();
}

/// The other interleaving-sensitive contracts are settled by the static
/// concurrency pass (locksets + the lock-acquisition-order graph):
/// single-threaded concolic replay cannot observe interleavings, so the
/// screen *is* the check — Unknown when summaries are unavailable, never a
/// false ProvedSafe. A failure narrates by replaying tests until one
/// acquires a cycle-edge monitor pair nested, or writes the guarded field
/// bare.
void screen_locksets(const staticcheck::Screener& analysis, const SemanticContract& contract,
                     const staticcheck::ScreenOptions& screen_options,
                     ContractCheckReport& report, obs::NarrationRequest& narration) {
  const staticcheck::ScreenResult screen = analysis.screen_interleaving(
      contract.pattern, contract.target_fragment, contract.condition_text, screen_options);
  for (const staticcheck::Diagnostic& diagnostic : screen.diagnostics)
    report.structural_violations.push_back(diagnostic.render());
  take_screen(screen, report);
  report.sanity_ok = true;  // the screened verdict carries its own witness
  obs::metrics().counter("checker.interleaving_contracts").add();
  obs::metrics()
      .counter(std::string("screen.interleaving.") +
               staticcheck::screen_verdict_name(screen.verdict))
      .add();
  if (contract.pattern == "lock_order_acyclic" && analysis.lock_graph() != nullptr) {
    for (const staticcheck::LockCycle& cycle : analysis.lock_graph()->cycles)
      for (const staticcheck::LockOrderEdge& edge : cycle.edges)
        narration.cycle_edges.emplace_back(edge.first, edge.second);
  } else if (contract.pattern == "guarded_field") {
    narration.guarded_field = contract.target_fragment;
    narration.guard_monitor = staticcheck::guard_monitor(contract.condition_text);
  }
}

/// State-predicate contracts: screen, decide every entry→target path of the
/// execution tree, and confirm by concolic replay of the selected tests. A
/// failure narrates by replaying the best covering test with the violated
/// path's model injected into the live state.
void check_paths(const staticcheck::Screener& analysis, const SemanticContract& contract,
                 const std::vector<int>& target_ids, const CheckOptions& options,
                 const staticcheck::ScreenOptions& screen_options, ContractCheckReport& report,
                 obs::NarrationRequest& narration) {
  const minilang::Program& program = analysis.program();
  const obs::CaptureHandle& capture = screen_options.capture;

  // ---- Static screening (src/staticcheck) ---------------------------------
  bool skip_concolic = false;
  std::optional<analysis::ExecutionTree> enumerated;
  if (options.static_screen) {
    staticcheck::ScreenResult screen = analysis.screen_state_predicate(
        contract.target_fragment, contract.condition, screen_options);
    take_screen(screen, report);
    // Forced tests are always honoured: ablations that request specific
    // replays expect them to run regardless of the screening verdict.
    if (options.forced_tests.empty()) {
      skip_concolic =
          screen.verdict == staticcheck::ScreenVerdict::kProvedSafe ||
          (screen.verdict == staticcheck::ScreenVerdict::kProvedViolated &&
           options.trust_screen_verdicts);
    }
    report.screen_skipped_concolic = skip_concolic && options.run_concolic;
    enumerated = std::move(screen.tree);
  }

  // ---- Static assertion over the execution tree ---------------------------
  if (!enumerated.has_value()) {
    // Screening off, or the screen stopped before enumerating: enumerate
    // with the options the screen uses.
    analysis::TreeOptions tree_options;
    tree_options.max_paths = options.max_paths;
    tree_options.prune_irrelevant = options.prune_irrelevant;
    tree_options.contract_condition = contract.condition;
    obs::ScopedSpan tree_span("checker.tree");
    enumerated = analysis::build_execution_tree(program, analysis.graph(),
                                                contract.target_fragment, tree_options);
    tree_span.attr("paths", enumerated->paths.size());
    tree_span.attr("raw_paths", enumerated->enumerated_raw);
  }
  const analysis::ExecutionTree& tree = *enumerated;
  report.raw_paths = tree.enumerated_raw;
  report.truncated = tree.truncated;

  obs::ScopedSpan static_span("checker.static_paths");
  smt::Solver solver;
  solver.set_budget(options.budget);
  obs::PhasedSmtCapture static_smt_capture(capture.ledger, capture.capture, "static-path");
  if (capture.active()) solver.set_capture(&static_smt_capture);
  for (const analysis::ExecutionPath& path : tree.paths) {
    PathReport path_report;
    path_report.call_chain = path.call_chain;
    path_report.target_stmt_id = path.target != nullptr ? path.target->id : -1;
    path_report.target_text =
        path.target != nullptr ? minilang::stmt_header_text(*path.target) : "";
    path_report.path_condition = path.condition->to_string();
    path_report.contract_condition = path.renamed_contract->to_string();
    if (options.budget != nullptr && !options.budget->charge_path()) {
      // A refused path is inconclusive, never silently verified: the report
      // keeps the full path entry so a resumed run can pick it back up.
      path_report.verdict = PathVerdict::kInconclusive;
      path_report.detail = options.budget->exhausted_reason();
      ++report.inconclusive;
    } else if (!path.mappable) {
      path_report.verdict = PathVerdict::kUnmappable;
      ++report.unmappable;
    } else {
      const smt::SolveResult result = solver.solve(smt::Formula::conj2(
          path.condition, smt::Formula::negate(path.renamed_contract)));
      if (result.unknown()) {
        path_report.verdict = PathVerdict::kInconclusive;
        path_report.detail = result.reason;
        ++report.inconclusive;
      } else if (result.sat()) {
        path_report.verdict = PathVerdict::kViolated;
        path_report.counterexample = result.model.to_string();
        if (narration.target_stmt_id < 0) {
          // The first violated path's model, in canonical frame vocabulary.
          narration.model_bools = result.model.bools;
          narration.model_ints = result.model.ints;
          narration.target_stmt_id = path_report.target_stmt_id;
        }
        ++report.violated;
      } else {
        path_report.verdict = PathVerdict::kVerified;
        ++report.verified;
      }
    }
    report.paths.push_back(std::move(path_report));
  }
  solver.set_capture(nullptr);  // the sink is stack-local
  static_span.attr("verified", report.verified);
  static_span.attr("violated", report.violated);
  if (report.inconclusive > 0) static_span.attr("inconclusive", report.inconclusive);
  static_span.close();
  report.sanity_ok = report.verified > 0;

  // ---- Dynamic confirmation via concolic replay of selected tests ---------
  // The test whose hit supplied the narration's witness model, when no
  // static path did.
  std::string narration_hit_test;
  if (options.run_concolic && !skip_concolic) {
    obs::ScopedSpan concolic_span("checker.concolic");
    std::vector<std::string> tests = options.forced_tests;
    if (tests.empty()) {
      // Per-path selection (§3.2: "selects relevant tests for each path"):
      // rank the suite against each path's description, then take picks
      // round-robin across paths so every path gets its best candidates
      // before any path gets its second-best.
      obs::ScopedSpan select_span("checker.select_tests");
      const inference::TestSelector selector(program);
      std::vector<std::vector<inference::TestRanking>> rankings;
      rankings.reserve(tree.paths.size());
      for (const analysis::ExecutionPath& path : tree.paths)
        rankings.push_back(
            selector.rank(contract.target_fragment + " " + contract.condition_text + " " +
                          inference::TestSelector::describe_path(path)));
      select_span.attr("tests", selector.test_count());
      select_span.attr("paths", tree.paths.size());
      select_span.close();
      std::set<std::string> seen;
      for (std::size_t round = 0; tests.size() < options.max_tests_per_contract; ++round) {
        bool any = false;
        for (const std::vector<inference::TestRanking>& ranking : rankings) {
          if (round >= ranking.size()) continue;
          if (ranking[round].score < kMinTestScore) continue;
          any = true;
          if (seen.insert(ranking[round].test_name).second) {
            tests.push_back(ranking[round].test_name);
            if (tests.size() >= options.max_tests_per_contract) break;
          }
        }
        if (!any) break;
      }
    }
    report.dynamic.selected_tests = tests;

    concolic::Engine engine(program);
    concolic::CheckConfig config;
    config.target_stmt_ids = target_ids;
    config.contract = contract.condition;
    config.prune_irrelevant = options.prune_irrelevant;
    config.budget = options.budget;
    config.capture = capture;
    for (const std::string& test : tests) {
      if (options.budget != nullptr && options.budget->exhausted()) {
        // Unrun tests degrade the run count, not the verdict: the report's
        // budget_exhausted flag marks the contract as needing attention.
        ++report.dynamic.degraded_runs;
        continue;
      }
      const concolic::RunResult run = engine.run_test(test, config);
      ++report.dynamic.tests_run;
      if (run.test_passed) ++report.dynamic.tests_passed;
      if (run.degraded()) ++report.dynamic.degraded_runs;
      for (const concolic::TargetHit& hit : run.hits) {
        ++report.dynamic.target_hits;
        if (hit.inconclusive) ++report.dynamic.inconclusive_hits;
        if (hit.symbolic_violation) {
          ++report.dynamic.symbolic_violations;
          report.dynamic.violation_details.push_back(
              test + " -> " + hit.function + ": missing-check path, witness " + hit.witness);
        }
        if (hit.concrete_violation) {
          ++report.dynamic.concrete_violations;
          report.dynamic.violation_details.push_back(
              test + " -> " + hit.function + ": contract concretely false at target");
        }
        if (hit.symbolic_violation && narration.target_stmt_id < 0 &&
            !(hit.witness_bools.empty() && hit.witness_ints.empty())) {
          // No static path produced a model (e.g. all paths unmappable):
          // fall back to this hit's π ∧ ¬P witness for the narration.
          narration.model_bools = hit.witness_bools;
          narration.model_ints = hit.witness_ints;
          narration.target_stmt_id = hit.stmt_id;
          narration_hit_test = test;
        }
        if (capture.active()) {
          obs::HitEvidence evidence;
          evidence.test = test;
          evidence.function = hit.function;
          evidence.stmt_id = hit.stmt_id;
          evidence.trace_condition =
              hit.trace_condition != nullptr ? hit.trace_condition->to_string() : "";
          evidence.instantiated_contract =
              hit.instantiated_contract != nullptr ? hit.instantiated_contract->to_string()
                                                   : "";
          evidence.outcome = hit.concrete_violation   ? "concrete-violation"
                             : hit.symbolic_violation ? "symbolic-violation"
                             : hit.inconclusive       ? "inconclusive"
                                                      : "ok";
          evidence.witness = hit.witness;
          capture.hit(std::move(evidence));
        }
        // Mark static paths covered by this hit.
        for (PathReport& path : report.paths) {
          if (path.target_stmt_id != hit.stmt_id) continue;
          if (!chain_suffix_matches(hit.call_chain, path.call_chain)) continue;
          path.covered_by_test = true;
          if (std::find(path.covering_tests.begin(), path.covering_tests.end(), test) ==
              path.covering_tests.end())
            path.covering_tests.push_back(test);
        }
      }
    }
    for (const PathReport& path : report.paths)
      if (!path.covered_by_test) ++report.uncovered;
    concolic_span.attr("tests_run", report.dynamic.tests_run);
    concolic_span.attr("target_hits", report.dynamic.target_hits);
  }
  stamp_budget(report, options.budget);

  // Narration candidates: tests covering the violated path, then the test
  // whose hit supplied the witness, then every selected test.
  narration.contract = contract.condition;
  for (const PathReport& path : report.paths) {
    if (path.verdict != PathVerdict::kViolated) continue;
    for (const std::string& test : path.covering_tests)
      narration.candidate_tests.push_back(test);
  }
  if (!narration_hit_test.empty()) narration.candidate_tests.push_back(narration_hit_test);
  for (const std::string& test : report.dynamic.selected_tests)
    narration.candidate_tests.push_back(test);
}

}  // namespace

ContractCheckReport Checker::check(const staticcheck::Screener& analysis,
                                   const SemanticContract& contract,
                                   const CheckOptions& options) const {
  obs::ScopedSpan span("checker.contract");
  span.attr("contract", contract.id);
  span.attr("target", contract.target_fragment);
  const minilang::Program& program = analysis.program();

  // ---- Setup: capture, target count --------------------------------------
  ContractCheckReport report;
  report.contract_id = contract.id;
  report.target_fragment = contract.target_fragment;
  const obs::CaptureHandle capture = bind_capture(options.ledger, contract);
  std::vector<int> target_ids;
  for (const analysis::StatementHeader* target : analysis.graph().targets(contract.target_fragment))
    target_ids.push_back(target->stmt->id);
  report.target_statements = target_ids.size();

  // ---- Per-kind verdict step ----------------------------------------------
  staticcheck::ScreenOptions screen_options;
  screen_options.max_paths = options.max_paths;
  screen_options.prune_irrelevant = options.prune_irrelevant;
  screen_options.capture = capture;
  obs::NarrationRequest narration;
  std::optional<concolic::ScheduleWitness> schedule_witness;
  if (contract.kind == corpus::SemanticsKind::kStructuralPattern) {
    screen_lock_state(analysis, screen_options, report);
  } else if (contract.kind == corpus::SemanticsKind::kInterleavingSensitive &&
             (contract.pattern == "atomic" || contract.pattern == "eventually")) {
    schedule_witness = explore_schedules(program, options, report);
  } else if (contract.kind == corpus::SemanticsKind::kInterleavingSensitive) {
    screen_locksets(analysis, contract, screen_options, report, narration);
  } else {
    check_paths(analysis, contract, target_ids, options, screen_options, report, narration);
  }

  // ---- Tail: narration, capture, metrics ----------------------------------
  if (capture.active() && !report.passed()) {
    if (schedule_witness.has_value()) {
      // Replay the violating interleaving with a recording observer, each
      // step tagged with its MiniLang thread id.
      capture.capture->narration = concolic::narrate_schedule(program, *schedule_witness);
    } else {
      // The step's own candidates first, then the rest of the suite; the
      // narrator dedups and returns the first reproduction.
      narration.contract_id = contract.id;
      narration.kind = capture.capture->kind;
      narration.target_stmt_ids = std::move(target_ids);
      for (const minilang::FuncDecl* fn : program.functions_with("test"))
        narration.candidate_tests.push_back(fn->name);
      capture.capture->narration = obs::narrate_counterexample(program, narration);
    }
  }
  finalize_capture(capture, report, options.budget);
  record_contract_outcome(span, report, span.elapsed_ms());
  return report;
}

}  // namespace lisa::core
