// Robustness harness tests: resource budgets, fault injection, inference
// retries, and checkpoint/resume. The common thread is monotone degradation
// — refused or faulted work must surface as a structured inconclusive
// outcome, never as a crash, a silent pass, or a flipped verdict.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "concolic/explorer.hpp"
#include "corpus/ticket.hpp"
#include "inference/mock_llm.hpp"
#include "lisa/ci_gate.hpp"
#include "lisa/contract.hpp"
#include "lisa/journal.hpp"
#include "lisa/pipeline.hpp"
#include "minilang/interp.hpp"
#include "minilang/parser.hpp"
#include "minilang/sema.hpp"
#include "obs/history.hpp"
#include "obs/provenance.hpp"
#include "smt/minilang_bridge.hpp"
#include "smt/solver.hpp"
#include "staticcheck/screener.hpp"
#include "support/budget.hpp"
#include "support/faultpoint.hpp"
#include "support/jsonl.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace lisa {
namespace {

using core::CheckOptions;
using core::Checker;
using core::ContractCheckReport;
using core::PathVerdict;
using core::Pipeline;
using core::PipelineResult;
using support::Budget;
using support::BudgetLimits;
using support::BudgetResource;
using support::FaultAction;
using support::FaultRegistry;

PipelineResult pipeline_result(const Pipeline& pipeline, const corpus::FailureTicket& ticket,
                               const core::PipelineRunOptions& options = {}) {
  return pipeline.run(ticket, ticket.patched_source, options);
}

/// Every test runs with a disarmed registry; the fixture guarantees that a
/// failing test cannot leak armed fault points into its neighbours.
class Robustness : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::instance().clear(); }
  void TearDown() override { FaultRegistry::instance().clear(); }

  static std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "lisa_robustness_" + name;
  }

  static inference::RetryPolicy fast_retries(int max_attempts = 3) {
    inference::RetryPolicy policy;
    policy.max_attempts = max_attempts;
    policy.sleep_between_attempts = false;
    return policy;
  }
};

// ---------------------------------------------------------------------------
// Budget semantics.

TEST_F(Robustness, BudgetLatchesOnFirstExhaustedResource) {
  BudgetLimits limits;
  limits.max_smt_queries = 2;
  Budget budget(limits);
  EXPECT_TRUE(budget.charge_smt_query());
  EXPECT_TRUE(budget.charge_smt_query());
  EXPECT_FALSE(budget.charge_smt_query());  // the cutoff charge is refused
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.exhausted_resource(), BudgetResource::kSmtQueries);
  // Once latched, every other resource is refused too — but the reason
  // still names the *first* resource that ran out.
  EXPECT_FALSE(budget.charge_path());
  EXPECT_FALSE(budget.charge_steps(100));
  EXPECT_EQ(budget.exhausted_resource(), BudgetResource::kSmtQueries);
  EXPECT_NE(budget.exhausted_reason().find("SMT"), std::string::npos);
}

TEST_F(Robustness, UnlimitedBudgetNeverExhausts) {
  Budget budget;  // default-constructed = unlimited
  for (int i = 0; i < 10000; ++i) EXPECT_TRUE(budget.charge_smt_query());
  EXPECT_TRUE(budget.charge_steps(1 << 20));
  EXPECT_TRUE(budget.check());
  EXPECT_FALSE(budget.exhausted());
  EXPECT_EQ(budget.exhausted_reason(), "");
}

TEST_F(Robustness, DeadlineExhaustsViaPoll) {
  BudgetLimits limits;
  limits.deadline_ms = 0.001;  // already past by the first poll
  Budget budget(limits);
  while (budget.elapsed_ms() <= limits.deadline_ms) {}
  EXPECT_FALSE(budget.check());
  EXPECT_EQ(budget.exhausted_resource(), BudgetResource::kDeadline);
  EXPECT_NE(budget.exhausted_reason().find("deadline"), std::string::npos);
  EXPECT_FALSE(budget.charge_path());
}

TEST_F(Robustness, BudgetCountsSpendEvenWhenUnlimited) {
  Budget budget;
  (void)budget.charge_smt_query();
  (void)budget.charge_path();
  (void)budget.charge_fork_point();
  (void)budget.charge_steps(42);
  EXPECT_EQ(budget.smt_queries(), 1);
  EXPECT_EQ(budget.paths(), 1);
  EXPECT_EQ(budget.fork_points(), 1);
  EXPECT_EQ(budget.steps(), 42);
}

// ---------------------------------------------------------------------------
// Fault-point registry.

TEST_F(Robustness, FaultSpecParsesActionsAndCounts) {
  FaultRegistry& registry = FaultRegistry::instance();
  ASSERT_TRUE(registry.configure("smt.solve=timeout,infer.propose=fail:2"));
  const std::vector<std::string> armed = registry.armed_sites();
  EXPECT_EQ(armed.size(), 2u);
  // Unbounded site fires on every arrival.
  EXPECT_EQ(registry.consume("smt.solve"), FaultAction::kTimeout);
  EXPECT_EQ(registry.consume("smt.solve"), FaultAction::kTimeout);
  // Counted site spends itself after two firings.
  EXPECT_EQ(registry.consume("infer.propose"), FaultAction::kFail);
  EXPECT_EQ(registry.consume("infer.propose"), FaultAction::kFail);
  EXPECT_EQ(registry.consume("infer.propose"), FaultAction::kNone);
  EXPECT_EQ(registry.triggered("infer.propose"), 2);
  EXPECT_EQ(registry.consume("never.armed"), FaultAction::kNone);
}

TEST_F(Robustness, MalformedFaultSpecDisarmsLoudly) {
  FaultRegistry& registry = FaultRegistry::instance();
  EXPECT_FALSE(registry.configure("smt.solve=explode"));
  EXPECT_TRUE(registry.armed_sites().empty());
  EXPECT_EQ(registry.consume("smt.solve"), FaultAction::kNone);
  EXPECT_FALSE(registry.configure("smt.solve=fail:banana"));
  EXPECT_FALSE(registry.configure("=fail"));
}

TEST_F(Robustness, DelayFaultPerturbsTimingNotControlFlow) {
  ASSERT_TRUE(FaultRegistry::instance().configure("smt.solve=delay:1"));
  // The helper sleeps in place and reports kNone: delay sites never change
  // a caller's branch.
  EXPECT_EQ(support::faultpoint("smt.solve"), FaultAction::kNone);
  EXPECT_GE(FaultRegistry::instance().triggered("smt.solve"), 1);
}

// ---------------------------------------------------------------------------
// Per-stage degradation under injected faults.

TEST_F(Robustness, SolverFaultYieldsUnknownNeverUnsat) {
  ASSERT_TRUE(FaultRegistry::instance().configure("smt.solve=timeout"));
  smt::Solver solver;
  const smt::FormulaPtr tautology = smt::Formula::truth(true);
  const smt::SolveResult result = solver.solve(tautology);
  EXPECT_TRUE(result.unknown());
  EXPECT_FALSE(result.sat());
  EXPECT_NE(result.reason.find("fault"), std::string::npos);
  // implies() must stay conservative: an unknown query proves nothing.
  EXPECT_FALSE(solver.implies(tautology, tautology));
}

TEST_F(Robustness, SolverBudgetRefusalIsUnknown) {
  BudgetLimits limits;
  limits.max_smt_queries = 1;
  Budget budget(limits);
  smt::Solver solver;
  solver.set_budget(&budget);
  const smt::FormulaPtr tautology = smt::Formula::truth(true);
  EXPECT_FALSE(solver.solve(tautology).unknown());
  const smt::SolveResult refused = solver.solve(tautology);
  EXPECT_TRUE(refused.unknown());
  EXPECT_NE(refused.reason.find("budget"), std::string::npos);
}

TEST_F(Robustness, StepLimitIsAStructuredOutcome) {
  const minilang::Program program =
      minilang::parse_checked("fn main() { while (true) { let x = 1; } }");
  minilang::Interp interp(program);
  interp.set_fuel(100);
  try {
    (void)interp.call("main", {});
    FAIL() << "expected StepLimitExceeded";
  } catch (const minilang::StepLimitExceeded& limit) {
    EXPECT_EQ(limit.limit(), 100);
    EXPECT_NE(std::string(limit.what()).find("step limit"), std::string::npos);
  }
}

TEST_F(Robustness, ExplorerFaultSkipsPathsInsteadOfJudging) {
  const minilang::Program program = minilang::parse_checked(R"(
struct Account { frozen: bool; }
fn debit(a: Account) { print(a); }
@entry
fn pay(a: Account?) {
  if (a == null) { throw "missing"; }
  debit(a);
}
)");
  ASSERT_TRUE(FaultRegistry::instance().configure("explorer.path=fail"));
  const concolic::ExplorationReport report =
      concolic::explore(program, "debit(", *smt::parse_condition("!(a == null)"));
  EXPECT_EQ(report.verified + report.violated, 0);
  EXPECT_EQ(report.skipped, static_cast<int>(report.paths.size()));
  for (const concolic::ExploredPath& path : report.paths)
    EXPECT_EQ(path.verdict, concolic::ExploredVerdict::kSkipped);
}

TEST_F(Robustness, SummaryFaultDegradesScreenerWithoutCrashing) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  ASSERT_NE(ticket, nullptr);
  ASSERT_TRUE(FaultRegistry::instance().configure("summaries.fixpoint=fail"));
  const Pipeline pipeline;
  const PipelineResult degraded = pipeline.run(*ticket, ticket->patched_source);
  FaultRegistry::instance().clear();
  const PipelineResult healthy = pipeline.run(*ticket, ticket->patched_source);
  // Summaries only sharpen screening — losing them must not change verdicts.
  ASSERT_EQ(degraded.reports.size(), healthy.reports.size());
  for (std::size_t i = 0; i < healthy.reports.size(); ++i) {
    EXPECT_EQ(degraded.reports[i].verified, healthy.reports[i].verified);
    EXPECT_EQ(degraded.reports[i].violated, healthy.reports[i].violated);
    EXPECT_EQ(degraded.reports[i].passed(), healthy.reports[i].passed());
  }
}

TEST_F(Robustness, SummaryFailureIsNotRetriedWithinOneAnalysis) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  ASSERT_NE(ticket, nullptr);
  const minilang::Program program = minilang::parse_checked(ticket->patched_source);
  ASSERT_TRUE(FaultRegistry::instance().configure("summaries.fixpoint=fail:1"));
  const staticcheck::Screener analysis(program);
  EXPECT_EQ(analysis.summaries(), nullptr);
  // The fault is spent, yet the analysis stays summary-free for the rest of
  // its evaluation instead of computing again.
  EXPECT_EQ(analysis.summaries(), nullptr);
  EXPECT_EQ(analysis.lock_graph(), nullptr);
  EXPECT_EQ(analysis.summary_ms(), 0.0);
  EXPECT_NE(staticcheck::Screener(program).summaries(), nullptr);
}

TEST_F(Robustness, SerializeFaultEmitsDegradedStub) {
  ContractCheckReport report;
  report.contract_id = "case#0";
  report.verified = 2;
  ASSERT_TRUE(FaultRegistry::instance().configure("report.serialize=fail"));
  const support::Json stub = report.to_json();
  ASSERT_TRUE(stub.has("serialization_degraded"));
  EXPECT_TRUE(stub.at("serialization_degraded").as_bool());
  EXPECT_EQ(stub.at("contract_id").as_string(), "case#0");
  FaultRegistry::instance().clear();
  EXPECT_FALSE(report.to_json().has("serialization_degraded"));
}

// ---------------------------------------------------------------------------
// Inference hardening: retries, validation, typed errors.

TEST_F(Robustness, TransientBackendFailuresAreRetriedToSuccess) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  ASSERT_NE(ticket, nullptr);
  inference::MockLlmOptions options;
  options.transient_failures = 2;
  const inference::MockLlm llm(options);
  const inference::InferenceOutcome outcome = inference::infer_with_retry(
      [&] { return llm.infer(*ticket); }, ticket->case_id, fast_retries(3));
  EXPECT_TRUE(outcome.succeeded);
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_EQ(outcome.transient_errors, 2);
  EXPECT_EQ(outcome.proposal.case_id, ticket->case_id);
}

TEST_F(Robustness, MalformedResponsesFailValidationThenRecover) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  inference::MockLlmOptions options;
  options.malformed_responses = 1;
  const inference::MockLlm llm(options);
  const inference::InferenceOutcome outcome = inference::infer_with_retry(
      [&] { return llm.infer(*ticket); }, ticket->case_id, fast_retries(3));
  EXPECT_TRUE(outcome.succeeded);
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_EQ(outcome.validation_failures, 1);
}

TEST_F(Robustness, RetryBudgetExhaustionIsAStructuredFailure) {
  const inference::InferenceOutcome outcome = inference::infer_with_retry(
      [&]() -> inference::SemanticsProposal {
        throw inference::InferenceError("case-x", "connection reset", /*transient=*/true);
      },
      "case-x", fast_retries(2));
  EXPECT_FALSE(outcome.succeeded);
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_EQ(outcome.transient_errors, 2);
  EXPECT_NE(outcome.error.find("case-x"), std::string::npos);
}

TEST_F(Robustness, TerminalInferenceErrorStopsImmediately) {
  int calls = 0;
  const inference::InferenceOutcome outcome = inference::infer_with_retry(
      [&]() -> inference::SemanticsProposal {
        ++calls;
        throw inference::InferenceError("case-y", "corpus corrupted", /*transient=*/false);
      },
      "case-y", fast_retries(5));
  EXPECT_FALSE(outcome.succeeded);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(outcome.attempts, 1);
}

TEST_F(Robustness, ValidateProposalCatchesFreeFormOutput) {
  inference::SemanticsProposal proposal;
  proposal.case_id = "other-case";
  EXPECT_NE(inference::validate_proposal(proposal, "the-case"), "");
  proposal.case_id = "the-case";
  proposal.low_level.push_back({"desc", "", ""});
  EXPECT_NE(inference::validate_proposal(proposal, "the-case"), "");
  proposal.low_level[0].target_statement = "f(";
  proposal.low_level[0].condition_statement = "x > 0";
  EXPECT_EQ(inference::validate_proposal(proposal, "the-case"), "");
}

TEST_F(Robustness, PipelineSurvivesInferenceLossAsStructuredFailure) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  inference::MockLlmOptions options;
  options.transient_failures = 10;  // more than any retry budget
  Pipeline pipeline(options, CheckOptions{});
  pipeline.set_retry_policy(fast_retries(2));
  const PipelineResult result = pipeline.run(*ticket, ticket->patched_source);
  EXPECT_TRUE(result.inference_failed);
  EXPECT_FALSE(result.all_passed());
  EXPECT_TRUE(result.reports.empty());
  EXPECT_EQ(result.inference_attempts, 2);
  EXPECT_NE(result.inference_error.find(ticket->case_id), std::string::npos);
  EXPECT_TRUE(result.to_json().has("inference_failed"));
}

TEST_F(Robustness, InferFaultPointFiresThroughTheRegistry) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  ASSERT_TRUE(FaultRegistry::instance().configure("infer.propose=fail:1"));
  const inference::MockLlm llm;
  const inference::InferenceOutcome outcome = inference::infer_with_retry(
      [&] { return llm.infer(*ticket); }, ticket->case_id, fast_retries(3));
  EXPECT_TRUE(outcome.succeeded);
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_EQ(FaultRegistry::instance().triggered("infer.propose"), 1);
}

// ---------------------------------------------------------------------------
// Budget-governed checking: inconclusive, never flipped.

TEST_F(Robustness, TightBudgetDegradesMonotonically) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  const Pipeline reference;
  const PipelineResult ungoverned = pipeline_result(reference, *ticket);

  BudgetLimits limits;
  limits.max_smt_queries = 1;
  Budget budget(limits);
  CheckOptions governed_options;
  governed_options.budget = &budget;
  const Pipeline governed_pipeline(inference::MockLlmOptions{}, governed_options);
  const PipelineResult governed = pipeline_result(governed_pipeline, *ticket);

  EXPECT_TRUE(budget.exhausted());
  ASSERT_EQ(governed.reports.size(), ungoverned.reports.size());
  int inconclusive_total = 0;
  for (std::size_t i = 0; i < governed.reports.size(); ++i) {
    const ContractCheckReport& cut = governed.reports[i];
    const ContractCheckReport& full = ungoverned.reports[i];
    // Refused work may only *remove* settled verdicts, never add or flip.
    EXPECT_LE(cut.verified, full.verified);
    EXPECT_LE(cut.violated, full.violated);
    inconclusive_total += cut.inconclusive + cut.dynamic.inconclusive_hits +
                          cut.dynamic.degraded_runs;
    if (!cut.conclusive()) {
      EXPECT_TRUE(cut.budget_exhausted || cut.inconclusive > 0);
    }
  }
  EXPECT_GT(inconclusive_total, 0);
  EXPECT_FALSE(governed.all_passed());  // inconclusive is never a green light
}

// ---------------------------------------------------------------------------
// Checkpoint journal + resume.

TEST_F(Robustness, ReportJsonRoundTripsThroughTheJournalFormat) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  const Pipeline pipeline;
  const PipelineResult result = pipeline_result(pipeline, *ticket);
  ASSERT_FALSE(result.reports.empty());
  for (const ContractCheckReport& original : result.reports) {
    const ContractCheckReport back = ContractCheckReport::from_json(original.to_json());
    EXPECT_EQ(back.contract_id, original.contract_id);
    EXPECT_EQ(back.verified, original.verified);
    EXPECT_EQ(back.violated, original.violated);
    EXPECT_EQ(back.unmappable, original.unmappable);
    EXPECT_EQ(back.inconclusive, original.inconclusive);
    EXPECT_EQ(back.sanity_ok, original.sanity_ok);
    EXPECT_EQ(back.passed(), original.passed());
    EXPECT_EQ(back.conclusive(), original.conclusive());
    EXPECT_EQ(back.dynamic.symbolic_violations, original.dynamic.symbolic_violations);
    ASSERT_EQ(back.paths.size(), original.paths.size());
    for (std::size_t i = 0; i < back.paths.size(); ++i) {
      EXPECT_EQ(back.paths[i].verdict, original.paths[i].verdict);
      EXPECT_EQ(back.paths[i].call_chain, original.paths[i].call_chain);
    }
  }
}

/// The contracts `lisa gate <case>` stores for each case: the mock LLM's
/// proposal, translated.
core::ContractStore store_of(std::initializer_list<const char*> case_ids) {
  core::ContractStore store;
  for (const char* case_id : case_ids) {
    const corpus::FailureTicket* ticket = corpus::Corpus::find(case_id);
    EXPECT_NE(ticket, nullptr) << case_id;
    store.add_all(
        core::translate(inference::MockLlm().infer(*ticket), ticket->system).contracts);
  }
  return store;
}

/// The gate's static fast path, as `lisa gate` runs it.
core::CiGate static_gate() {
  CheckOptions options;
  options.run_concolic = false;
  return core::CiGate(options);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

std::vector<std::string> signatures(const core::GateDecision& decision) {
  std::vector<std::string> out;
  for (const ContractCheckReport& report : decision.reports)
    out.push_back(report.verdict_signature());
  return out;
}

// ---------------------------------------------------------------------------
// Persisted records read back by one rule: a mistyped value reads as an
// absent one (the member keeps its default), an integer saturates into its
// member's type, and a list or map element of the wrong type is skipped.

using support::Json;
using support::JsonArray;
using support::JsonObject;

/// A key path into a JSON value; "" steps into an array's first element.
using KeyPath = std::vector<std::string>;

/// Every path in `json` (the root first), through every object key and the
/// first element of every array.
void collect_paths(const Json& json, KeyPath& prefix, std::vector<KeyPath>& out) {
  out.push_back(prefix);
  if (json.is_object()) {
    for (const auto& [key, value] : json.as_object()) {
      prefix.push_back(key);
      collect_paths(value, prefix, out);
      prefix.pop_back();
    }
  } else if (json.is_array() && !json.as_array().empty()) {
    prefix.push_back("");
    collect_paths(json.as_array()[0], prefix, out);
    prefix.pop_back();
  }
}

Json* locate(Json& json, const KeyPath& path, std::size_t depth) {
  Json* at = &json;
  for (std::size_t i = 0; i < depth; ++i) {
    if (path[i].empty()) {
      at = &at->as_array()[0];
    } else {
      if (!at->has(path[i])) return nullptr;
      at = &at->as_object().at(path[i]);
    }
  }
  return at;
}

/// The JSON type of a value; an int and a double are both numbers.
int json_type(const Json& json) {
  if (json.is_null()) return 0;
  if (json.is_bool()) return 1;
  if (json.is_number()) return 2;
  if (json.is_string()) return 3;
  return json.is_array() ? 4 : 5;
}

/// True when every element of `container` has `value`'s JSON type, so
/// `value` could be a well-typed element of it (a list or a map).
bool could_hold(const Json& container, const Json& value) {
  const auto same = [&](const Json& element) { return json_type(element) == json_type(value); };
  if (container.is_array())
    return std::all_of(container.as_array().begin(), container.as_array().end(), same);
  return std::all_of(container.as_object().begin(), container.as_object().end(),
                     [&](const auto& entry) { return same(entry.second); });
}

/// Mutates every key of `sample` in turn and reads each mutant back through
/// `reread` (from_json, then to_json): no mutant throws, a mistyped value
/// reads as the absent key, a number too large for an integer member reads
/// as the member type's maximum, a foreign element of a list or map is
/// skipped, and anything but an object reads as the default record.
void expect_one_reader_rule(const std::string& record, const Json& sample,
                            const std::function<Json(const Json&)>& reread,
                            const std::set<std::string>& int64_keys = {}) {
  const std::vector<Json> values = {Json(5),          Json("x"),         Json(JsonArray{}),
                                    Json(JsonObject{}), Json(true), Json(nullptr),
                                    Json(1e300)};
  const auto read = [&](const Json& json) {
    Json out;
    EXPECT_NO_THROW(out = reread(json)) << record << ": " << json.dump();
    return out.dump();
  };
  const std::string empty = read(Json(JsonObject{}));
  for (const Json& value : values)
    if (!value.is_object()) EXPECT_EQ(read(value), empty) << record << " as " << value.dump();

  const std::string baseline = read(sample);
  std::vector<KeyPath> paths;
  KeyPath prefix;
  collect_paths(sample, prefix, paths);
  for (const KeyPath& path : paths) {
    const std::string where = record + " " + support::join(path, ".");
    Json original = sample;
    const Json& at = *locate(original, path, path.size());
    if (at.is_array() || at.is_object()) {
      for (const Json& value : values) {
        if (could_hold(at, value)) continue;
        Json mutated = sample;
        Json& container = *locate(mutated, path, path.size());
        if (container.is_array())
          container.as_array().push_back(value);
        else
          container.as_object()["foreign"] = value;
        EXPECT_EQ(read(mutated), baseline) << where << " + " << value.dump();
      }
    }
    if (path.empty() || path.back().empty()) continue;
    Json absent = sample;
    locate(absent, path, path.size() - 1)->as_object().erase(path.back());
    const std::string without = read(absent);
    for (const Json& value : values) {
      Json mutated = sample;
      *locate(mutated, path, path.size()) = value;
      const std::string got = read(mutated);
      if (json_type(value) != json_type(at)) {
        EXPECT_EQ(got, without) << where << " = " << value.dump();
      } else if (at.is_int() && value.is_double()) {
        Json back = Json::parse(got);
        const Json* saturated = locate(back, path, path.size());
        ASSERT_NE(saturated, nullptr) << where;
        const bool wide = int64_keys.count(path.back()) > 0 ||
                          (path.size() > 1 && int64_keys.count(path[path.size() - 2]) > 0);
        EXPECT_EQ(saturated->as_int(), wide ? std::numeric_limits<std::int64_t>::max()
                                            : std::numeric_limits<int>::max())
            << where;
      }
    }
  }
}

constexpr const char* kReportSample = R"json({
  "contract_id": "c#0", "target_fragment": "create(", "target_statements": 2,
  "verified": 1, "violated": 1, "unmappable": 1, "inconclusive": 1, "uncovered": 1,
  "raw_paths": 5, "truncated": true, "sanity_ok": true, "passed": false, "conclusive": false,
  "budget_exhausted": true, "budget_reason": "step limit", "budget_resource": "steps",
  "paths": [{"chain": "main -> create", "target_stmt": "create(s);", "target_stmt_id": 7,
             "path_condition": "true", "contract_condition": "(s.closing == false)",
             "verdict": "violated", "counterexample": "s.closing = true", "detail": "refused",
             "covered_by_test": true, "covering_tests": ["t_create"]}],
  "dynamic": {"selected_tests": ["t_create"], "tests_run": 2, "tests_passed": 1,
              "target_hits": 3, "symbolic_violations": 1, "concrete_violations": 1,
              "inconclusive_hits": 1, "degraded_runs": 1, "violation_details": ["v"]},
  "structural_violations": ["blocking call under sync"],
  "screen": {"verdict": "unknown", "witness": "main -> create", "reason": "no fact",
             "elapsed_ms": 1.5, "skipped_concolic": true},
  "schedule": {"explored": 3, "conclusive": false, "violations": 1, "witness": "s0:1,0",
               "reason": "bound reached", "violation_details": ["t1 lost an update"]},
  "slice_fp": "fp0"})json";

TEST_F(Robustness, MistypedRecordFieldsLoadAsDefaults) {
  const Json report = Json::parse(kReportSample);
  expect_one_reader_rule(
      "report", report,
      [](const Json& json) { return ContractCheckReport::from_json(json).to_json(); },
      {"target_statements", "raw_paths"});

  Json capture = Json::parse(R"json({
    "contract_id": "c#0", "system": "zookeeper", "kind": "state-predicate",
    "target_fragment": "create(", "condition_text": "s.closing == false",
    "description": "no create on a closing session", "fingerprint": "f0",
    "facts": [{"analysis": "nullness", "function": "create", "line": 3, "column": 5,
               "fact": "s#null = non-null"}],
    "smt_queries": [{"phase": "static-path", "query": "(x > 0)", "digest": "d0",
                     "status": "sat", "model": "x = 1", "reason": "why"}],
    "hits": [{"test": "t_create", "function": "create", "stmt_id": 7,
              "trace_condition": "s.closing", "instantiated_contract": "!(s.closing)",
              "outcome": "concrete-violation", "witness": "s.closing = true"}],
    "budget": {"attached": true, "exhausted": true, "resource": "steps",
               "reason": "step limit", "charges": {"paths": 3, "steps": 10}},
    "narration": {"kind": "schedule-replay", "test": "t_create", "reproduced": true,
                  "steps": [{"function": "create", "line": 7, "stmt": "let n = 1;",
                             "sync_depth": 1, "thread": 2, "note": "n := 1"}],
                  "predicate": [{"text": "s.closing == false", "value": "false",
                                 "holds": false}],
                  "detail": "replayed"},
    "digest": "0123456789abcdef"})json");
  capture.as_object()["report"] = report;
  expect_one_reader_rule(
      "capture", capture,
      [](const Json& json) {
        const obs::ContractCapture loaded = obs::ContractCapture::from_json(json);
        Json out = loaded.to_json();  // holds a fresh digest; show the loaded one
        out.as_object()["digest"] = loaded.digest;
        return out;
      },
      {"target_statements", "raw_paths", "charges"});

  const std::string path = temp_path("mistyped_proposal.jsonl");
  expect_one_reader_rule(
      "proposal evidence",
      Json::parse(R"json({"case_id": "c", "high_level": "h", "low_level": ["l0", "l1"],
                          "succeeded": false, "attempts": 3, "transient_errors": 2,
                          "validation_failures": 1, "error": "gave up"})json"),
      [&](const Json& proposal) {
        JsonObject line;
        line["proposal"] = proposal;
        write_file(path, support::jsonl_header(obs::ProvenanceLedger::kLedgerKind,
                                               obs::ProvenanceLedger::kLedgerVersion, "f") +
                             "\n" + Json(std::move(line)).dump() + "\n");
        obs::ProvenanceLedger ledger;
        EXPECT_TRUE(ledger.load_jsonl(path));
        return ledger.to_json().at("proposal");
      });
  std::remove(path.c_str());

  expect_one_reader_rule(
      "run record",
      Json::parse(R"json({"kind": "gate", "label": "l", "input_fingerprint": "i",
                          "smt_digest": "s",
                          "contracts": {"c#0": {"verdict": "violated", "passed": false,
                                                "conclusive": false, "signature_digest": "g",
                                                "slice_fp": "f", "smt_queries": 7}},
                          "metrics": {"evaluation_ms": 1.5}, "meta": {"git_sha": "abc"}})json"),
      [](const Json& json) { return obs::RunRecord::from_json(json).to_json(); },
      {"smt_queries"});
  // An outcome's flags default to true, as a fresh ContractOutcome's do.
  const obs::RunRecord bare =
      obs::RunRecord::from_json(Json::parse(R"({"kind":"gate","contracts":{"c#0":{}}})"));
  EXPECT_TRUE(bare.contracts.at("c#0").passed);
  EXPECT_TRUE(bare.contracts.at("c#0").conclusive);

  const Json contract = Json::parse(R"json({
    "id": "c#0", "case_id": "c", "system": "zookeeper", "kind": "structural_pattern",
    "description": "d", "high_level": "h", "target_fragment": "create(",
    "condition_text": "s.closing == false", "pattern": "no_blocking_in_sync"})json");
  expect_one_reader_rule("contract", contract, [](const Json& json) {
    const core::SemanticContract loaded = core::SemanticContract::from_json(json);
    Json out = loaded.to_json();
    out.as_object()["condition parsed"] = loaded.condition != nullptr;
    return out;
  });
  JsonObject store;
  store["contracts"] = Json(JsonArray{contract});
  expect_one_reader_rule("store", Json(std::move(store)), [](const Json& json) {
    return core::ContractStore::from_json(json).to_json();
  });

  expect_one_reader_rule(
      "semantics proposal",
      Json::parse(R"json({"case_id": "c", "high_level_semantics": "h",
                          "low_level_semantics": [{"description": "d",
                                                   "target_statement": "create(",
                                                   "condition_statement": "a.b > 0"}],
                          "reasoning": "r", "kind": "interleaving_sensitive",
                          "pattern": "guarded_field"})json"),
      [](const Json& json) { return inference::SemanticsProposal::from_json(json).to_json(); });

  // A path entry whose verdict is absent or unreadable is inconclusive, as
  // one naming an unknown verdict is.
  const ContractCheckReport unnamed = ContractCheckReport::from_json(
      Json::parse(R"({"paths":[{},{"verdict":5},{"verdict":"?"}]})"));
  ASSERT_EQ(unnamed.paths.size(), 3u);
  for (const core::PathReport& entry : unnamed.paths)
    EXPECT_EQ(entry.verdict, PathVerdict::kInconclusive);
}

/// Two contracts, both with targets in zk-1208's patched source.
const std::string& two_contract_source() {
  return corpus::Corpus::find("zk-1208-ephemeral-create")->patched_source;
}
core::ContractStore two_contract_store() {
  return store_of({"zk-1208-ephemeral-create", "zk-2201-sync-serialize"});
}

TEST_F(Robustness, JournalSurvivesTornTail) {
  // A crash mid-append tears the last capture line: every line before it
  // still replays, and the torn contract is checked again.
  const core::ContractStore store = two_contract_store();
  const std::string path = temp_path("torn.jsonl");
  const core::CiGate gate = static_gate();
  core::GateRunOptions journaling;
  journaling.journal_path = path;
  const core::GateDecision cold = gate.evaluate(two_contract_source(), store, journaling);
  ASSERT_EQ(cold.reports.size(), 2u);
  const std::string journal = read_file(path);
  const std::size_t last_line = journal.rfind('\n', journal.size() - 2) + 1;
  write_file(path, journal.substr(0, last_line + (journal.size() - last_line) / 2));

  core::GateRunOptions resuming = journaling;
  resuming.resume = true;
  const core::GateDecision resumed = gate.evaluate(two_contract_source(), store, resuming);
  EXPECT_EQ(resumed.resumed_contracts, 1);
  EXPECT_EQ(signatures(resumed), signatures(cold));
  // The resumed run rewrote the whole journal, byte for byte.
  EXPECT_EQ(read_file(path), journal);
  std::remove(path.c_str());
}

TEST_F(Robustness, ResumeIgnoresOldCheckJournalFiles) {
  // The journal used to be a format of its own: a "lisa-check" header, then
  // one report per line. Such a file is another kind now, so resume checks
  // every contract (with a warning) even though its entries carry matching
  // slice fingerprints, and the run overwrites it with its ledger.
  const core::ContractStore store = two_contract_store();
  const core::CiGate gate = static_gate();
  obs::ProvenanceLedger ledger;
  core::GateRunOptions capturing;
  capturing.ledger = &ledger;
  const core::GateDecision cold = gate.evaluate(two_contract_source(), store, capturing);
  ASSERT_EQ(cold.reports.size(), 2u);
  std::string old_journal = support::jsonl_header("lisa-check", 1, ledger.run_fingerprint());
  for (const ContractCheckReport& report : cold.reports) {
    ASSERT_FALSE(report.slice_fp.empty());
    old_journal += "\n" + report.to_json().dump();
  }
  const std::string path = temp_path("old_check_journal.jsonl");
  write_file(path, old_journal + "\n");

  core::GateRunOptions resuming;
  resuming.journal_path = path;
  resuming.resume = true;
  const core::GateDecision resumed = gate.evaluate(two_contract_source(), store, resuming);
  EXPECT_EQ(resumed.resumed_contracts, 0);
  EXPECT_EQ(signatures(resumed), signatures(cold));
  obs::ProvenanceLedger written;
  ASSERT_TRUE(written.load_jsonl(path));
  EXPECT_EQ(written.to_jsonl(), ledger.to_jsonl());
  std::remove(path.c_str());
}

/// Journals a gate run on the two-contract store to `path`, replaces the
/// journal with what `corrupt` writes given its text, and resumes from it.
/// The resumed run's verdicts and rewritten journal equal the cold run's;
/// returns the contracts it replayed.
int resumed_from_corrupted_journal(
    const std::string& path,
    const std::function<void(std::ostream&, const std::string&)>& corrupt) {
  const core::ContractStore store = two_contract_store();
  const core::CiGate gate = static_gate();
  core::GateRunOptions journaling;
  journaling.journal_path = path;
  const core::GateDecision cold = gate.evaluate(two_contract_source(), store, journaling);
  const std::string journal = read_file(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    corrupt(out, journal);
  }
  core::GateRunOptions resuming = journaling;
  resuming.resume = true;
  const core::GateDecision resumed = gate.evaluate(two_contract_source(), store, resuming);
  EXPECT_EQ(signatures(resumed), signatures(cold));
  EXPECT_EQ(read_file(path), journal);
  std::remove(path.c_str());
  return resumed.resumed_contracts;
}

/// Writes one JSON object line with `fields` plus a padding field that
/// takes it past the JSONL line limit.
void write_over_long_line(std::ostream& out, const std::string& fields) {
  out << "{" << fields << ",\"pad\":\"";
  const std::string chunk(1 << 20, 'x');
  for (std::size_t written = 0; written <= support::kMaxJsonlLineBytes; written += chunk.size())
    out << chunk;
  out << "\"}\n";
}

TEST_F(Robustness, JournalRejectsDeeplyNestedLines) {
  // Past Json::kMaxParseDepth a line is a parse error, not a stack
  // overflow: a deep header makes the journal a file of another kind, so
  // every contract is checked; a deep capture line is dropped, and every
  // other capture still replays.
  const std::string deep(200'000, '[');
  const std::string path = temp_path("deep.jsonl");
  EXPECT_EQ(resumed_from_corrupted_journal(
                path, [&](std::ostream& out, const std::string&) { out << deep << "\n"; }),
            0);
  EXPECT_EQ(resumed_from_corrupted_journal(path,
                                           [&](std::ostream& out, const std::string& journal) {
                                             const std::size_t header_end = journal.find('\n') + 1;
                                             out << journal.substr(0, header_end) << deep << "\n"
                                                 << journal.substr(header_end);
                                           }),
            2);
}

TEST_F(Robustness, JournalSkipsOverLongLines) {
  // An over-long header is the wrong file kind even when it would match; an
  // over-long capture line is dropped like a torn one, even when it names a
  // contract the journal settled (read, it would replace that capture with
  // one that cannot replay).
  const std::string path = temp_path("long.jsonl");
  EXPECT_EQ(resumed_from_corrupted_journal(path,
                                           [](std::ostream& out, const std::string&) {
                                             write_over_long_line(
                                                 out,
                                                 "\"fingerprint\":\"\",\"journal\":\"lisa-ledger\","
                                                 "\"version\":" +
                                                     std::to_string(
                                                         obs::ProvenanceLedger::kLedgerVersion));
                                           }),
            0);
  EXPECT_EQ(resumed_from_corrupted_journal(
                path,
                [](std::ostream& out, const std::string& journal) {
                  const std::size_t last_line = journal.rfind('\n', journal.size() - 2) + 1;
                  const std::string settled =
                      support::Json::parse(journal.substr(last_line)).get_string("contract_id");
                  ASSERT_FALSE(settled.empty());
                  out << journal;
                  write_over_long_line(out, "\"contract_id\":" + support::Json(settled).dump());
                }),
            2);
}

/// Journals a gate run on the two-contract store to the temporary file
/// `name`, applies `edit` to every capture of the journal, and resumes from
/// it: the contracts replayed.
int resumed_after_editing_journal(const std::string& name,
                                  const std::function<void(obs::ContractCapture&)>& edit) {
  const core::ContractStore store = two_contract_store();
  const std::string path = ::testing::TempDir() + "lisa_robustness_" + name;
  const core::CiGate gate = static_gate();
  core::GateRunOptions journaling;
  journaling.journal_path = path;
  const core::GateDecision cold = gate.evaluate(two_contract_source(), store, journaling);
  obs::ProvenanceLedger journal;
  EXPECT_TRUE(journal.load_jsonl(path));
  EXPECT_EQ(journal.size(), cold.reports.size());
  for (const std::string& id : journal.contract_ids()) edit(*journal.capture_for(id));
  EXPECT_TRUE(journal.write_jsonl(path));

  core::GateRunOptions resuming = journaling;
  resuming.resume = true;
  const core::GateDecision resumed = gate.evaluate(two_contract_source(), store, resuming);
  EXPECT_EQ(signatures(resumed), signatures(cold));
  std::remove(path.c_str());
  return resumed.resumed_contracts;
}

TEST_F(Robustness, ResumeReChecksCapturesWithoutReport) {
  // An empty report (what a line without one loads as) names no contract.
  const std::string name = "no_report.jsonl";
  EXPECT_EQ(resumed_after_editing_journal(name, [](obs::ContractCapture&) {}), 2);
  EXPECT_EQ(resumed_after_editing_journal(name,
                                          [](obs::ContractCapture& capture) {
                                            capture.report = ContractCheckReport{};
                                          }),
            0);
}

TEST_F(Robustness, ResumeReChecksReportsNamingAnotherContract) {
  // Only the report's contract id is wrong, and the line is re-digested: it
  // is intact and still carries the matching slice fingerprint.
  EXPECT_EQ(resumed_after_editing_journal("other_contract.jsonl",
                                          [](obs::ContractCapture& capture) {
                                            capture.report.contract_id = "another-case#0";
                                          }),
            0);
}

TEST_F(Robustness, ResumeReChecksCorruptedCounts) {
  // A failing contract's violation count edited in the journal's bytes, out
  // of every integer type's range or to 0, no longer matches its line's
  // digest (1e300 parses, saturated, to a count that writes back
  // differently): the contract is checked again, never replayed with a
  // garbled or passing verdict.
  const std::string path = temp_path("corrupted_count.jsonl");
  for (const std::string replacement : {"1e300", "0"}) {
    SCOPED_TRACE(replacement);
    int edited = 0;
    EXPECT_EQ(resumed_from_corrupted_journal(
                  path,
                  [&](std::ostream& out, const std::string& journal) {
                    std::string text = journal;
                    const std::string key = "\"violated\":";
                    for (std::size_t at = text.find(key); at != std::string::npos;
                         at = text.find(key, at + 1)) {
                      const std::size_t begin = at + key.size();
                      std::size_t end = begin;
                      while (end < text.size() &&
                             std::isdigit(static_cast<unsigned char>(text[end])) != 0)
                        ++end;
                      if (end == begin || text.compare(begin, end - begin, "0") == 0) continue;
                      text.replace(begin, end - begin, replacement);
                      ++edited;
                    }
                    out << text;
                  }),
              1);
    EXPECT_EQ(edited, 1);
  }
}

TEST_F(Robustness, ResumeReChecksDegradedReportStubs) {
  // A faulted serialization writes a stub report that keeps the counts but
  // has no slice fingerprint; it loads as a report that writes back
  // differently, so the line is not intact and never replays.
  ASSERT_TRUE(FaultRegistry::instance().configure("report.serialize=fail"));
  const core::ContractStore store = two_contract_store();
  const std::string path = temp_path("degraded_journal.jsonl");
  const core::CiGate gate = static_gate();
  core::GateRunOptions journaling;
  journaling.journal_path = path;
  const core::GateDecision cold = gate.evaluate(two_contract_source(), store, journaling);
  FaultRegistry::instance().clear();
  const std::vector<std::string> lines = support::split(read_file(path), '\n');
  ASSERT_EQ(lines.size(), 5u);  // header, proposal, two captures, final newline
  for (std::size_t i = 2; i < 4; ++i) {
    const support::Json report = support::Json::parse(lines[i]).at("report");
    EXPECT_TRUE(report.has("serialization_degraded")) << lines[i];
    EXPECT_FALSE(report.has("slice_fp")) << lines[i];
  }
  obs::ProvenanceLedger journal;
  ASSERT_TRUE(journal.load_jsonl(path));
  ASSERT_EQ(journal.size(), 2u);
  for (const std::string& id : journal.contract_ids()) {
    EXPECT_FALSE(journal.find(id)->intact()) << id;
    EXPECT_TRUE(journal.find(id)->report.slice_fp.empty()) << id;
  }
  core::GateRunOptions resuming = journaling;
  resuming.resume = true;
  const core::GateDecision resumed = gate.evaluate(two_contract_source(), store, resuming);
  EXPECT_EQ(resumed.resumed_contracts, 0);
  EXPECT_EQ(signatures(resumed), signatures(cold));
  std::remove(path.c_str());
}

TEST_F(Robustness, PipelineResumeReplaysConclusiveEntries) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  const std::string path = temp_path("pipeline_resume.jsonl");
  core::PipelineRunOptions journaling;
  journaling.journal_path = path;
  const Pipeline pipeline;
  const PipelineResult first = pipeline.run(*ticket, ticket->patched_source, journaling);
  ASSERT_FALSE(first.reports.empty());
  EXPECT_EQ(first.resumed_contracts, 0);

  core::PipelineRunOptions resuming = journaling;
  resuming.resume = true;
  const PipelineResult second = pipeline.run(*ticket, ticket->patched_source, resuming);
  EXPECT_EQ(second.resumed_contracts, static_cast<int>(first.reports.size()));
  ASSERT_EQ(second.reports.size(), first.reports.size());
  for (std::size_t i = 0; i < first.reports.size(); ++i) {
    EXPECT_EQ(second.reports[i].verified, first.reports[i].verified);
    EXPECT_EQ(second.reports[i].violated, first.reports[i].violated);
    EXPECT_EQ(second.reports[i].passed(), first.reports[i].passed());
  }
  std::remove(path.c_str());
}

TEST_F(Robustness, ResumeReChecksBudgetCutEntriesToCompletion) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  const std::string path = temp_path("resume_recheck.jsonl");
  core::PipelineRunOptions journaling;
  journaling.journal_path = path;

  BudgetLimits limits;
  limits.max_smt_queries = 1;
  Budget budget(limits);
  CheckOptions governed_options;
  governed_options.budget = &budget;
  const Pipeline governed(inference::MockLlmOptions{}, governed_options);
  const PipelineResult cut = governed.run(*ticket, ticket->patched_source, journaling);
  int inconclusive = 0;
  for (const ContractCheckReport& report : cut.reports)
    if (!report.conclusive()) ++inconclusive;
  ASSERT_GT(inconclusive, 0);

  // Resume with an unlimited budget: the inconclusive entries get their
  // second chance and the final result matches a fresh ungoverned run.
  core::PipelineRunOptions resuming = journaling;
  resuming.resume = true;
  const Pipeline ungoverned;
  const PipelineResult settled = pipeline_result(ungoverned, *ticket, resuming);
  const PipelineResult fresh = pipeline_result(ungoverned, *ticket);
  EXPECT_EQ(settled.resumed_contracts,
            static_cast<int>(cut.reports.size()) - inconclusive);
  ASSERT_EQ(settled.reports.size(), fresh.reports.size());
  for (std::size_t i = 0; i < fresh.reports.size(); ++i) {
    EXPECT_EQ(settled.reports[i].verified, fresh.reports[i].verified);
    EXPECT_EQ(settled.reports[i].violated, fresh.reports[i].violated);
    EXPECT_TRUE(settled.reports[i].conclusive());
  }
  std::remove(path.c_str());
}

TEST_F(Robustness, GateResumeSkipsSettledContracts) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  const Pipeline pipeline;
  const PipelineResult learned = pipeline_result(pipeline, *ticket);
  core::ContractStore store;
  store.add_all(learned.contracts);
  ASSERT_GT(store.size(), 0u);

  const std::string path = temp_path("gate_resume.jsonl");
  core::GateRunOptions journaling;
  journaling.journal_path = path;
  const core::CiGate gate;
  const core::GateDecision first =
      gate.evaluate(ticket->patched_source, store, journaling);
  EXPECT_EQ(first.resumed_contracts, 0);
  EXPECT_FALSE(first.needs_attention);

  core::GateRunOptions resuming = journaling;
  resuming.resume = true;
  const core::GateDecision second =
      gate.evaluate(ticket->patched_source, store, resuming);
  EXPECT_EQ(second.resumed_contracts, static_cast<int>(first.reports.size()));
  EXPECT_EQ(second.allowed, first.allowed);
  EXPECT_EQ(second.violations.size(), first.violations.size());
  std::remove(path.c_str());
}

TEST_F(Robustness, ResumedGateRecordsWhatTheColdRunRecorded) {
  // A replayed contract carries its capture into the run's ledger, so the
  // resumed run's ledger (the `--report` file) and its history record's
  // SMT evidence equal the cold run's.
  const core::ContractStore store = store_of({"zk-1208-ephemeral-create"});
  const std::string& source = corpus::Corpus::find("zk-1208-ephemeral-create")->patched_source;
  const std::string journal = temp_path("recorded.jsonl");
  const std::string cold_history = temp_path("recorded_cold_history.jsonl");
  const std::string resumed_history = temp_path("recorded_resumed_history.jsonl");
  std::remove(cold_history.c_str());
  std::remove(resumed_history.c_str());
  const core::CiGate gate = static_gate();
  obs::ProvenanceLedger cold_ledger;
  core::GateRunOptions journaling;
  journaling.journal_path = journal;
  journaling.ledger = &cold_ledger;
  journaling.history_path = cold_history;
  const core::GateDecision cold = gate.evaluate(source, store, journaling);
  ASSERT_FALSE(cold.reports.empty());
  EXPECT_FALSE(cold.allowed);

  obs::ProvenanceLedger resumed_ledger;
  core::GateRunOptions resuming = journaling;
  resuming.resume = true;
  resuming.ledger = &resumed_ledger;
  resuming.history_path = resumed_history;
  const core::GateDecision resumed = gate.evaluate(source, store, resuming);
  EXPECT_EQ(resumed.resumed_contracts, static_cast<int>(cold.reports.size()));
  EXPECT_FALSE(resumed.allowed);
  EXPECT_EQ(resumed_ledger.size(), cold.reports.size());
  EXPECT_EQ(resumed_ledger.to_jsonl(), cold_ledger.to_jsonl());

  obs::RunHistory cold_records(cold_history);
  obs::RunHistory resumed_records(resumed_history);
  ASSERT_TRUE(cold_records.load());
  ASSERT_TRUE(resumed_records.load());
  ASSERT_EQ(cold_records.records().size(), 1u);
  ASSERT_EQ(resumed_records.records().size(), 1u);
  const obs::RunRecord& want = cold_records.records()[0];
  const obs::RunRecord& got = resumed_records.records()[0];
  EXPECT_GT(want.metrics.at("smt_queries"), 0.0);
  EXPECT_EQ(got.metrics.at("smt_queries"), want.metrics.at("smt_queries"));
  EXPECT_FALSE(want.smt_digest.empty());
  EXPECT_EQ(got.smt_digest, want.smt_digest);
  for (const std::string& path : {journal, cold_history, resumed_history})
    std::remove(path.c_str());
}

/// One seeded byte-level mutation of `text`: flip a bit, insert or delete a
/// byte, truncate, duplicate a line, or replace a number with 1e300 (out of
/// every integer type's range).
std::string mutate(const std::string& text, support::Rng& rng) {
  std::string out = text;
  const std::size_t at = rng.pick_index(out.size());
  switch (rng.next_below(6)) {
    case 0:
      out[at] = static_cast<char>(out[at] ^ (1 << rng.next_below(8)));
      break;
    case 1:
      out.insert(at, 1, static_cast<char>(rng.next_below(256)));
      break;
    case 2:
      out.erase(at, 1);
      break;
    case 3:
      out.resize(at);
      break;
    case 4: {
      const std::size_t begin = out.rfind('\n', at) == std::string::npos
                                    ? 0
                                    : out.rfind('\n', at) + 1;
      const std::size_t end = out.find('\n', at);
      const std::string line =
          out.substr(begin, end == std::string::npos ? std::string::npos : end + 1 - begin);
      out.insert(begin, line);
      break;
    }
    default: {
      std::vector<std::pair<std::size_t, std::size_t>> numbers;  // [begin, end)
      for (std::size_t i = 1; i < out.size(); ++i) {
        if (out[i - 1] != ':' || (out[i] != '-' && std::isdigit(static_cast<unsigned char>(out[i])) == 0))
          continue;
        std::size_t end = i + 1;
        while (end < out.size() && std::isdigit(static_cast<unsigned char>(out[end])) != 0) ++end;
        numbers.emplace_back(i, end);
      }
      if (numbers.empty()) break;
      const auto [begin, end] = numbers[rng.pick_index(numbers.size())];
      out.replace(begin, end - begin, "1e300");
      break;
    }
  }
  return out;
}

TEST_F(Robustness, MutatedJournalsResumeSafely) {
  // Seeded mutants of a journal written by `lisa gate zk-1208-ephemeral-create`
  // on its patched source, each resumed through the gate: no exception
  // escapes, the sanitizer build finds nothing, the commit stays blocked,
  // every report carries its contract's slice fingerprint on this program
  // and has the cold run's verdict signature (so whatever a mutant replays
  // is what the cold run decided), the resumed run rewrites the cold run's
  // journal byte for byte, and one seed gives one set of outcomes.
  constexpr int kMutants = 300;
  const corpus::FailureTicket* zk = corpus::Corpus::find("zk-1208-ephemeral-create");
  const core::ContractStore store = store_of({"zk-1208-ephemeral-create"});
  const core::CiGate gate = static_gate();
  const std::string path = temp_path("mutant.jsonl");
  core::GateRunOptions journaling;
  journaling.journal_path = path;
  const std::vector<std::string> cold =
      signatures(gate.evaluate(zk->patched_source, store, journaling));
  const std::string journal = read_file(path);
  ASSERT_FALSE(journal.empty());
  const minilang::Program program = minilang::parse_checked(zk->patched_source);
  const staticcheck::Screener analysis(program);
  std::map<std::string, std::string> slice_fps;
  for (const core::SemanticContract& contract : store.all())
    slice_fps[contract.id] = core::contract_slice_fingerprint(analysis.slicer(), contract, false);

  core::GateRunOptions resuming = journaling;
  resuming.resume = true;
  const auto campaign = [&](std::uint64_t seed) {
    support::Rng rng(seed);
    std::vector<int> replayed;
    for (int i = 0; i < kMutants; ++i) {
      write_file(path, mutate(journal, rng));
      core::GateDecision decision;
      EXPECT_NO_THROW(decision = gate.evaluate(zk->patched_source, store, resuming))
          << "mutant " << i;
      EXPECT_FALSE(decision.allowed) << "mutant " << i;
      for (const ContractCheckReport& report : decision.reports)
        EXPECT_EQ(report.slice_fp, slice_fps[report.contract_id]) << "mutant " << i;
      EXPECT_EQ(signatures(decision), cold) << "mutant " << i;
      EXPECT_EQ(read_file(path), journal) << "mutant " << i;
      replayed.push_back(decision.resumed_contracts);
    }
    return replayed;
  };
  const std::vector<int> replayed = campaign(23);
  EXPECT_EQ(campaign(23), replayed);
  // The campaign reaches both paths: some mutants replay, others re-check.
  const auto replaying = std::count_if(replayed.begin(), replayed.end(),
                                       [](int resumed) { return resumed > 0; });
  EXPECT_GT(replaying, 0);
  EXPECT_LT(replaying, kMutants);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Hostile commits: type confusion and integer overflow in a commit file are
// typed outcomes, never a host exception or a signal.

/// The CLI gate's decision on `commit` under `ticket`'s learned contracts.
core::GateDecision gate_commit(const corpus::FailureTicket& ticket, const std::string& commit) {
  core::ContractStore store;
  store.add_all(
      core::translate(inference::MockLlm().infer(ticket), ticket.system).contracts);
  CheckOptions options;
  options.run_concolic = false;
  return core::CiGate(options).evaluate(commit, store);
}

TEST_F(Robustness, TypeConfusionInSpawnedTestBlocksWithTypedWitness) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("hbase-counter-race");
  ASSERT_NE(ticket, nullptr);
  const core::GateDecision decision = gate_commit(*ticket, ticket->patched_source + R"(
fn bad_min() -> int {
  return min("a", 1);
}

@test
fn test_min_confusion() {
  spawn bad_min();
  join_all();
}
)");
  EXPECT_FALSE(decision.allowed);
  bool typed_witness = false;
  for (const std::string& violation : decision.violations)
    if (violation.find("outcome=exception;detail=thread t1: min() on non-int") !=
        std::string::npos)
      typed_witness = true;
  EXPECT_TRUE(typed_witness);
}

TEST_F(Robustness, MinIntDividedByMinusOneDoesNotCrashTheGate) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  ASSERT_NE(ticket, nullptr);
  const core::GateDecision plain = gate_commit(*ticket, ticket->patched_source);
  const core::GateDecision probed = gate_commit(
      *ticket, ticket->patched_source +
                   "\nfn overflow_probe() -> int { return (0 - 9223372036854775807 - 1) / "
                   "(0 - 1); }\nfn overflow_mod() -> int { return (0 - 9223372036854775807 - "
                   "1) % (0 - 1); }\n");
  EXPECT_EQ(probed.allowed, plain.allowed);
  EXPECT_EQ(probed.violations, plain.violations);
}

TEST_F(Robustness, IntOverflowInSpawnedTestWrapsAndGates) {
  // `x + 1` on INT64_MAX wraps to INT64_MIN like Java's long. Computed as
  // a host `+`, it is signed-overflow UB, which the sanitizer build aborts
  // on. Wrapped, the spawned thread ends normally and the commit is
  // admitted.
  const corpus::FailureTicket* ticket = corpus::Corpus::find("hbase-counter-race");
  ASSERT_NE(ticket, nullptr);
  const core::GateDecision plain = gate_commit(*ticket, ticket->patched_source);
  const core::GateDecision probed = gate_commit(*ticket, ticket->patched_source + R"(
fn overflow_add() -> int {
  let x = 9223372036854775807;
  return x + 1;
}

@test
fn test_overflow_add() {
  spawn overflow_add();
  join_all();
}
)");
  EXPECT_TRUE(plain.allowed);
  EXPECT_TRUE(probed.allowed);
  EXPECT_EQ(probed.violations, plain.violations);
}

std::string repeat(const std::string& text, std::size_t times) {
  std::string out;
  out.reserve(text.size() * times);
  for (std::size_t i = 0; i < times; ++i) out += text;
  return out;
}

/// True when the gate blocked the commit with one "does not build" reason
/// that mentions `cause`.
bool blocked_as_not_building(const core::GateDecision& decision, const std::string& cause) {
  return !decision.allowed && decision.violations.size() == 1 &&
         decision.violations[0].rfind("commit does not build: ", 0) == 0 &&
         decision.violations[0].find(cause) != std::string::npos;
}

TEST_F(Robustness, DeeplyNestedCommitsAreBlockedAsNotBuilding) {
  // Each of these exhausted the stack of the recursive parser, or of a pass
  // over the tree an operator chain builds without recursing.
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-election-deadlock");
  ASSERT_NE(ticket, nullptr);
  const std::size_t n = 200'000;
  const std::vector<std::string> probes = {
      "fn deep_probe() -> int { return " + std::string(n, '(') + "1" + std::string(n, ')') +
          "; }",
      "fn deep_probe() -> bool { return " + std::string(n, '!') + "true; }",
      "fn deep_probe() -> int { " + repeat("if (true) { ", n / 2) + "return 1;" +
          repeat(" }", n / 2) + " return 0; }",
      "fn deep_probe() -> int { return 1" + repeat(" + 1", n) + "; }",
      "fn deep_id(x: int) -> int { return x; }\nfn deep_probe() -> int { return " +
          repeat("deep_id(", n) + "1" + std::string(n, ')') + "; }",
  };
  for (const std::string& probe : probes)
    EXPECT_TRUE(blocked_as_not_building(
        gate_commit(*ticket, ticket->patched_source + "\n" + probe + "\n"),
        "nesting deeper than 256 levels"))
        << probe.substr(0, 60);
}

TEST_F(Robustness, CommitAtTheNestingLimitStillGates) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-election-deadlock");
  ASSERT_NE(ticket, nullptr);
  // The return statement and its expression take two levels; each
  // parenthesis takes one more. A chain of k operators is k + 1 levels tall.
  const auto parens = [](int depth) {
    return "fn paren_probe() -> int { return " + std::string(depth - 2, '(') + "1" +
           std::string(depth - 2, ')') + "; }\n";
  };
  const auto chain = [](int height) {
    return "fn chain_probe() -> int { return 1" + repeat(" + 1", height - 1) + "; }\n";
  };
  const core::GateDecision plain = gate_commit(*ticket, ticket->patched_source);
  const core::GateDecision at_limit =
      gate_commit(*ticket, ticket->patched_source + "\n" + parens(minilang::kMaxNesting) +
                               chain(minilang::kMaxNesting));
  EXPECT_EQ(at_limit.allowed, plain.allowed);
  EXPECT_EQ(at_limit.violations, plain.violations);
  EXPECT_EQ(at_limit.reports.size(), plain.reports.size());
  for (const std::string& past_limit :
       {parens(minilang::kMaxNesting + 1), chain(minilang::kMaxNesting + 1)})
    EXPECT_TRUE(blocked_as_not_building(
        gate_commit(*ticket, ticket->patched_source + "\n" + past_limit),
        "nesting deeper than 256 levels"))
        << past_limit.substr(0, 40);
}

TEST_F(Robustness, OutOfRangeLiteralIsBlockedAsNotBuilding) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-election-deadlock");
  ASSERT_NE(ticket, nullptr);
  const core::GateDecision plain = gate_commit(*ticket, ticket->patched_source);
  const core::GateDecision largest = gate_commit(
      *ticket,
      ticket->patched_source + "\nfn literal_probe() -> int { return 9223372036854775807; }\n");
  EXPECT_EQ(largest.allowed, plain.allowed);
  EXPECT_EQ(largest.violations, plain.violations);
  for (const char* literal : {"9223372036854775808", "12345678901234567890123"})
    EXPECT_TRUE(blocked_as_not_building(
        gate_commit(*ticket, ticket->patched_source + "\nfn literal_probe() -> int { return " +
                                 literal + "; }\n"),
        "integer literal above 9223372036854775807"))
        << literal;
}

TEST_F(Robustness, GateCostGrowsLinearlyWithFunctionCount) {
  // A commit's cost must grow with its size, not faster: n functions, each
  // calling the one before, appended to a corpus source. Four times the
  // functions must take less than eight times as long; work quadratic in
  // the function count (a scan of every function for each call, or of every
  // call site for each function) tends to sixteen times.
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  ASSERT_NE(ticket, nullptr);
  const core::GateDecision plain = gate_commit(*ticket, ticket->patched_source);
  const auto best_ms = [&](int functions) {
    std::string commit = ticket->patched_source + "\nfn chain_0(x: int) -> int { return x; }\n";
    for (int i = 1; i < functions; ++i)
      commit += "fn chain_" + std::to_string(i) + "(x: int) -> int { return chain_" +
                std::to_string(i - 1) + "(x) + 1; }\n";
    double best = std::numeric_limits<double>::infinity();
    for (int run = 0; run < 3; ++run) {  // the best of three, against scheduling noise
      const core::GateDecision decision = gate_commit(*ticket, commit);
      EXPECT_EQ(decision.violations, plain.violations) << functions << " functions";
      best = std::min(best, decision.evaluation_ms);
    }
    return best;
  };
  const double short_ms = best_ms(1000);
  const double long_ms = best_ms(4000);
  EXPECT_LT(long_ms, 8 * short_ms) << "1000 functions: " << short_ms
                                   << " ms, 4000 functions: " << long_ms << " ms";
}

}  // namespace
}  // namespace lisa
