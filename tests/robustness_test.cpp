// Robustness harness tests: resource budgets, fault injection, inference
// retries, and checkpoint/resume. The common thread is monotone degradation
// — refused or faulted work must surface as a structured inconclusive
// outcome, never as a crash, a silent pass, or a flipped verdict.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
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
#include "smt/minilang_bridge.hpp"
#include "smt/solver.hpp"
#include "support/budget.hpp"
#include "support/faultpoint.hpp"
#include "support/jsonl.hpp"

namespace lisa {
namespace {

using core::CheckJournal;
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

TEST_F(Robustness, JournalRejectsMismatchedFingerprint) {
  const std::string path = temp_path("fingerprint.jsonl");
  CheckJournal writer(path);
  ASSERT_TRUE(writer.begin(support::fnv1a_fingerprint("inputs-a")));
  ContractCheckReport report;
  report.contract_id = "c#0";
  writer.record(report);
  CheckJournal wrong(path);
  EXPECT_FALSE(wrong.load(support::fnv1a_fingerprint("inputs-b")));
  EXPECT_EQ(wrong.loaded_entries(), 0u);
  CheckJournal right(path);
  EXPECT_TRUE(right.load(support::fnv1a_fingerprint("inputs-a")));
  EXPECT_EQ(right.loaded_entries(), 1u);
  EXPECT_NE(right.find("c#0"), nullptr);
  std::remove(path.c_str());
}

TEST_F(Robustness, JournalSurvivesTornTail) {
  const std::string path = temp_path("torn.jsonl");
  const std::string fingerprint = support::fnv1a_fingerprint("inputs");
  {
    CheckJournal writer(path);
    ASSERT_TRUE(writer.begin(fingerprint));
    ContractCheckReport report;
    report.contract_id = "c#0";
    report.verified = 3;
    writer.record(report);
  }
  {
    // Simulate a crash mid-append: an unterminated, unparseable last line.
    std::ofstream torn(path, std::ios::app);
    torn << "{\"contract_id\":\"c#1\",\"veri";
  }
  CheckJournal reader(path);
  EXPECT_TRUE(reader.load(fingerprint));
  EXPECT_EQ(reader.loaded_entries(), 1u);
  ASSERT_NE(reader.find("c#0"), nullptr);
  EXPECT_EQ(reader.find("c#0")->verified, 3);
  EXPECT_EQ(reader.find("c#1"), nullptr);
  std::remove(path.c_str());
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
  // overflow: a deep header is the wrong file kind, a deep record is a
  // dropped line.
  const std::string deep(200'000, '[');
  const std::string path = temp_path("deep.jsonl");
  std::ofstream(path) << deep << "\n";
  CheckJournal foreign(path);
  EXPECT_FALSE(foreign.load(""));
  const std::string fingerprint = support::fnv1a_fingerprint("inputs");
  {
    CheckJournal writer(path);
    ASSERT_TRUE(writer.begin(fingerprint));
    std::ofstream(path, std::ios::app) << deep << "\n";
    ContractCheckReport report;
    report.contract_id = "c#0";
    writer.record(report);
  }
  CheckJournal reader(path);
  EXPECT_TRUE(reader.load(fingerprint));
  EXPECT_EQ(reader.loaded_entries(), 1u);
  EXPECT_NE(reader.find("c#0"), nullptr);
  std::remove(path.c_str());
}

TEST_F(Robustness, JournalSkipsOverLongLines) {
  // An over-long header is the wrong file kind even when it would match;
  // an over-long record is dropped like a torn line.
  const std::string path = temp_path("long.jsonl");
  {
    std::ofstream out(path);
    write_over_long_line(out, "\"fingerprint\":\"\",\"journal\":\"lisa-check\",\"version\":1");
  }
  CheckJournal foreign(path);
  EXPECT_FALSE(foreign.load(""));
  const std::string fingerprint = support::fnv1a_fingerprint("inputs");
  {
    CheckJournal writer(path);
    ASSERT_TRUE(writer.begin(fingerprint));
    {
      std::ofstream out(path, std::ios::app);
      write_over_long_line(out, "\"contract_id\":\"c#9\"");
    }
    ContractCheckReport report;
    report.contract_id = "c#0";
    writer.record(report);
  }
  CheckJournal reader(path);
  EXPECT_TRUE(reader.load(fingerprint));
  EXPECT_EQ(reader.loaded_entries(), 1u);
  EXPECT_NE(reader.find("c#0"), nullptr);
  EXPECT_EQ(reader.find("c#9"), nullptr);
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

}  // namespace
}  // namespace lisa
