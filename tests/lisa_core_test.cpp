// Tests for the LISA core: contract translation, the checker, the pipeline,
// and the CI gate.
#include <gtest/gtest.h>

#include "lisa/ci_gate.hpp"
#include "lisa/pipeline.hpp"
#include "minilang/sema.hpp"

namespace lisa::core {
namespace {

inference::SemanticsProposal sample_proposal() {
  inference::SemanticsProposal proposal;
  proposal.case_id = "sample";
  proposal.high_level_semantics = "high";
  proposal.low_level.push_back(
      {"rule", "create_ephemeral_node(", "!(s == null) && !(s.is_closing)"});
  return proposal;
}

TEST(Translate, ParsesConditionIntoFormula) {
  const TranslationResult result = translate(sample_proposal(), "zookeeper");
  ASSERT_EQ(result.contracts.size(), 1u);
  EXPECT_TRUE(result.rejected.empty());
  const SemanticContract& contract = result.contracts[0];
  EXPECT_EQ(contract.id, "sample#0");
  ASSERT_NE(contract.condition, nullptr);
  EXPECT_TRUE(contract.condition->variables().count("s.is_closing"));
}

TEST(Translate, RejectsOutOfFragmentConditions) {
  inference::SemanticsProposal proposal = sample_proposal();
  proposal.low_level.push_back({"bad", "x(", "len(items) > 0"});
  const TranslationResult result = translate(proposal, "zookeeper");
  EXPECT_EQ(result.contracts.size(), 1u);
  ASSERT_EQ(result.rejected.size(), 1u);
  EXPECT_NE(result.rejected[0].find("len(items)"), std::string::npos);
}

TEST(Contract, JsonRoundTripReparsesCondition) {
  const TranslationResult result = translate(sample_proposal(), "zookeeper");
  const SemanticContract back = SemanticContract::from_json(result.contracts[0].to_json());
  EXPECT_EQ(back.id, "sample#0");
  ASSERT_NE(back.condition, nullptr);
  EXPECT_TRUE(back.condition->variables().count("s#null"));
}

TEST(Checker, FlagsUnguardedPathOnPatchedZk) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  const Pipeline pipeline;
  const PipelineResult result = pipeline.run(*ticket, ticket->patched_source);
  ASSERT_EQ(result.reports.size(), 1u);
  const ContractCheckReport& report = result.reports[0];
  EXPECT_EQ(report.target_statements, 2u);
  EXPECT_EQ(report.verified, 1);   // the fixed p_request_create path
  EXPECT_EQ(report.violated, 1);   // the batch_create path (future ZK-1496)
  EXPECT_TRUE(report.sanity_ok);
  EXPECT_FALSE(report.passed());
  EXPECT_GT(report.dynamic.symbolic_violations, 0);
}

TEST(Checker, BuggyVersionHasNoVerifiedPathForTheRule) {
  // On the pre-fix version, no path checks is_closing: the sanity check
  // (cross-validation against system behaviour) fails.
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  const inference::SemanticsProposal proposal = inference::MockLlm().infer(*ticket);
  const TranslationResult translation = translate(proposal, ticket->system);
  ASSERT_EQ(translation.contracts.size(), 1u);
  const minilang::Program buggy = minilang::parse_checked(ticket->buggy_source);
  const ContractCheckReport report =
      Checker().check(staticcheck::Screener(buggy), translation.contracts[0]);
  EXPECT_EQ(report.verified, 0);
  EXPECT_FALSE(report.sanity_ok);
  EXPECT_EQ(report.violated, 2);
}

TEST(Checker, StructuralContractFindsLatentSerializer) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-2201-sync-serialize");
  const Pipeline pipeline;
  const PipelineResult result = pipeline.run(*ticket, ticket->patched_source);
  ASSERT_EQ(result.reports.size(), 1u);
  const ContractCheckReport& report = result.reports[0];
  ASSERT_EQ(report.structural_violations.size(), 1u);
  EXPECT_NE(report.structural_violations[0].find("serialize_acls"), std::string::npos);
  EXPECT_FALSE(report.passed());
}

TEST(Checker, UncoveredPathsReportedWithoutMatchingTests) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  const inference::SemanticsProposal proposal = inference::MockLlm().infer(*ticket);
  const TranslationResult translation = translate(proposal, ticket->system);
  const minilang::Program program = minilang::parse_checked(ticket->patched_source);
  CheckOptions options;
  options.forced_tests = {"test_create_on_expired_session_rejected"};  // never reaches target
  const ContractCheckReport report =
      Checker().check(staticcheck::Screener(program), translation.contracts[0], options);
  EXPECT_EQ(report.dynamic.target_hits, 0);
  EXPECT_EQ(report.uncovered, static_cast<int>(report.paths.size()));
}

TEST(Checker, PrintsJsonReport) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-quota-bypass");
  const Pipeline pipeline;
  const PipelineResult result = pipeline.run(*ticket, ticket->patched_source);
  const support::Json json = result.to_json();
  EXPECT_TRUE(json.has("reports"));
  EXPECT_TRUE(json.has("timings"));
  EXPECT_FALSE(json.at("all_passed").as_bool());
  // Serialized report must parse back.
  EXPECT_NO_THROW(support::Json::parse(json.pretty()));
}

TEST(Pipeline, AllCorpusCasesDetectTheFutureRegression) {
  // The paper's core claim: enforcing the rule inferred from the FIRST
  // incident flags the path that caused the SECOND incident, for every case.
  const Pipeline pipeline;
  for (const corpus::FailureTicket& ticket : corpus::Corpus::all()) {
    if (ticket.kind == corpus::SemanticsKind::kInterleavingSensitive) {
      // The concurrency-extension patches fix the bug outright (no latent
      // second path): the contract must flag the buggy version and prove
      // the patched one safe.
      const PipelineResult buggy = pipeline.run(ticket, ticket.buggy_source);
      EXPECT_GT(buggy.total_violations(), 0) << ticket.case_id;
      EXPECT_FALSE(buggy.all_passed()) << ticket.case_id;
      const PipelineResult patched = pipeline.run(ticket, ticket.patched_source);
      EXPECT_TRUE(patched.all_passed()) << ticket.case_id;
      continue;
    }
    const PipelineResult result = pipeline.run(ticket, ticket.patched_source);
    EXPECT_GT(result.total_violations(), 0) << ticket.case_id;
    EXPECT_FALSE(result.all_passed()) << ticket.case_id;
    for (const ContractCheckReport& report : result.reports)
      EXPECT_TRUE(report.sanity_ok) << ticket.case_id << " " << report.contract_id;
  }
}

TEST(CiGate, BlocksCommitViolatingStoredContract) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  const inference::SemanticsProposal proposal = inference::MockLlm().infer(*ticket);
  TranslationResult translation = translate(proposal, ticket->system);
  ContractStore store;
  store.add_all(std::move(translation.contracts));
  ASSERT_EQ(store.size(), 1u);

  const CiGate gate;
  // The patched version still contains the unguarded batch path → blocked.
  const GateDecision patched = gate.evaluate(ticket->patched_source, store);
  EXPECT_FALSE(patched.allowed);
  ASSERT_FALSE(patched.violations.empty());
  EXPECT_NE(patched.violations[0].find("create_ephemeral_node("), std::string::npos);
}

TEST(CiGate, AllowsFullyGuardedCommit) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  const inference::SemanticsProposal proposal = inference::MockLlm().infer(*ticket);
  TranslationResult translation = translate(proposal, ticket->system);
  ContractStore store;
  store.add_all(std::move(translation.contracts));

  // Guard the batch path too (what the ZK-1496 fix eventually did).
  std::string guarded = ticket->patched_source;
  const std::string anchor =
      "  let i = 0;\n  while (i < len(paths)) {\n    create_ephemeral_node(";
  const std::size_t pos = guarded.find(anchor);
  ASSERT_NE(pos, std::string::npos);
  guarded.insert(pos, "  if (s.is_closing) {\n    throw \"SessionClosingException\";\n  }\n");

  const GateDecision decision = CiGate().evaluate(guarded, store);
  EXPECT_TRUE(decision.allowed) << (decision.violations.empty() ? "" : decision.violations[0]);
}

TEST(CiGate, BlocksNonBuildingCommit) {
  ContractStore store;
  const GateDecision decision = CiGate().evaluate("fn f( {", store);
  EXPECT_FALSE(decision.allowed);
  EXPECT_NE(decision.violations[0].find("does not build"), std::string::npos);
}

TEST(CiGate, SkipsContractsWithoutTargetsInCommit) {
  const corpus::FailureTicket* zk = corpus::Corpus::find("zk-1208-ephemeral-create");
  const inference::SemanticsProposal proposal = inference::MockLlm().infer(*zk);
  TranslationResult translation = translate(proposal, zk->system);
  ContractStore store;
  store.add_all(std::move(translation.contracts));
  // An unrelated codebase without create_ephemeral_node is not affected.
  const GateDecision decision = CiGate().evaluate("fn unrelated() { print(1); }", store);
  EXPECT_TRUE(decision.allowed);
  EXPECT_TRUE(decision.reports.empty());
}

// Written by the hand-written serializer that the field lists replaced.
const std::string kPinnedStore =
    R"json({"contracts":[{"case_id":"case-x","condition_text":"c.n >= 0",)json"
    R"json("description":"guarded counter","high_level":"high","id":"case-x#0",)json"
    R"json("kind":"interleaving_sensitive","pattern":"guarded_field","system":"hbase",)json"
    R"json("target_fragment":"bump("},{"case_id":"","condition_text":"a.b == 1",)json"
    R"json("description":"","high_level":"","id":"case-y#0","kind":"state_predicate",)json"
    R"json("system":"","target_fragment":""}]})json";

TEST(ContractStore, JsonRoundTrip) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("hbase-27671-snapshot-ttl");
  const inference::SemanticsProposal proposal = inference::MockLlm().infer(*ticket);
  TranslationResult translation = translate(proposal, ticket->system);
  ContractStore store;
  store.add_all(std::move(translation.contracts));
  const ContractStore back = ContractStore::from_json(store.to_json());
  ASSERT_EQ(back.size(), store.size());
  EXPECT_EQ(back.all()[0].target_fragment, "serve_snapshot(");
  EXPECT_NE(back.all()[0].condition, nullptr);

  // The bytes of a contract with every optional key and of one with none
  // are pinned.
  SemanticContract full;
  full.id = "case-x#0";
  full.case_id = "case-x";
  full.system = "hbase";
  full.kind = corpus::SemanticsKind::kInterleavingSensitive;
  full.description = "guarded counter";
  full.high_level = "high";
  full.target_fragment = "bump(";
  full.condition_text = "c.n >= 0";
  full.pattern = "guarded_field";
  SemanticContract bare;
  bare.id = "case-y#0";
  bare.condition_text = "a.b == 1";
  ContractStore pinned;
  pinned.add(full);
  pinned.add(bare);
  const std::string line = pinned.to_json().dump();
  EXPECT_EQ(line, kPinnedStore);
  const ContractStore reread = ContractStore::from_json(support::Json::parse(line));
  EXPECT_EQ(reread.to_json().dump(), line);
  ASSERT_EQ(reread.size(), 2u);
  EXPECT_EQ(reread.all()[0].condition, nullptr);  // not a state predicate
  EXPECT_NE(reread.all()[1].condition, nullptr);
}

TEST(Pipeline, TimingsArePopulated) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("cass-counter-bootstrap");
  const PipelineResult result = Pipeline().run(*ticket, ticket->patched_source);
  EXPECT_GT(result.timings.total_ms, 0.0);
  EXPECT_GE(result.timings.check_ms, 0.0);
}

}  // namespace
}  // namespace lisa::core
