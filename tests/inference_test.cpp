// Tests for the inference layer: mock-LLM extraction accuracy against corpus
// ground truth, proposal JSON round-trips, embeddings, and test selection.
#include <gtest/gtest.h>

#include "inference/embedding.hpp"
#include "inference/mock_llm.hpp"
#include "minilang/sema.hpp"
#include "smt/minilang_bridge.hpp"
#include "smt/solver.hpp"

namespace lisa::inference {
namespace {

TEST(MockLlm, ExtractsEphemeralRule) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  ASSERT_NE(ticket, nullptr);
  const MockLlm llm;
  const SemanticsProposal proposal = llm.infer(*ticket);
  EXPECT_EQ(proposal.kind, corpus::SemanticsKind::kStatePredicate);
  ASSERT_EQ(proposal.low_level.size(), 1u);
  EXPECT_EQ(proposal.low_level[0].target_statement, "create_ephemeral_node(");
  // The extracted condition must be logically equivalent to ground truth.
  const auto extracted = smt::parse_condition(proposal.low_level[0].condition_statement);
  const auto truth = smt::parse_condition(ticket->expected_condition);
  ASSERT_TRUE(extracted.has_value());
  ASSERT_TRUE(truth.has_value());
  smt::Solver solver;
  EXPECT_TRUE(solver.equivalent(*extracted, *truth))
      << proposal.low_level[0].condition_statement;
}

TEST(MockLlm, ExtractsStructuralRule) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-2201-sync-serialize");
  ASSERT_NE(ticket, nullptr);
  const SemanticsProposal proposal = MockLlm().infer(*ticket);
  EXPECT_EQ(proposal.kind, corpus::SemanticsKind::kStructuralPattern);
  EXPECT_EQ(proposal.pattern, "no_blocking_in_sync");
  ASSERT_EQ(proposal.low_level.size(), 1u);
  EXPECT_EQ(proposal.low_level[0].target_statement, "write_record(");
}

// Parameterized accuracy sweep: the extraction must recover target + an
// equivalent condition for every state-predicate case in the corpus — the
// property the whole downstream pipeline depends on.
class ExtractionAccuracy : public ::testing::TestWithParam<std::string> {};

TEST_P(ExtractionAccuracy, TargetAndConditionMatchGroundTruth) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find(GetParam());
  ASSERT_NE(ticket, nullptr);
  const SemanticsProposal proposal = MockLlm().infer(*ticket);
  if (ticket->kind == corpus::SemanticsKind::kStructuralPattern) {
    EXPECT_EQ(proposal.pattern, "no_blocking_in_sync");
    return;
  }
  if (ticket->kind == corpus::SemanticsKind::kInterleavingSensitive) {
    // Interleaving conditions are not SMT formulas; ground truth is matched
    // textually (the pattern name or a holds(monitor) guard).
    EXPECT_EQ(proposal.kind, corpus::SemanticsKind::kInterleavingSensitive) << ticket->case_id;
    ASSERT_FALSE(proposal.low_level.empty());
    bool interleaving_matched = false;
    for (const LowLevelSemantics& low : proposal.low_level)
      if (low.target_statement == ticket->expected_target &&
          low.condition_statement == ticket->expected_condition)
        interleaving_matched = true;
    EXPECT_TRUE(interleaving_matched)
        << "no extracted rule matches ground truth for " << ticket->case_id;
    return;
  }
  ASSERT_FALSE(proposal.low_level.empty());
  bool matched = false;
  smt::Solver solver;
  const auto truth = smt::parse_condition(ticket->expected_condition);
  ASSERT_TRUE(truth.has_value()) << ticket->expected_condition;
  for (const LowLevelSemantics& low : proposal.low_level) {
    if (low.target_statement != ticket->expected_target) continue;
    const auto extracted = smt::parse_condition(low.condition_statement);
    if (!extracted.has_value()) continue;
    if (solver.equivalent(*extracted, *truth)) matched = true;
  }
  EXPECT_TRUE(matched) << "no extracted rule matches ground truth for " << ticket->case_id;
}

INSTANTIATE_TEST_SUITE_P(AllCases, ExtractionAccuracy, ::testing::ValuesIn([] {
                           std::vector<std::string> ids;
                           for (const auto& ticket : corpus::Corpus::all())
                             ids.push_back(ticket.case_id);
                           return ids;
                         }()));

TEST(MockLlm, NoiseInjectionCorruptsConditions) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  MockLlmOptions options;
  options.noise = 1.0;
  options.seed = 5;
  const SemanticsProposal noisy = MockLlm(options).infer(*ticket);
  const SemanticsProposal clean = MockLlm().infer(*ticket);
  ASSERT_FALSE(noisy.low_level.empty());
  EXPECT_NE(noisy.low_level[0].condition_statement, clean.low_level[0].condition_statement);
}

TEST(MockLlm, DeterministicAcrossRuns) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("hdfs-13924-observer-locations");
  const SemanticsProposal a = MockLlm().infer(*ticket);
  const SemanticsProposal b = MockLlm().infer(*ticket);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
}

TEST(MockLlm, RenderPromptContainsAllThreeInputs) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  const std::string prompt = MockLlm::render_prompt(*ticket);
  EXPECT_NE(prompt.find("Failure description"), std::string::npos);
  EXPECT_NE(prompt.find("Code patch"), std::string::npos);
  EXPECT_NE(prompt.find("is_closing"), std::string::npos);
}

// Written by the hand-written serializer that the field lists replaced.
const std::string kFullProposal =
    R"json({"case_id":"case-x","high_level_semantics":"high","kind":"structural_pattern",)json"
    R"json("low_level_semantics":[{"condition_statement":"a.b > 0","description":"desc",)json"
    R"json("target_statement":"tgt("}],"pattern":"no_blocking_in_sync",)json"
    R"json("reasoning":"because"})json";
const std::string kBareProposal =
    R"json({"case_id":"case-y","high_level_semantics":"","kind":"state_predicate",)json"
    R"json("low_level_semantics":[],"reasoning":""})json";

TEST(Proposal, JsonRoundTrip) {
  SemanticsProposal proposal;
  proposal.case_id = "case-x";
  proposal.high_level_semantics = "high";
  proposal.kind = corpus::SemanticsKind::kStructuralPattern;
  proposal.pattern = "no_blocking_in_sync";
  proposal.reasoning = "because";
  proposal.low_level.push_back({"desc", "tgt(", "a.b > 0"});
  const SemanticsProposal back = SemanticsProposal::from_json(proposal.to_json());
  EXPECT_EQ(back.case_id, "case-x");
  EXPECT_EQ(back.kind, corpus::SemanticsKind::kStructuralPattern);
  ASSERT_EQ(back.low_level.size(), 1u);
  EXPECT_EQ(back.low_level[0].condition_statement, "a.b > 0");

  // The bytes of a proposal with every optional key and of one with none
  // are pinned.
  SemanticsProposal bare;
  bare.case_id = "case-y";
  const std::string full_line = proposal.to_json().dump();
  const std::string bare_line = bare.to_json().dump();
  EXPECT_EQ(full_line, kFullProposal);
  EXPECT_EQ(bare_line, kBareProposal);
  for (const std::string& line : {full_line, bare_line})
    EXPECT_EQ(SemanticsProposal::from_json(support::Json::parse(line)).to_json().dump(), line);
}

// ---------------------------------------------------------------------------
// Embeddings / test selection
// ---------------------------------------------------------------------------

TEST(TfIdf, CosineRanksRelatedTextHigher) {
  TfIdfModel model;
  model.fit({"ephemeral node closing session", "snapshot expired ttl",
             "block report observer location"});
  const auto q = model.embed("closing session create ephemeral");
  const double close = TfIdfModel::cosine(q, model.embed("ephemeral node closing session"));
  const double far = TfIdfModel::cosine(q, model.embed("snapshot expired ttl"));
  EXPECT_GT(close, far);
  EXPECT_GT(close, 0.5);
}

TEST(TfIdf, EmptyAndOovTextsEmbedToZero) {
  TfIdfModel model;
  model.fit({"alpha beta"});
  EXPECT_TRUE(model.embed("").empty());
  EXPECT_TRUE(model.embed("gamma delta").empty());
  EXPECT_EQ(TfIdfModel::cosine({}, model.embed("alpha")), 0.0);
}

TEST(TestSelector, SelectsRegressionTestForItsContract) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  const minilang::Program program = minilang::parse_checked(ticket->patched_source);
  const TestSelector selector(program);
  EXPECT_EQ(selector.test_count(), 5u);
  const auto ranked =
      selector.rank("create_ephemeral_node closing session p_request_create rejected");
  ASSERT_FALSE(ranked.empty());
  // The ZK-1208 regression test must rank in the top 2.
  bool in_top2 = false;
  for (std::size_t i = 0; i < 2 && i < ranked.size(); ++i)
    if (ranked[i].test_name == "test_zk1208_no_create_on_closing_session") in_top2 = true;
  EXPECT_TRUE(in_top2) << "top test: " << ranked[0].test_name;
}

TEST(TestSelector, SelectRespectsLimitsAndThreshold) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  const minilang::Program program = minilang::parse_checked(ticket->patched_source);
  const TestSelector selector(program);
  EXPECT_LE(selector.select("ephemeral", 2).size(), 2u);
  // An absurd threshold filters everything.
  EXPECT_TRUE(selector.select("ephemeral", 10, 0.999).empty());
}

TEST(TestSelector, RankingIsDeterministic) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("cass-hint-decommissioned");
  const minilang::Program program = minilang::parse_checked(ticket->patched_source);
  const TestSelector selector(program);
  const auto a = selector.rank("hints decommissioned replay");
  const auto b = selector.rank("hints decommissioned replay");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].test_name, b[i].test_name);
}

}  // namespace
}  // namespace lisa::inference
