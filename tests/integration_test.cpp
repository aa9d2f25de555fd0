// Cross-module integration tests: the full incident → contract → enforcement
// story, the §4 preliminary results, and the Fig. 6 generalization claim.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

#include "concolic/schedule.hpp"
#include "inference/mock_llm.hpp"
#include "lisa/ci_gate.hpp"
#include "lisa/pipeline.hpp"
#include "minilang/sema.hpp"
#include "obs/metrics.hpp"
#include "staticcheck/screener.hpp"
#include "support/strings.hpp"

namespace lisa {
namespace {

using core::Checker;
using core::CheckOptions;
using core::ContractCheckReport;
using core::Pipeline;
using core::PipelineResult;

// §4 Bug #1: applying LISA (with the rule learned from HBASE-27671) to the
// latest mini-HBase finds the unprotected snapshot-scan path.
TEST(PreliminaryResults, Bug1HbaseSnapshotScan) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("hbase-27671-snapshot-ttl");
  ASSERT_NE(ticket, nullptr);
  const PipelineResult result = Pipeline().run(*ticket, ticket->latest_source);
  ASSERT_EQ(result.reports.size(), 1u);
  const ContractCheckReport& report = result.reports[0];
  // restore + export are guarded in the latest version; scan is not.
  EXPECT_EQ(report.target_statements, 3u);
  EXPECT_EQ(report.verified, 2);
  EXPECT_EQ(report.violated, 1);
  bool scan_flagged = false;
  for (const core::PathReport& path : report.paths) {
    if (path.verdict != core::PathVerdict::kViolated) continue;
    for (const std::string& fn : path.call_chain)
      if (fn == "scan_snapshot") scan_flagged = true;
  }
  EXPECT_TRUE(scan_flagged);
}

// §4 Bug #2: the batched-listing path of the latest mini-HDFS misses the
// block-location check.
TEST(PreliminaryResults, Bug2HdfsBatchedListing) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("hdfs-13924-observer-locations");
  ASSERT_NE(ticket, nullptr);
  const PipelineResult result = Pipeline().run(*ticket, ticket->latest_source);
  ASSERT_EQ(result.reports.size(), 1u);
  const ContractCheckReport& report = result.reports[0];
  EXPECT_EQ(report.target_statements, 3u);
  EXPECT_EQ(report.verified, 2);
  EXPECT_EQ(report.violated, 1);
  bool batched_flagged = false;
  for (const core::PathReport& path : report.paths) {
    if (path.verdict != core::PathVerdict::kViolated) continue;
    for (const std::string& fn : path.call_chain)
      if (fn == "get_batched_listing") batched_flagged = true;
  }
  EXPECT_TRUE(batched_flagged);
}

// Fig. 6: the generalized blocking rule catches the second serializer the
// specific rule misses. Both rules read the lock-state screen: the general
// rule is every diagnostic, the specific one only direct write_record calls.
bool is_direct_write_record(const staticcheck::Diagnostic& diagnostic) {
  return support::starts_with(diagnostic.message, "call to write_record ");
}

TEST(Generalization, BroadRuleCatchesAclSerializer) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-2201-sync-serialize");
  const minilang::Program patched = minilang::parse_checked(ticket->patched_source);
  const staticcheck::ScreenResult screen = staticcheck::Screener(patched).screen_structural();

  // The specific rule is tied to the patched function's call; after the fix
  // nothing in serialize_node blocks under sync, and the rule cannot see the
  // latent serialize_acls hazard.
  bool specific_flags_acl = false;
  bool general_flags_acl = false;
  for (const staticcheck::Diagnostic& diagnostic : screen.diagnostics) {
    if (diagnostic.function != "serialize_acls") continue;
    general_flags_acl = true;
    if (is_direct_write_record(diagnostic)) specific_flags_acl = true;
  }

  EXPECT_TRUE(general_flags_acl);
  EXPECT_TRUE(specific_flags_acl);  // direct call also inside sync here
  // The decisive case: a serializer that blocks through a helper function —
  // invisible to the syntactic specific rule, caught by the generalized one.
  const minilang::Program indirect = minilang::parse_checked(R"(
struct Cache { data: string; }
fn persist_entry(c: Cache) { fsync_log(c); }
@entry
fn serialize_cache(c: Cache) {
  sync (c) {
    persist_entry(c);
  }
}
)");
  const staticcheck::ScreenResult indirect_screen =
      staticcheck::Screener(indirect).screen_structural();
  EXPECT_EQ(indirect_screen.diagnostics.size(), 1u);
  EXPECT_TRUE(std::none_of(indirect_screen.diagnostics.begin(),
                           indirect_screen.diagnostics.end(), is_direct_write_record));
}

// The full CI story: the contract learned from incident 1 blocks the commit
// that would have caused incident 2, and admits the commit with the complete
// fix. This is Figure 1's loop closed.
TEST(EndToEnd, ContractBlocksTheHistoricalRegressionCommit) {
  int blocked = 0;
  int admitted = 0;
  for (const corpus::FailureTicket& ticket : corpus::Corpus::all()) {
    if (ticket.kind != corpus::SemanticsKind::kStatePredicate) continue;
    const inference::SemanticsProposal proposal = inference::MockLlm().infer(ticket);
    core::TranslationResult translation = core::translate(proposal, ticket.system);
    ASSERT_FALSE(translation.contracts.empty()) << ticket.case_id;
    core::ContractStore store;
    store.add_all(std::move(translation.contracts));
    const core::CiGate gate;
    // The patched source still contains the second, unguarded path: in the
    // real history this shipped and became the regression. LISA blocks it.
    const core::GateDecision decision = gate.evaluate(ticket.patched_source, store);
    if (!decision.allowed) ++blocked;
    else ++admitted;
  }
  EXPECT_EQ(admitted, 0);
  EXPECT_EQ(blocked, 15);  // all state-predicate cases
}

// Dynamic-only sanity: concolic replay of the regression tests confirms the
// fixed path on every corpus case (tests pass, no concrete violations there).
TEST(EndToEnd, RegressionTestsPassOnPatchedUnderConcolicReplay) {
  for (const corpus::FailureTicket& ticket : corpus::Corpus::all()) {
    if (ticket.kind != corpus::SemanticsKind::kStatePredicate) continue;
    const inference::SemanticsProposal proposal = inference::MockLlm().infer(ticket);
    core::TranslationResult translation = core::translate(proposal, ticket.system);
    const minilang::Program program = minilang::parse_checked(ticket.patched_source);
    CheckOptions options;
    options.forced_tests = ticket.regression_tests;
    const ContractCheckReport report =
        Checker().check(staticcheck::Screener(program), translation.contracts[0], options);
    EXPECT_EQ(report.dynamic.tests_run, static_cast<int>(ticket.regression_tests.size()))
        << ticket.case_id;
    EXPECT_EQ(report.dynamic.tests_run, report.dynamic.tests_passed) << ticket.case_id;
    EXPECT_EQ(report.dynamic.concrete_violations, 0) << ticket.case_id;
  }
}

// Cross-validation (§5): noisy "hallucinated" contracts fail the sanity
// check on the patched version far more often than faithful ones, so
// grounding mined semantics against system behaviour filters them.
TEST(EndToEnd, SanityCheckFiltersHallucinatedContracts) {
  int faithful_sane = 0;
  int faithful_total = 0;
  int noisy_insane = 0;
  int noisy_total = 0;
  for (const corpus::FailureTicket& ticket : corpus::Corpus::all()) {
    if (ticket.kind != corpus::SemanticsKind::kStatePredicate) continue;
    const minilang::Program program = minilang::parse_checked(ticket.patched_source);
    const staticcheck::Screener analysis(program);
    CheckOptions options;
    options.run_concolic = false;

    const inference::SemanticsProposal clean = inference::MockLlm().infer(ticket);
    for (const auto& contract : core::translate(clean, ticket.system).contracts) {
      ++faithful_total;
      if (Checker().check(analysis, contract, options).sanity_ok) ++faithful_sane;
    }
    inference::MockLlmOptions noise;
    noise.noise = 1.0;
    noise.seed = 123;
    const inference::SemanticsProposal noisy = inference::MockLlm(noise).infer(ticket);
    for (const auto& contract : core::translate(noisy, ticket.system).contracts) {
      ++noisy_total;
      if (!Checker().check(analysis, contract, options).sanity_ok) ++noisy_insane;
    }
  }
  EXPECT_EQ(faithful_sane, faithful_total);  // every faithful rule grounds
  EXPECT_GT(noisy_insane, noisy_total / 3);  // most hallucinations rejected
}

// The gate checks every stored contract against one shared analysis of the
// commit. Sharing must change nothing: each contract's verdict and its whole
// evidence chain equal a from-scratch check with an analysis of its own.
TEST(SharedAnalysis, GateVerdictsEqualFromScratchChecks) {
  std::map<std::string, core::ContractStore> stores;  // one per system
  for (const corpus::FailureTicket& ticket : corpus::Corpus::all())
    stores[ticket.system].add_all(
        core::translate(inference::MockLlm().infer(ticket), ticket.system).contracts);
  CheckOptions options;
  options.run_concolic = false;
  const core::CiGate gate(options);
  int compared = 0;
  for (const corpus::FailureTicket& ticket : corpus::Corpus::all()) {
    const core::ContractStore& store = stores.at(ticket.system);
    for (const std::string* source :
         {&ticket.buggy_source, &ticket.patched_source, &ticket.latest_source}) {
      if (source->empty()) continue;
      obs::ProvenanceLedger shared;
      core::GateRunOptions run_options;
      run_options.ledger = &shared;
      const core::GateDecision decision = gate.evaluate(*source, store, run_options);
      const minilang::Program program = minilang::parse_checked(*source);
      for (const ContractCheckReport& report : decision.reports) {
        SCOPED_TRACE(ticket.case_id + " " + report.contract_id);
        const auto contract = std::find_if(
            store.all().begin(), store.all().end(),
            [&](const core::SemanticContract& c) { return c.id == report.contract_id; });
        ASSERT_NE(contract, store.all().end());
        obs::ProvenanceLedger own;
        core::RunOptions own_run;
        own_run.ledger = &own;
        const staticcheck::Screener own_analysis(program);
        const ContractCheckReport fresh =
            core::check_contracts(own_analysis, {&*contract}, options, own_run, "").reports.at(0);
        EXPECT_EQ(report.verdict_signature(), fresh.verdict_signature());
        ASSERT_NE(shared.find(report.contract_id), nullptr);
        ASSERT_NE(own.find(report.contract_id), nullptr);
        EXPECT_EQ(shared.find(report.contract_id)->to_json().dump(),
                  own.find(report.contract_id)->to_json().dump());
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 100);
}

// Summaries are a per-program cost: one evaluation computes them once, however
// many contracts it checks.
TEST(SharedAnalysis, GateComputesSummariesOncePerEvaluation) {
  core::ContractStore store;
  for (const char* case_id : {"zk-1208-ephemeral-create", "zk-2201-sync-serialize"}) {
    const corpus::FailureTicket* ticket = corpus::Corpus::find(case_id);
    ASSERT_NE(ticket, nullptr);
    store.add_all(
        core::translate(inference::MockLlm().infer(*ticket), ticket->system).contracts);
  }
  CheckOptions options;
  options.run_concolic = false;
  const std::int64_t before = obs::metrics().histogram("summaries.ms").count();
  const core::GateDecision decision = core::CiGate(options).evaluate(
      corpus::Corpus::find("zk-1208-ephemeral-create")->patched_source, store);
  EXPECT_EQ(decision.reports.size(), 2u);
  EXPECT_EQ(obs::metrics().histogram("summaries.ms").count() - before, 1);
}

// The call graph is the program's one structural index: an evaluation builds
// each function's CFG once and renders each statement header outside the
// @test functions once, however many contracts it checks. Runs what
// perfbench's `gate` and `ingest` ops run: the gate over every corpus commit
// whose tests spawn no threads, with one mined store per system, and the
// pipeline on one ticket.
TEST(SharedAnalysis, OneCfgPerFunctionAndOneHeaderPerStatementPerEvaluation) {
  std::map<std::string, core::ContractStore> stores;
  for (const corpus::FailureTicket& ticket : corpus::Corpus::all())
    stores[ticket.system].add_all(
        core::translate(inference::MockLlm().infer(ticket), ticket.system).contracts);
  const obs::Counter& cfg_builds = obs::metrics().counter("analysis.cfg_builds");
  const obs::Counter& headers = obs::metrics().counter("analysis.statement_headers");
  // Runs one evaluation of `source` and checks its counts against the
  // program's functions and statements outside the @test functions.
  const auto expect_one_index = [&](const std::string& label, const std::string& source,
                                    const std::function<void()>& evaluate) {
    const minilang::Program program = minilang::parse_checked(source);
    std::int64_t statements = 0;
    program.for_each_stmt([&](const minilang::FuncDecl& fn, const minilang::Stmt&) {
      if (!fn.has_annotation("test")) ++statements;
    });
    const std::int64_t builds_before = cfg_builds.value();
    const std::int64_t headers_before = headers.value();
    evaluate();
    EXPECT_EQ(cfg_builds.value() - builds_before,
              static_cast<std::int64_t>(program.functions.size()))
        << label;
    EXPECT_EQ(headers.value() - headers_before, statements) << label;
  };

  CheckOptions options;
  options.run_concolic = false;  // what `lisa gate` uses
  const core::CiGate gate(options);
  int evaluations = 0;
  for (const corpus::FailureTicket& ticket : corpus::Corpus::all()) {
    for (const std::string* source :
         {&ticket.buggy_source, &ticket.patched_source, &ticket.latest_source}) {
      if (source->empty()) continue;
      const minilang::Program program = minilang::parse_checked(*source);
      const concolic::ScheduleExplorer explorer(program, concolic::ScheduleExploreOptions{});
      const std::vector<const minilang::FuncDecl*> tests = program.functions_with("test");
      if (std::any_of(tests.begin(), tests.end(), [&](const minilang::FuncDecl* test) {
            return explorer.test_spawns(test->name);
          }))
        continue;
      expect_one_index(ticket.case_id, *source, [&] {
        EXPECT_FALSE(gate.evaluate(*source, stores.at(ticket.system)).reports.empty());
      });
      ++evaluations;
    }
  }
  EXPECT_EQ(evaluations, 42);

  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  ASSERT_NE(ticket, nullptr);
  expect_one_index("pipeline", ticket->buggy_source, [&] {
    EXPECT_FALSE(Pipeline().run(*ticket, ticket->buggy_source).all_passed());
  });
}

}  // namespace
}  // namespace lisa
