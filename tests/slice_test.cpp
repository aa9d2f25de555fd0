// Unit tests for src/staticcheck/slice and the fingerprint-keyed incremental
// machinery built on it: cone minimality, fingerprint stability and
// sensitivity, the screener's slice-irrelevance rule, and gate resume after
// a source edit.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>

#include "corpus/ticket.hpp"
#include "inference/mock_llm.hpp"
#include "lisa/checker.hpp"
#include "lisa/ci_gate.hpp"
#include "lisa/journal.hpp"
#include "lisa/pipeline.hpp"
#include "minilang/sema.hpp"
#include "obs/provenance.hpp"
#include "smt/minilang_bridge.hpp"
#include "staticcheck/screener.hpp"
#include "staticcheck/slice.hpp"

namespace lisa::staticcheck {
namespace {

using minilang::Program;

// A small service with a clear cone structure: `audit` and its helper are
// unreachable from the contract target's callers/callees, and the only test
// drives the target through `handler`.
constexpr const char* kService = R"(
struct Session { id: int; closed: bool; }
fn fetch(s: Session) -> bool {
  return s.closed;
}
fn commit(s: Session) {
  if (fetch(s)) {
    print(0);
  }
  print(s.id);
}
@entry
fn handler(s: Session) {
  if (!s.closed) {
    commit(s);
  }
}
fn audit_helper(n: int) -> int {
  return n + 1;
}
@entry
fn audit(n: int) {
  print(audit_helper(n));
}
@test
fn test_commit() {
  let s = new Session { id: 1, closed: false };
  handler(s);
}
)";

SliceRequest commit_request(bool include_tests) {
  SliceRequest request;
  request.kind = SliceRequest::Kind::kStatePredicate;
  request.target_fragment = "commit(";
  const auto condition = smt::parse_condition("!s.closed");
  EXPECT_TRUE(condition.has_value());
  request.condition = *condition;
  request.condition_text = "!s.closed";
  request.contract_text = "c1|commit(|!s.closed";
  request.include_tests = include_tests;
  return request;
}

TEST(SliceEngine, ConeIsMinimalForStatePredicates) {
  const Program program = minilang::parse_checked(kService);
  const Screener screener(program);
  const SliceEngine engine(program, screener.graph(), screener.summaries());

  const SliceResult sliced = engine.slice(commit_request(/*include_tests=*/false));
  EXPECT_FALSE(sliced.degraded);
  // Target + caller + callee — nothing from the audit side, no tests.
  const std::set<std::string> expected{"commit", "fetch", "handler"};
  EXPECT_EQ(sliced.functions, expected);
  ASSERT_EQ(sliced.targets.size(), 1u);
  EXPECT_EQ(sliced.targets[0].find("handler:"), 0u);
  // Footprint is the condition's read set, rooted at the target-local name.
  ASSERT_FALSE(sliced.footprint.empty());
  EXPECT_NE(std::find(sliced.footprint.begin(), sliced.footprint.end(), "s.closed"),
            sliced.footprint.end());
}

TEST(SliceEngine, IncludeTestsWidensTheCone) {
  const Program program = minilang::parse_checked(kService);
  const Screener screener(program);
  const SliceEngine engine(program, screener.graph(), screener.summaries());

  const SliceResult sliced = engine.slice(commit_request(/*include_tests=*/true));
  EXPECT_EQ(sliced.functions.count("test_commit"), 1u);
  EXPECT_EQ(sliced.functions.count("audit"), 0u);
}

TEST(SliceEngine, DegradesToWholeProgramWithoutSummaries) {
  const Program program = minilang::parse_checked(kService);
  const Screener screener(program);
  const SliceEngine engine(program, screener.graph(), nullptr);

  const SliceResult sliced = engine.slice(commit_request(/*include_tests=*/false));
  EXPECT_TRUE(sliced.degraded);
  EXPECT_EQ(sliced.functions.size(), program.functions.size());
}

TEST(SliceEngine, TargetStatementsCarryRoles) {
  const Program program = minilang::parse_checked(kService);
  const Screener screener(program);
  const SliceEngine engine(program, screener.graph(), screener.summaries());

  const SliceResult sliced = engine.slice(commit_request(/*include_tests=*/false));
  bool saw_target = false, saw_control = false;
  for (const SliceStatement& statement : sliced.statements) {
    if (statement.role == "target") saw_target = true;
    if (statement.role == "control") saw_control = true;
  }
  EXPECT_TRUE(saw_target);
  // The call site is guarded by `if (!s.closed)` — control dependence must
  // pull the branch into the statement slice.
  EXPECT_TRUE(saw_control);
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

std::string fingerprint_of(const std::string& source, bool include_tests) {
  const Program program = minilang::parse_checked(source);
  const Screener screener(program);
  const SliceEngine engine(program, screener.graph(), screener.summaries());
  return engine.slice(commit_request(include_tests)).fingerprint;
}

TEST(SliceFingerprint, StableAcrossEngines) {
  EXPECT_EQ(fingerprint_of(kService, false), fingerprint_of(kService, false));
  // include_tests is part of the identity: a pipeline (concolic) entry must
  // not be replayed by a gate (static-only) run or vice versa.
  EXPECT_NE(fingerprint_of(kService, false), fingerprint_of(kService, true));
}

TEST(SliceFingerprint, SensitiveToEditsInsideTheCone) {
  std::string edited = kService;
  const std::string from = "print(s.id);";
  edited.replace(edited.find(from), from.size(), "print(s.id + 1);");
  EXPECT_NE(fingerprint_of(kService, false), fingerprint_of(edited, false));
}

TEST(SliceFingerprint, InsensitiveToEditsOutsideTheCone) {
  std::string edited = kService;
  const std::string from = "return n + 1;";
  edited.replace(edited.find(from), from.size(), "return n + 2;");
  EXPECT_EQ(fingerprint_of(kService, false), fingerprint_of(edited, false));
}

TEST(SliceFingerprint, InsensitiveToLineShiftsAboveTheCone) {
  // Inserting a whole new function above everything shifts every line and
  // statement id in the file; the cone is unchanged, so the fingerprint
  // must be too — this is what makes incremental re-checking incremental.
  std::string shifted = "fn unrelated_prelude() {\n  print(0);\n}\n";
  shifted += kService;
  EXPECT_EQ(fingerprint_of(kService, false), fingerprint_of(shifted, false));
}

TEST(SliceFingerprint, SensitiveToNewTargetMatches) {
  std::string edited = kService;
  const std::string from = "fn audit(n: int) {";
  edited.replace(edited.find(from), from.size(),
                 "fn audit(n: int) {\n  let s = new Session { id: 9, closed: false "
                 "};\n  commit(s);");
  EXPECT_NE(fingerprint_of(kService, false), fingerprint_of(edited, false));
}

// ---------------------------------------------------------------------------
// Screener slice-irrelevance rule
// ---------------------------------------------------------------------------

// The rule is a *fallback*: it is consulted only where the execution tree
// leaves the verdict open (no entry→target path, or unmappable paths). A
// mutually-recursive island no @entry root reaches produces exactly that —
// the tree is empty, yet the dependence cone still sees every construction
// and every write, so the slice can close what path enumeration cannot.
std::string island_program(const char* step_body) {
  std::string source = R"(
struct Session { id: int; closed: bool; }
fn commit(s: Session) {
  print(s.id);
}
@entry
fn unrelated() {
  print(0);
}
fn pump(n: int) {
  if (n > 0) {
    step(n);
  }
}
fn step(n: int) {
)";
  source += step_body;
  source += R"(
  pump(n - 1);
}
)";
  return source;
}

TEST(SliceScreening, LiteralConstructionsDischargeTheContract) {
  const Program program = minilang::parse_checked(island_program(R"(
  let s = new Session { id: 1, closed: false };
  commit(s);)"));
  const Screener screener(program);
  const auto condition = smt::parse_condition("!s.closed");
  ASSERT_TRUE(condition.has_value());
  const ScreenResult result = screener.screen_state_predicate("commit(", *condition);
  EXPECT_EQ(result.verdict, ScreenVerdict::kProvedSafe);
  EXPECT_NE(result.reason.find("slice"), std::string::npos) << result.reason;
}

TEST(SliceScreening, ViolatingConstructionIsNotDischarged) {
  // Same shape, but the construction itself fails the predicate: the rule
  // must abstain (Unknown), not prove safety.
  const Program program = minilang::parse_checked(island_program(R"(
  let s = new Session { id: 1, closed: true };
  commit(s);)"));
  const Screener screener(program);
  const auto condition = smt::parse_condition("!s.closed");
  ASSERT_TRUE(condition.has_value());
  const ScreenResult result = screener.screen_state_predicate("commit(", *condition);
  EXPECT_NE(result.verdict, ScreenVerdict::kProvedSafe);
}

TEST(SliceScreening, MutatedFootprintIsNotDischarged) {
  // A later write to the footprint makes the construction facts stale; the
  // rule must abstain (any write site that is not a literal construction).
  const Program program = minilang::parse_checked(island_program(R"(
  let s = new Session { id: 1, closed: false };
  if (n > 5) {
    s.closed = true;
  }
  commit(s);)"));
  const Screener screener(program);
  const auto condition = smt::parse_condition("!s.closed");
  ASSERT_TRUE(condition.has_value());
  const ScreenResult result = screener.screen_state_predicate("commit(", *condition);
  EXPECT_NE(result.verdict, ScreenVerdict::kProvedSafe);
}

// ---------------------------------------------------------------------------
// Incremental gate resume after an edit
// ---------------------------------------------------------------------------

TEST(IncrementalResume, EditRechecksOnlyContractsWhoseConeContainsIt) {
  const corpus::FailureTicket* zk = corpus::Corpus::find("zk-1208-ephemeral-create");
  ASSERT_NE(zk, nullptr);
  core::ContractStore store;
  {
    const inference::SemanticsProposal proposal = inference::MockLlm().infer(*zk);
    core::TranslationResult translation = core::translate(proposal, zk->system);
    store.add_all(std::move(translation.contracts));
  }

  // Edit outside every state-predicate cone: `node_exists` is only called
  // from tests, and the gate runs without concolic replay.
  const std::string base = zk->patched_source;
  std::string edited = base;
  const std::string from = "return node != null;";
  const std::size_t at = edited.find(from);
  ASSERT_NE(at, std::string::npos);
  edited.replace(at, from.size(), "if (false) { return false; } return node != null;");

  const std::string journal_path =
      (std::filesystem::temp_directory_path() / "lisa_slice_test_journal.jsonl").string();
  core::CheckOptions options;
  options.run_concolic = false;
  const core::CiGate gate(options);

  core::GateRunOptions journaling;
  journaling.journal_path = journal_path;
  const core::GateDecision cold_base = gate.evaluate(base, store, journaling);
  ASSERT_FALSE(cold_base.reports.empty());

  core::GateRunOptions resuming = journaling;
  resuming.resume = true;
  const core::GateDecision resumed = gate.evaluate(edited, store, resuming);
  const core::GateDecision cold_edited = gate.evaluate(edited, store);
  std::remove(journal_path.c_str());

  // The state-predicate contract's cone does not contain the edit: replayed.
  EXPECT_GT(resumed.resumed_contracts, 0);
  // Replay must be verdict-equivalent to a cold run on the edited source.
  ASSERT_EQ(resumed.reports.size(), cold_edited.reports.size());
  std::map<std::string, std::string> cold_signatures;
  for (const core::ContractCheckReport& report : cold_edited.reports)
    cold_signatures[report.contract_id] = report.verdict_signature();
  for (const core::ContractCheckReport& report : resumed.reports) {
    ASSERT_TRUE(cold_signatures.count(report.contract_id) > 0) << report.contract_id;
    EXPECT_EQ(report.verdict_signature(), cold_signatures[report.contract_id])
        << report.contract_id;
  }
}

TEST(IncrementalResume, SliceFpRecordedOnlyWhenRequested) {
  // check_contracts records a contract's slice fingerprint, on its report
  // and its capture, exactly when the run has a ledger.
  const corpus::FailureTicket* zk = corpus::Corpus::find("zk-1208-ephemeral-create");
  ASSERT_NE(zk, nullptr);
  const inference::SemanticsProposal proposal = inference::MockLlm().infer(*zk);
  core::TranslationResult translation = core::translate(proposal, zk->system);
  ASSERT_FALSE(translation.contracts.empty());
  const core::SemanticContract& contract = translation.contracts[0];
  const Program program = minilang::parse_checked(zk->patched_source);

  for (const bool static_screen : {true, false}) {
    SCOPED_TRACE(static_screen ? "screening on" : "screening off");
    const Screener analysis(program);
    core::CheckOptions options;
    options.run_concolic = false;
    options.static_screen = static_screen;
    const core::CheckedContracts without =
        core::check_contracts(analysis, {&contract}, options, core::RunOptions{}, "");
    ASSERT_EQ(without.reports.size(), 1u);
    EXPECT_TRUE(without.reports[0].slice_fp.empty());

    obs::ProvenanceLedger ledger;
    core::RunOptions capturing;
    capturing.ledger = &ledger;
    const core::CheckedContracts with =
        core::check_contracts(analysis, {&contract}, options, capturing, "inputs");
    ASSERT_EQ(with.reports.size(), 1u);
    const std::string& slice_fp = with.reports[0].slice_fp;
    EXPECT_FALSE(slice_fp.empty());
    // And the recorded fingerprint is exactly what resume will recompute.
    EXPECT_EQ(slice_fp, core::contract_slice_fingerprint(Screener(program).slicer(), contract,
                                                         options.run_concolic));
    const obs::ContractCapture* capture = ledger.find(contract.id);
    ASSERT_NE(capture, nullptr);
    EXPECT_EQ(capture->slice_fp, slice_fp);
    EXPECT_EQ(capture->report.get_string("slice_fp"), slice_fp);
  }
}

TEST(IncrementalResume, UnchangedCommitResumesEveryContract) {
  core::ContractStore store;
  for (const char* case_id : {"zk-1208-ephemeral-create", "zk-2201-sync-serialize"}) {
    const corpus::FailureTicket* ticket = corpus::Corpus::find(case_id);
    ASSERT_NE(ticket, nullptr);
    store.add_all(
        core::translate(inference::MockLlm().infer(*ticket), ticket->system).contracts);
  }
  const std::string source = corpus::Corpus::find("zk-1208-ephemeral-create")->patched_source;
  const std::string journal_path =
      (std::filesystem::temp_directory_path() / "lisa_slice_test_unchanged.jsonl").string();
  for (const bool static_screen : {true, false}) {
    SCOPED_TRACE(static_screen ? "screening on" : "screening off");
    core::CheckOptions options;
    options.run_concolic = false;
    options.static_screen = static_screen;
    const core::CiGate gate(options);
    core::GateRunOptions journaling;
    journaling.journal_path = journal_path;
    const core::GateDecision cold = gate.evaluate(source, store, journaling);
    ASSERT_EQ(cold.reports.size(), 2u);
    journaling.resume = true;
    const core::GateDecision resumed = gate.evaluate(source, store, journaling);
    EXPECT_EQ(resumed.resumed_contracts, 2);
  }
  std::remove(journal_path.c_str());
}

}  // namespace
}  // namespace lisa::staticcheck
