// Verdict provenance: ledger round-trip, byte-stable determinism, and
// explain-vs-checker agreement (the narrated counterexample must concretely
// reproduce the violation the checker reported).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "corpus/ticket.hpp"
#include "lisa/checker.hpp"
#include "lisa/ci_gate.hpp"
#include "lisa/pipeline.hpp"
#include "minilang/sema.hpp"
#include "obs/diff.hpp"
#include "obs/explain.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "support/budget.hpp"
#include "support/jsonl.hpp"
#include "support/strings.hpp"

namespace {

using namespace lisa;

/// Runs the full pipeline on `source` with a provenance ledger attached.
core::PipelineResult run_with_ledger(const corpus::FailureTicket& ticket,
                                     const std::string& source,
                                     obs::ProvenanceLedger* ledger) {
  core::PipelineRunOptions run_options;
  run_options.ledger = ledger;
  const core::Pipeline pipeline;
  return pipeline.run(ticket, source, run_options);
}

const corpus::FailureTicket& ticket_or_die(const std::string& case_id) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find(case_id);
  EXPECT_NE(ticket, nullptr) << case_id;
  return *ticket;
}

TEST(ProvenanceLedger, CapturesFullEvidenceChain) {
  const corpus::FailureTicket& ticket = ticket_or_die("zk-1208-ephemeral-create");
  obs::ProvenanceLedger ledger;
  const core::PipelineResult result = run_with_ledger(ticket, ticket.buggy_source, &ledger);
  ASSERT_FALSE(result.reports.empty());
  EXPECT_FALSE(ledger.run_fingerprint().empty());
  EXPECT_EQ(ledger.size(), result.reports.size());

  const obs::ContractCapture* capture = ledger.find(result.reports[0].contract_id);
  ASSERT_NE(capture, nullptr);
  EXPECT_EQ(capture->system, "zookeeper");
  EXPECT_EQ(capture->kind, "state-predicate");
  EXPECT_STREQ(capture->report.verdict_name(), "violated");
  EXPECT_FALSE(capture->fingerprint.empty());
  // Every layer contributed evidence: screen facts, static paths, per-phase
  // SMT queries, and concolic hits.
  EXPECT_FALSE(capture->facts.empty());
  EXPECT_FALSE(capture->report.paths.empty());
  EXPECT_FALSE(capture->hits.empty());
  bool screen = false, static_path = false, concolic = false;
  for (const obs::SmtQueryEvidence& query : capture->smt_queries) {
    if (query.phase == "screen") screen = true;
    if (query.phase == "static-path") static_path = true;
    if (query.phase == "concolic") concolic = true;
    EXPECT_FALSE(query.digest.empty());
    EXPECT_EQ(query.digest, obs::evidence_digest(query.query));
  }
  EXPECT_TRUE(screen);
  EXPECT_TRUE(static_path);
  EXPECT_TRUE(concolic);
  // Every violated static path carries its counterexample.
  int violated = 0;
  for (const core::PathReport& path : capture->report.paths) {
    if (path.verdict != core::PathVerdict::kViolated) continue;
    ++violated;
    EXPECT_FALSE(path.counterexample.empty()) << support::join(path.call_chain, " -> ");
  }
  EXPECT_GT(violated, 0);
  // The proposal provenance reflects the (fault-free) inference run.
  EXPECT_EQ(ledger.proposal().case_id, ticket.case_id);
  EXPECT_TRUE(ledger.proposal().succeeded);
  EXPECT_GE(ledger.proposal().attempts, 1);
}

/// A capture with every optional key of every record it holds: a
/// budget-exhausted report with a screen and a schedule group, a path with
/// every key, an SMT query with a model and a reason, a hit with a witness,
/// an exhausted budget, and a narration step with a thread and a note.
obs::ContractCapture full_capture() {
  obs::ContractCapture capture;
  capture.contract_id = "c#0";
  capture.system = "zookeeper";
  capture.kind = "state-predicate";
  capture.target_fragment = "create(";
  capture.condition_text = "s.closing == false";
  capture.description = "no create on a closing session";
  capture.fingerprint = "f0";
  capture.facts.push_back({"nullness", "create", 3, 5, "s#null = non-null"});
  capture.smt_queries.push_back({"static-path", "(x > 0)", "d0", "sat", "x = 1", "why"});
  capture.hits.push_back({"t_create", "create", 7, "s.closing", "!(s.closing)",
                          "concrete-violation", "s.closing = true"});
  capture.budget.attached = true;
  capture.budget.exhausted = true;
  capture.budget.resource = "steps";
  capture.budget.reason = "step limit 10 reached";
  capture.budget.charges = {{"paths", 3}, {"steps", 10}};
  capture.narration.kind = "schedule-replay";
  capture.narration.test = "t_create";
  capture.narration.reproduced = true;
  capture.narration.steps.push_back({"create", 7, "let n = 1;", 1, 2, "n := 1"});
  capture.narration.predicate.push_back({"s.closing == false", "false (s.closing = true)", false});
  capture.narration.detail = "replayed";

  core::ContractCheckReport& report = capture.report;
  report.contract_id = "c#0";
  report.target_fragment = "create(";
  report.target_statements = 2;
  report.verified = 1;
  report.violated = 1;
  report.unmappable = 1;
  report.inconclusive = 1;
  report.uncovered = 1;
  report.raw_paths = 5;
  report.truncated = true;
  report.sanity_ok = true;
  core::PathReport path;
  path.call_chain = {"main", "create"};
  path.target_stmt_id = 7;
  path.target_text = "create(s);";
  path.path_condition = "true";
  path.contract_condition = "(s.closing == false)";
  path.verdict = core::PathVerdict::kViolated;
  path.counterexample = "s.closing = true";
  path.detail = "refused";
  path.covered_by_test = true;
  path.covering_tests = {"t_create"};
  report.paths.push_back(path);
  report.dynamic.selected_tests = {"t_create"};
  report.dynamic.tests_run = 2;
  report.dynamic.tests_passed = 1;
  report.dynamic.target_hits = 3;
  report.dynamic.symbolic_violations = 1;
  report.dynamic.concrete_violations = 1;
  report.dynamic.inconclusive_hits = 1;
  report.dynamic.degraded_runs = 1;
  report.dynamic.violation_details = {"t_create: s.closing = true"};
  report.structural_violations = {"blocking call under sync"};
  report.screen_verdict = "unknown";
  report.screen_witness = "main -> create";
  report.screen_reason = "no fact";
  report.screen_ms = 1.5;
  report.screen_skipped_concolic = true;
  report.budget_exhausted = true;
  report.budget_reason = "step limit 10 reached";
  report.budget_resource = "steps";
  report.schedules_explored = 3;
  report.schedule_conclusive = false;
  report.schedule_violations = 1;
  report.schedule_witness = "s0:1,0";
  report.schedule_inconclusive_reason = "schedule bound reached";
  report.schedule_violation_details = {"t1 lost an update"};
  report.slice_fp = "fp0";
  return capture;
}

// Written by the hand-written serializers that the field lists replaced.
const std::string kFullCaptureLine =
    R"json({"budget":{"attached":true,"charges":{"paths":3,"steps":10},"exhausted":true,)json"
    R"json("reason":"step limit 10 reached","resource":"steps"},)json"
    R"json("condition_text":"s.closing == false","contract_id":"c#0",)json"
    R"json("description":"no create on a closing session","digest":"f42958c1ba8ce479",)json"
    R"json("facts":[{"analysis":"nullness","column":5,"fact":"s#null = non-null",)json"
    R"json("function":"create","line":3}],"fingerprint":"f0","hits":[{"function":"create",)json"
    R"json("instantiated_contract":"!(s.closing)","outcome":"concrete-violation",)json"
    R"json("stmt_id":7,"test":"t_create","trace_condition":"s.closing",)json"
    R"json("witness":"s.closing = true"}],"kind":"state-predicate",)json"
    R"json("narration":{"detail":"replayed","kind":"schedule-replay",)json"
    R"json("predicate":[{"holds":false,"text":"s.closing == false",)json"
    R"json("value":"false (s.closing = true)"}],"reproduced":true,)json"
    R"json("steps":[{"function":"create","line":7,"note":"n := 1","stmt":"let n = 1;",)json"
    R"json("sync_depth":1,"thread":2}],"test":"t_create"},)json"
    R"json("report":{"budget_exhausted":true,"budget_reason":"step limit 10 reached",)json"
    R"json("budget_resource":"steps","conclusive":false,"contract_id":"c#0",)json"
    R"json("dynamic":{"concrete_violations":1,"degraded_runs":1,"inconclusive_hits":1,)json"
    R"json("selected_tests":["t_create"],"symbolic_violations":1,"target_hits":3,)json"
    R"json("tests_passed":1,"tests_run":2,)json"
    R"json("violation_details":["t_create: s.closing = true"]},"inconclusive":1,)json"
    R"json("passed":false,"paths":[{"chain":"main -> create",)json"
    R"json("contract_condition":"(s.closing == false)","counterexample":"s.closing = true",)json"
    R"json("covered_by_test":true,"covering_tests":["t_create"],"detail":"refused",)json"
    R"json("path_condition":"true","target_stmt":"create(s);","target_stmt_id":7,)json"
    R"json("verdict":"violated"}],"raw_paths":5,"sanity_ok":true,)json"
    R"json("schedule":{"conclusive":false,"explored":3,"reason":"schedule bound reached",)json"
    R"json("violation_details":["t1 lost an update"],"violations":1,"witness":"s0:1,0"},)json"
    R"json("screen":{"reason":"no fact","skipped_concolic":true,"verdict":"unknown",)json"
    R"json("witness":"main -> create"},"slice_fp":"fp0",)json"
    R"json("structural_violations":["blocking call under sync"],)json"
    R"json("target_fragment":"create(","target_statements":2,"truncated":true,)json"
    R"json("uncovered":1,"unmappable":1,"verified":1,"violated":1},)json"
    R"json("smt_queries":[{"digest":"d0","model":"x = 1","phase":"static-path",)json"
    R"json("query":"(x > 0)","reason":"why","status":"sat"}],"system":"zookeeper",)json"
    R"json("target_fragment":"create("})json";
const std::string kBareCaptureLine =
    R"json({"condition_text":"","contract_id":"c#1","description":"",)json"
    R"json("digest":"2428517295185482","facts":[],"fingerprint":"","hits":[],"kind":"",)json"
    R"json("report":{"contract_id":"","dynamic":{"concrete_violations":0,)json"
    R"json("selected_tests":[],"symbolic_violations":0,"target_hits":0,"tests_passed":0,)json"
    R"json("tests_run":0},"passed":true,"paths":[],"raw_paths":0,"sanity_ok":false,)json"
    R"json("structural_violations":[],"target_fragment":"","target_statements":0,)json"
    R"json("truncated":false,"uncovered":0,"unmappable":0,"verified":0,"violated":0},)json"
    R"json("smt_queries":[],"system":"","target_fragment":""})json";
const std::string kFullReport =
    R"json({"budget_exhausted":true,"budget_reason":"step limit 10 reached",)json"
    R"json("budget_resource":"steps","conclusive":false,"contract_id":"c#0",)json"
    R"json("dynamic":{"concrete_violations":1,"degraded_runs":1,"inconclusive_hits":1,)json"
    R"json("selected_tests":["t_create"],"symbolic_violations":1,"target_hits":3,)json"
    R"json("tests_passed":1,"tests_run":2,)json"
    R"json("violation_details":["t_create: s.closing = true"]},"inconclusive":1,)json"
    R"json("passed":false,"paths":[{"chain":"main -> create",)json"
    R"json("contract_condition":"(s.closing == false)","counterexample":"s.closing = true",)json"
    R"json("covered_by_test":true,"covering_tests":["t_create"],"detail":"refused",)json"
    R"json("path_condition":"true","target_stmt":"create(s);","target_stmt_id":7,)json"
    R"json("verdict":"violated"}],"raw_paths":5,"sanity_ok":true,)json"
    R"json("schedule":{"conclusive":false,"explored":3,"reason":"schedule bound reached",)json"
    R"json("violation_details":["t1 lost an update"],"violations":1,"witness":"s0:1,0"},)json"
    R"json("screen":{"elapsed_ms":1.5,"reason":"no fact","skipped_concolic":true,)json"
    R"json("verdict":"unknown","witness":"main -> create"},"slice_fp":"fp0",)json"
    R"json("structural_violations":["blocking call under sync"],)json"
    R"json("target_fragment":"create(","target_statements":2,"truncated":true,)json"
    R"json("uncovered":1,"unmappable":1,"verified":1,"violated":1})json";
const std::string kFullProposal =
    R"json({"attempts":3,"case_id":"case-x","error":"gave up","high_level":"high",)json"
    R"json("low_level":["low-0","low-1"],"succeeded":false,"transient_errors":2,)json"
    R"json("validation_failures":1})json";
const std::string kBareProposal =
    R"json({"attempts":0,"case_id":"","high_level":"","low_level":[],"succeeded":true})json";

TEST(ProvenanceLedger, JsonlRoundTripPreservesEveryField) {
  const corpus::FailureTicket& ticket = ticket_or_die("hbase-27671-snapshot-ttl");
  obs::ProvenanceLedger ledger;
  (void)run_with_ledger(ticket, ticket.buggy_source, &ledger);

  const std::string path = ::testing::TempDir() + "provenance_roundtrip.jsonl";
  ASSERT_TRUE(ledger.write_jsonl(path));
  obs::ProvenanceLedger loaded;
  ASSERT_TRUE(loaded.load_jsonl(path));
  EXPECT_EQ(loaded.size(), ledger.size());
  EXPECT_EQ(loaded.run_fingerprint(), ledger.run_fingerprint());
  // Byte-equality of the serialized forms implies field-level equality:
  // to_json covers every evidence record.
  EXPECT_EQ(loaded.to_jsonl(), ledger.to_jsonl());

  // The bytes of a capture with every optional key and one with none, and
  // of a proposal line each way, are pinned: a writer change that moves a
  // byte of a ledger line shows here.
  const obs::ContractCapture full = full_capture();
  obs::ContractCapture bare;
  bare.contract_id = "c#1";
  const std::string full_line = full.to_json().dump();
  const std::string bare_line = bare.to_json().dump();
  const std::string full_report = full.report.to_json().dump();
  EXPECT_EQ(full_line, kFullCaptureLine);
  EXPECT_EQ(bare_line, kBareCaptureLine);
  EXPECT_EQ(full_report, kFullReport);
  for (const std::string& line : {full_line, bare_line}) {
    const obs::ContractCapture back = obs::ContractCapture::from_json(support::Json::parse(line));
    EXPECT_TRUE(back.intact()) << line;
    EXPECT_EQ(back.to_json().dump(), line);
  }
  EXPECT_EQ(core::ContractCheckReport::from_json(support::Json::parse(full_report))
                .to_json()
                .dump(),
            full_report);

  obs::ProposalEvidence proposal;
  proposal.case_id = "case-x";
  proposal.high_level = "high";
  proposal.low_level = {"low-0", "low-1"};
  proposal.succeeded = false;
  proposal.attempts = 3;
  proposal.transient_errors = 2;
  proposal.validation_failures = 1;
  proposal.error = "gave up";
  for (const bool with_optional : {true, false}) {
    obs::ProvenanceLedger pinned;
    pinned.bind("inputs");
    pinned.set_proposal(with_optional ? proposal : obs::ProposalEvidence{});
    *pinned.capture_for("c#0") = full;
    *pinned.capture_for("c#1") = bare;
    const std::string proposal_line = pinned.to_json().at("proposal").dump();
    EXPECT_EQ(proposal_line, with_optional ? kFullProposal : kBareProposal);
    ASSERT_TRUE(pinned.write_jsonl(path));
    obs::ProvenanceLedger reloaded;
    ASSERT_TRUE(reloaded.load_jsonl(path));
    EXPECT_EQ(reloaded.to_jsonl(), pinned.to_jsonl());
  }
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

TEST(ProvenanceLedger, DeeplyNestedLinesAreRejectedNotFatal) {
  // Past Json::kMaxParseDepth a line is a parse error, not a stack
  // overflow: a deep header is the wrong file kind, a deep record a
  // skipped line.
  const std::string deep(200'000, '[');
  const std::string path = ::testing::TempDir() + "provenance_deep.jsonl";
  std::ofstream(path) << deep << "\n";
  obs::ProvenanceLedger foreign;
  EXPECT_FALSE(foreign.load_jsonl(path));

  const corpus::FailureTicket& ticket = ticket_or_die("hbase-27671-snapshot-ttl");
  obs::ProvenanceLedger ledger;
  (void)run_with_ledger(ticket, ticket.buggy_source, &ledger);
  const std::string jsonl = ledger.to_jsonl();
  const std::size_t header_end = jsonl.find('\n') + 1;
  std::ofstream(path) << jsonl.substr(0, header_end) << deep << "\n"
                      << jsonl.substr(header_end);
  obs::ProvenanceLedger loaded;
  ASSERT_TRUE(loaded.load_jsonl(path));
  EXPECT_EQ(loaded.to_jsonl(), jsonl);
  std::remove(path.c_str());
}

TEST(ProvenanceLedger, OverLongLinesAreSkippedNotBuffered) {
  // An over-long header is the wrong file kind even when it would match;
  // an over-long record is dropped like a torn line.
  const std::string path = ::testing::TempDir() + "provenance_long.jsonl";
  {
    std::ofstream out(path);
    write_over_long_line(out, "\"fingerprint\":\"\",\"journal\":\"lisa-ledger\",\"version\":" +
                                  std::to_string(obs::ProvenanceLedger::kLedgerVersion));
  }
  obs::ProvenanceLedger foreign;
  EXPECT_FALSE(foreign.load_jsonl(path));

  const corpus::FailureTicket& ticket = ticket_or_die("hbase-27671-snapshot-ttl");
  obs::ProvenanceLedger ledger;
  (void)run_with_ledger(ticket, ticket.buggy_source, &ledger);
  const std::string jsonl = ledger.to_jsonl();
  const std::size_t header_end = jsonl.find('\n') + 1;
  {
    std::ofstream out(path);
    out << jsonl.substr(0, header_end);
    write_over_long_line(out, "\"contract_id\":\"over-long\"");
    out << jsonl.substr(header_end);
  }
  obs::ProvenanceLedger loaded;
  ASSERT_TRUE(loaded.load_jsonl(path));
  EXPECT_EQ(loaded.to_jsonl(), jsonl);
  std::remove(path.c_str());
}

TEST(ProvenanceLedger, OutOfRangeNumbersLoadSaturated) {
  // A number where an integer belongs may be any double; one outside the
  // field's range saturates instead of overflowing the cast, and the
  // capture no longer matches its digest.
  const std::string path = ::testing::TempDir() + "provenance_huge_numbers.jsonl";
  std::ofstream(path) << support::jsonl_header(obs::ProvenanceLedger::kLedgerKind,
                                               obs::ProvenanceLedger::kLedgerVersion, "f")
                      << "\n"
                      << R"({"contract_id":"c#0","budget":{"charges":{"steps":1e300}},)"
                      << R"("report":{"contract_id":"c#0","violated":1e300,"verified":-1e300,)"
                      << R"("paths":[{"target_stmt_id":-1e300}],)"
                      << R"("dynamic":{"tests_run":1e300},"schedule":{"explored":1e300}}})"
                      << "\n";
  obs::ProvenanceLedger loaded;
  ASSERT_TRUE(loaded.load_jsonl(path));
  const obs::ContractCapture* capture = loaded.find("c#0");
  ASSERT_NE(capture, nullptr);
  EXPECT_EQ(capture->budget.charges.at("steps"), std::numeric_limits<std::int64_t>::max());
  const core::ContractCheckReport& report = capture->report;
  EXPECT_EQ(report.violated, std::numeric_limits<int>::max());
  EXPECT_EQ(report.verified, std::numeric_limits<int>::min());
  ASSERT_EQ(report.paths.size(), 1u);
  EXPECT_EQ(report.paths[0].target_stmt_id, std::numeric_limits<int>::min());
  EXPECT_EQ(report.dynamic.tests_run, std::numeric_limits<int>::max());
  EXPECT_EQ(report.schedules_explored, std::numeric_limits<int>::max());
  EXPECT_FALSE(capture->intact());
  std::remove(path.c_str());
}

TEST(ProvenanceLedger, TwoIdenticalRunsProduceByteIdenticalLedgers) {
  const corpus::FailureTicket& ticket = ticket_or_die("hdfs-13924-observer-locations");
  obs::ProvenanceLedger first;
  obs::ProvenanceLedger second;
  (void)run_with_ledger(ticket, ticket.buggy_source, &first);
  (void)run_with_ledger(ticket, ticket.buggy_source, &second);
  EXPECT_EQ(first.to_jsonl(), second.to_jsonl());
  EXPECT_EQ(first.to_json().pretty(), second.to_json().pretty());
}

TEST(ProvenanceLedger, NullLedgerLeavesCheckOutputByteIdentical) {
  const corpus::FailureTicket& ticket = ticket_or_die("zk-quota-bypass");
  const minilang::Program program = minilang::parse_checked(ticket.buggy_source);
  const inference::SemanticsProposal proposal = inference::MockLlm().infer(ticket);
  core::TranslationResult translation = core::translate(proposal, ticket.system);
  ASSERT_FALSE(translation.contracts.empty());
  const core::Checker checker;
  const staticcheck::Screener analysis(program);
  core::CheckOptions plain;
  core::ContractCheckReport without = checker.check(analysis, translation.contracts[0], plain);
  obs::ProvenanceLedger ledger;
  core::CheckOptions captured;
  captured.ledger = &ledger;
  core::ContractCheckReport with = checker.check(analysis, translation.contracts[0], captured);
  // Wall-clock fields differ between any two runs; everything else must be
  // byte-identical — capture may not perturb a single verdict or witness.
  without.screen_ms = with.screen_ms = 0.0;
  EXPECT_EQ(without.to_json().pretty(), with.to_json().pretty());
  EXPECT_GT(ledger.size(), 0u);
}

TEST(Explain, NarrationReproducesEveryViolatedCorpusContract) {
  for (const corpus::FailureTicket& ticket : corpus::Corpus::all()) {
    obs::ProvenanceLedger ledger;
    const core::PipelineResult result =
        run_with_ledger(ticket, ticket.buggy_source, &ledger);
    for (const core::ContractCheckReport& report : result.reports) {
      if (report.passed()) continue;
      const obs::ContractCapture* capture = ledger.find(report.contract_id);
      ASSERT_NE(capture, nullptr) << report.contract_id;
      const obs::Narration& narration = capture->narration;
      EXPECT_TRUE(narration.reproduced)
          << report.contract_id << ": narration kind=" << narration.kind
          << " detail=" << narration.detail;
      EXPECT_FALSE(narration.steps.empty()) << report.contract_id;
      if (narration.kind == "state-replay") {
        // Agreement: the narrated predicate, evaluated term-by-term on the
        // concrete replayed state, concretely violates Q.
        ASSERT_FALSE(narration.predicate.empty()) << report.contract_id;
        bool violated_term = false;
        for (const obs::PredicateTerm& term : narration.predicate)
          if (!term.holds) violated_term = true;
        EXPECT_TRUE(violated_term) << report.contract_id;
      } else {
        EXPECT_TRUE(narration.kind == "structural-replay" ||
                    narration.kind == "interleaving-replay" ||
                    narration.kind == "schedule-replay")
            << report.contract_id << ": " << narration.kind;
        if (narration.kind == "schedule-replay") {
          // A violating interleaving must narrate a multi-threaded trace:
          // at least one step off the main thread.
          bool off_main = false;
          for (const obs::NarrationStep& step : narration.steps)
            if (step.thread != 0) off_main = true;
          EXPECT_TRUE(off_main) << report.contract_id;
        }
      }
    }
  }
}

/// The first report in `result` that `lisa explain` renders as violated;
/// nullptr when every contract passed.
const core::ContractCheckReport* first_violated(const core::PipelineResult& result) {
  for (const core::ContractCheckReport& report : result.reports)
    if (!report.passed()) return &report;
  return nullptr;
}

TEST(Explain, RenderingsCoverTheEvidenceChain) {
  // A state-predicate contract: the screen line, and each violated path
  // with its counterexample, as the checker reported them.
  const corpus::FailureTicket& ticket = ticket_or_die("zk-1208-ephemeral-create");
  obs::ProvenanceLedger ledger;
  const core::PipelineResult result = run_with_ledger(ticket, ticket.buggy_source, &ledger);
  ASSERT_NE(first_violated(result), nullptr);
  const core::ContractCheckReport& report = *first_violated(result);
  const obs::ContractCapture* capture = ledger.find(report.contract_id);
  ASSERT_NE(capture, nullptr);
  const std::string text = obs::render_capture_text(*capture);
  EXPECT_EQ(text.rfind("contract " + report.contract_id + " (zookeeper) — violated\n", 0), 0u)
      << text;
  ASSERT_FALSE(report.screen_verdict.empty());
  EXPECT_NE(text.find("\n  screen: " + report.screen_verdict + " — " + report.screen_reason +
                      "\n"),
            std::string::npos)
      << text;
  int violated = 0;
  for (const core::PathReport& path : report.paths) {
    if (path.verdict != core::PathVerdict::kViolated) continue;
    ++violated;
    EXPECT_NE(text.find("\n    " + support::join(path.call_chain, " -> ") + " — violated\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("\n      counterexample: " + path.counterexample + "\n"),
              std::string::npos)
        << text;
  }
  EXPECT_GT(violated, 0);
  EXPECT_NE(text.find("smt queries"), std::string::npos);
  EXPECT_NE(text.find("narration"), std::string::npos);
  const std::string html = obs::render_ledger_html(ledger);
  EXPECT_EQ(html.rfind("<!doctype html>", 0), 0u);
  EXPECT_NE(html.find(capture->fingerprint), std::string::npos);
  EXPECT_NE(html.find("<h4>Static screen</h4><p>" + obs::html_escape(report.screen_verdict)),
            std::string::npos);
  EXPECT_NE(html.find("counterexample: <code>"), std::string::npos);
  EXPECT_NE(html.find("predicate term"), std::string::npos);

  // A contract decided by the schedule explorer: the explored count, the
  // violating schedule and its replayable witness.
  const corpus::FailureTicket& race = ticket_or_die("hbase-counter-race");
  obs::ProvenanceLedger race_ledger;
  const core::PipelineResult race_result =
      run_with_ledger(race, race.buggy_source, &race_ledger);
  ASSERT_NE(first_violated(race_result), nullptr);
  const core::ContractCheckReport& explored = *first_violated(race_result);
  ASSERT_GT(explored.schedules_explored, 0);
  ASSERT_FALSE(explored.schedule_witness.empty());
  ASSERT_FALSE(explored.schedule_violation_details.empty());
  const obs::ContractCapture* race_capture = race_ledger.find(explored.contract_id);
  ASSERT_NE(race_capture, nullptr);
  const std::string race_text = obs::render_capture_text(*race_capture);
  EXPECT_NE(race_text.find("\n  schedules: " + std::to_string(explored.schedules_explored) +
                           " explored — conclusive\n    " +
                           explored.schedule_violation_details.front() + "\n    witness: " +
                           explored.schedule_witness + "\n"),
            std::string::npos)
      << race_text;
  const std::string race_html = obs::render_ledger_html(race_ledger);
  EXPECT_NE(race_html.find("<h4>Schedule exploration</h4><p>" +
                           std::to_string(explored.schedules_explored) +
                           " interleaving(s) explored — conclusive"),
            std::string::npos);
  EXPECT_NE(race_html.find("witness <code>" + obs::html_escape(explored.schedule_witness) +
                           "</code>"),
            std::string::npos);
}

TEST(BudgetProvenance, ExhaustionReasonIsTypedAndCounted) {
  const corpus::FailureTicket& ticket = ticket_or_die("zk-1208-ephemeral-create");
  const minilang::Program program = minilang::parse_checked(ticket.buggy_source);
  const inference::SemanticsProposal proposal = inference::MockLlm().infer(ticket);
  core::TranslationResult translation = core::translate(proposal, ticket.system);
  ASSERT_FALSE(translation.contracts.empty());
  support::BudgetLimits limits;
  limits.max_smt_queries = 1;
  support::Budget budget(limits);
  core::CheckOptions options;
  options.budget = &budget;
  obs::metrics().reset();
  const core::Checker checker;
  const core::ContractCheckReport report =
      checker.check(staticcheck::Screener(program), translation.contracts[0], options);
  ASSERT_TRUE(report.budget_exhausted);
  EXPECT_EQ(report.budget_resource, "smt-queries");
  EXPECT_EQ(obs::metrics().counter("budget.exhausted{reason=smt-queries}").value(), 1);
  // The typed resource survives the journal round trip.
  const core::ContractCheckReport reloaded =
      core::ContractCheckReport::from_json(report.to_json());
  EXPECT_EQ(reloaded.budget_resource, "smt-queries");
}

TEST(GateProvenance, LedgerBindsToGateInputs) {
  const corpus::FailureTicket& ticket = ticket_or_die("zk-2201-sync-serialize");
  const inference::SemanticsProposal proposal = inference::MockLlm().infer(ticket);
  core::TranslationResult translation = core::translate(proposal, ticket.system);
  core::ContractStore store;
  store.add_all(std::move(translation.contracts));
  core::CheckOptions options;
  options.run_concolic = false;
  obs::ProvenanceLedger ledger;
  core::GateRunOptions run_options;
  run_options.ledger = &ledger;
  const core::GateDecision decision =
      core::CiGate(options).evaluate(ticket.buggy_source, store, run_options);
  EXPECT_FALSE(decision.allowed);
  EXPECT_FALSE(ledger.run_fingerprint().empty());
  EXPECT_EQ(ledger.size(), decision.reports.size());
  for (const core::ContractCheckReport& report : decision.reports) {
    const obs::ContractCapture* capture = ledger.find(report.contract_id);
    ASSERT_NE(capture, nullptr);
    EXPECT_EQ(capture->report.verdict_signature(), report.verdict_signature());
  }
}

}  // namespace
