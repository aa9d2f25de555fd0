// Longitudinal observability: run-record round trips, history store
// durability (header, torn tail), drift-rule semantics (flake, settled-drop,
// latency/SMT regressions with floors), run/ledger diffing determinism, and
// the gate integration — a regressed run must turn the gate red with a
// narrated cause, and a history-less run must stay byte-identical.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "corpus/ticket.hpp"
#include "lisa/ci_gate.hpp"
#include "lisa/journal.hpp"
#include "lisa/pipeline.hpp"
#include "obs/diff.hpp"
#include "obs/history.hpp"
#include "obs/provenance.hpp"
#include "support/faultpoint.hpp"
#include "support/jsonl.hpp"

namespace {

using namespace lisa;

std::string temp_path(const std::string& name) {
  const std::string path =
      (std::filesystem::temp_directory_path() / ("lisa_history_test_" + name)).string();
  std::remove(path.c_str());
  return path;
}

const corpus::FailureTicket& ticket_or_die(const std::string& case_id) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find(case_id);
  EXPECT_NE(ticket, nullptr) << case_id;
  return *ticket;
}

obs::RunRecord make_record(const std::string& kind, const std::string& label,
                           double evaluation_ms, double settled = 1.0,
                           double smt_queries = 0.0) {
  obs::RunRecord record;
  record.kind = kind;
  record.label = label;
  record.input_fingerprint = "fp-default";
  record.metrics["evaluation_ms"] = evaluation_ms;
  record.metrics["settled_fraction"] = settled;
  record.metrics["smt_queries"] = smt_queries;
  return record;
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

// --- record serialization ---------------------------------------------------

TEST(RunRecord, JsonRoundTripPreservesEveryField) {
  obs::RunRecord record;
  record.kind = "gate";
  record.label = "series-1";
  record.input_fingerprint = "abc123";
  record.smt_digest = "deadbeef";
  obs::ContractOutcome outcome;
  outcome.verdict = "violated";
  outcome.passed = false;
  outcome.conclusive = true;
  outcome.signature_digest = "sig-1";
  outcome.slice_fp = "slice-1";
  outcome.smt_queries = 7;
  record.contracts["case#0"] = outcome;
  record.metrics["evaluation_ms"] = 12.5;
  record.metrics["settled_fraction"] = 0.75;
  record.meta["git_sha"] = "0123abcd";
  record.meta["git_dirty"] = "true";

  const obs::RunRecord reloaded = obs::RunRecord::from_json(record.to_json());
  EXPECT_EQ(reloaded.kind, "gate");
  EXPECT_EQ(reloaded.label, "series-1");
  EXPECT_EQ(reloaded.input_fingerprint, "abc123");
  EXPECT_EQ(reloaded.smt_digest, "deadbeef");
  ASSERT_EQ(reloaded.contracts.size(), 1u);
  const obs::ContractOutcome& back = reloaded.contracts.at("case#0");
  EXPECT_EQ(back.verdict, "violated");
  EXPECT_FALSE(back.passed);
  EXPECT_TRUE(back.conclusive);
  EXPECT_EQ(back.signature_digest, "sig-1");
  EXPECT_EQ(back.slice_fp, "slice-1");
  EXPECT_EQ(back.smt_queries, 7);
  EXPECT_DOUBLE_EQ(reloaded.metrics.at("evaluation_ms"), 12.5);
  EXPECT_DOUBLE_EQ(reloaded.metrics.at("settled_fraction"), 0.75);
  EXPECT_EQ(reloaded.meta.at("git_sha"), "0123abcd");
  EXPECT_EQ(reloaded.meta.at("git_dirty"), "true");
  // Serialization is byte-stable: dumping twice gives identical bytes.
  EXPECT_EQ(record.to_json().dump(), reloaded.to_json().dump());
}

// --- history store ----------------------------------------------------------

TEST(RunHistory, AppendCreatesHeaderAndLoadRoundTrips) {
  const std::string path = temp_path("roundtrip.jsonl");
  obs::RunHistory history(path);
  EXPECT_FALSE(history.load());  // absent file: fresh history, not an error
  EXPECT_TRUE(history.append(make_record("gate", "a", 1.0)));
  EXPECT_TRUE(history.append(make_record("check", "b", 2.0)));
  EXPECT_EQ(history.records().size(), 2u);

  // The first line is the shared journal header with an empty fingerprint
  // (one history file spans many inputs).
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_NE(header.find("\"journal\":\"lisa-history\""), std::string::npos) << header;

  obs::RunHistory reloaded(path);
  EXPECT_TRUE(reloaded.load());
  ASSERT_EQ(reloaded.records().size(), 2u);
  EXPECT_EQ(reloaded.records()[0].kind, "gate");
  EXPECT_EQ(reloaded.records()[1].kind, "check");
  EXPECT_DOUBLE_EQ(reloaded.records()[1].metrics.at("evaluation_ms"), 2.0);
  std::remove(path.c_str());
}

TEST(RunHistory, TornTrailingLineIsSkippedNotFatal) {
  const std::string path = temp_path("torn.jsonl");
  obs::RunHistory history(path);
  EXPECT_TRUE(history.append(make_record("gate", "a", 1.0)));
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"kind\": \"gate\", \"label\": tor";  // crash mid-append
  }
  obs::RunHistory reloaded(path);
  EXPECT_TRUE(reloaded.load());
  EXPECT_EQ(reloaded.records().size(), 1u);
  // The store stays appendable after a torn tail.
  EXPECT_TRUE(reloaded.append(make_record("gate", "a", 2.0)));
  EXPECT_EQ(reloaded.records().size(), 2u);
  std::remove(path.c_str());
}

TEST(RunHistory, DeeplyNestedLinesAreRejectedNotFatal) {
  // Past Json::kMaxParseDepth a line is a parse error, not a stack
  // overflow: a deep header is the wrong file kind, a deep record a
  // skipped line.
  const std::string deep(200'000, '[');
  const std::string path = temp_path("deep.jsonl");
  std::ofstream(path) << deep << "\n";
  obs::RunHistory foreign(path);
  EXPECT_FALSE(foreign.load());
  std::remove(path.c_str());

  obs::RunHistory history(path);
  EXPECT_TRUE(history.append(make_record("gate", "a", 1.0)));
  std::ofstream(path, std::ios::app) << deep << "\n";
  EXPECT_TRUE(history.append(make_record("gate", "a", 2.0)));
  obs::RunHistory reloaded(path);
  EXPECT_TRUE(reloaded.load());
  EXPECT_EQ(reloaded.records().size(), 2u);
  std::remove(path.c_str());
}

TEST(RunHistory, OverLongLinesAreSkippedNotBuffered) {
  // An over-long header is the wrong file kind even when it would match;
  // an over-long record is dropped like a torn line.
  const std::string path = temp_path("long.jsonl");
  {
    std::ofstream out(path);
    write_over_long_line(out, "\"fingerprint\":\"\",\"journal\":\"lisa-history\",\"version\":1");
  }
  obs::RunHistory foreign(path);
  EXPECT_FALSE(foreign.load());
  std::remove(path.c_str());

  obs::RunHistory history(path);
  EXPECT_TRUE(history.append(make_record("gate", "a", 1.0)));
  {
    std::ofstream out(path, std::ios::app);
    write_over_long_line(out, "\"kind\":\"gate\",\"label\":\"a\"");
  }
  EXPECT_TRUE(history.append(make_record("gate", "a", 2.0)));
  obs::RunHistory reloaded(path);
  EXPECT_TRUE(reloaded.load());
  ASSERT_EQ(reloaded.records().size(), 2u);
  EXPECT_EQ(reloaded.records()[1].metrics.at("evaluation_ms"), 2.0);
  std::remove(path.c_str());
}

TEST(RunHistory, RejectsForeignJournalKinds) {
  const std::string path = temp_path("foreign.jsonl");
  {
    std::ofstream out(path);
    out << "{\"fingerprint\": \"x\", \"journal\": \"lisa-ledger\", \"version\": 1}\n";
  }
  obs::RunHistory history(path);
  EXPECT_FALSE(history.load());
  EXPECT_TRUE(history.records().empty());
  std::remove(path.c_str());
}

TEST(RunHistory, MatchingFiltersByKindAndLabelOldestFirst) {
  const std::string path = temp_path("matching.jsonl");
  obs::RunHistory history(path);
  EXPECT_TRUE(history.append(make_record("gate", "a", 1.0)));
  EXPECT_TRUE(history.append(make_record("gate", "b", 2.0)));
  EXPECT_TRUE(history.append(make_record("check", "a", 3.0)));
  EXPECT_TRUE(history.append(make_record("gate", "a", 4.0)));
  const std::vector<const obs::RunRecord*> gate_a = history.matching("gate", "a");
  ASSERT_EQ(gate_a.size(), 2u);
  EXPECT_DOUBLE_EQ(gate_a[0]->metrics.at("evaluation_ms"), 1.0);
  EXPECT_DOUBLE_EQ(gate_a[1]->metrics.at("evaluation_ms"), 4.0);
  EXPECT_EQ(history.matching("gate", "").size(), 3u);
  EXPECT_EQ(history.matching("", "").size(), 4u);
  std::remove(path.c_str());
}

// --- drift rules ------------------------------------------------------------

TEST(DriftMedian, LowerMiddleOnEvenSizes) {
  EXPECT_DOUBLE_EQ(obs::drift_median({}), 0.0);
  EXPECT_DOUBLE_EQ(obs::drift_median({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(obs::drift_median({3.0, 1.0, 2.0}), 2.0);
  // Even size takes the LOWER middle: conservative for "x exceeds factor
  // times median" thresholds.
  EXPECT_DOUBLE_EQ(obs::drift_median({4.0, 1.0, 3.0, 2.0}), 2.0);
}

TEST(DetectDrift, EmptyBaselineYieldsNoFindings) {
  const obs::RunRecord current = make_record("gate", "a", 1000.0, 0.0, 1000.0);
  EXPECT_TRUE(obs::detect_drift({}, current).empty());
}

TEST(DetectDrift, LatencyRegressionNeedsFactorAndFloor) {
  std::vector<obs::RunRecord> baseline_storage;
  for (int i = 0; i < 3; ++i) baseline_storage.push_back(make_record("gate", "a", 10.0));
  std::vector<const obs::RunRecord*> baseline;
  for (const obs::RunRecord& record : baseline_storage) baseline.push_back(&record);

  // 10 ms -> 50 ms: 5x the median and +40 ms absolute — a regression.
  obs::DriftOptions options;
  const std::vector<obs::DriftFinding> slow =
      obs::detect_drift(baseline, make_record("gate", "a", 50.0), options);
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].kind, "latency-regression");
  EXPECT_EQ(slow[0].subject, "evaluation_ms");
  EXPECT_DOUBLE_EQ(slow[0].baseline, 10.0);
  EXPECT_DOUBLE_EQ(slow[0].observed, 50.0);
  EXPECT_TRUE(slow[0].fails_gate);
  EXPECT_NE(slow[0].cause.find("regressed to 50.00 ms"), std::string::npos);

  // 10 ms -> 31 ms: above the 3x factor but below the 25 ms absolute floor
  // — micro-run noise, not a finding.
  EXPECT_TRUE(obs::detect_drift(baseline, make_record("gate", "a", 31.0), options).empty());

  // Tightening the floor turns the same delta into a finding.
  options.min_latency_ms = 0.0;
  EXPECT_EQ(obs::detect_drift(baseline, make_record("gate", "a", 31.0), options).size(), 1u);
}

TEST(DetectDrift, SettledDropAndSmtRegression) {
  std::vector<obs::RunRecord> baseline_storage;
  for (int i = 0; i < 5; ++i)
    baseline_storage.push_back(make_record("gate", "a", 10.0, 1.0, 20.0));
  std::vector<const obs::RunRecord*> baseline;
  for (const obs::RunRecord& record : baseline_storage) baseline.push_back(&record);

  // Settled fraction 1.0 -> 0.5 and SMT queries 20 -> 60 in one run: both
  // rules fire, and findings come back sorted by kind.
  const std::vector<obs::DriftFinding> findings =
      obs::detect_drift(baseline, make_record("gate", "a", 10.0, 0.5, 60.0));
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].kind, "settled-drop");
  EXPECT_DOUBLE_EQ(findings[0].observed, 0.5);
  EXPECT_EQ(findings[1].kind, "smt-regression");
  EXPECT_DOUBLE_EQ(findings[1].observed, 60.0);

  // A drop within tolerance (1.0 -> 0.96) stays quiet.
  EXPECT_TRUE(obs::detect_drift(baseline, make_record("gate", "a", 10.0, 0.96, 20.0)).empty());

  // SMT growth above the factor but below the 16-query absolute floor stays
  // quiet: 4 -> 12 triples the median but adds only 8 queries.
  std::vector<obs::RunRecord> small_storage;
  for (int i = 0; i < 5; ++i) small_storage.push_back(make_record("gate", "a", 10.0, 1.0, 4.0));
  std::vector<const obs::RunRecord*> small;
  for (const obs::RunRecord& record : small_storage) small.push_back(&record);
  EXPECT_TRUE(obs::detect_drift(small, make_record("gate", "a", 10.0, 1.0, 12.0)).empty());
}

TEST(DetectDrift, InterleavingConclusiveDropFailsGate) {
  // Baseline: schedule exploration drains every interleaving contract.
  std::vector<obs::RunRecord> baseline_storage;
  for (int i = 0; i < 5; ++i) {
    obs::RunRecord record = make_record("gate", "a", 10.0);
    record.metrics["interleaving_conclusive_fraction"] = 1.0;
    record.metrics["schedules_explored"] = 1300.0;
    baseline_storage.push_back(std::move(record));
  }
  std::vector<const obs::RunRecord*> baseline;
  for (const obs::RunRecord& record : baseline_storage) baseline.push_back(&record);

  // One of three schedule contracts stops concluding: the rule fires and
  // names the remedy in its cause.
  obs::RunRecord dropped = make_record("gate", "a", 10.0);
  dropped.metrics["interleaving_conclusive_fraction"] = 2.0 / 3.0;
  dropped.metrics["schedules_explored"] = 6000.0;
  const std::vector<obs::DriftFinding> findings = obs::detect_drift(baseline, dropped);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, "interleaving-conclusive-drop");
  EXPECT_EQ(findings[0].subject, "interleaving_conclusive_fraction");
  EXPECT_DOUBLE_EQ(findings[0].baseline, 1.0);
  EXPECT_TRUE(findings[0].fails_gate);
  EXPECT_NE(findings[0].cause.find("--max-schedules"), std::string::npos);

  // Within tolerance stays quiet; so does a thread-free run that never
  // writes the metric at all (no false positives from absence).
  obs::RunRecord near_baseline = make_record("gate", "a", 10.0);
  near_baseline.metrics["interleaving_conclusive_fraction"] = 0.97;
  EXPECT_TRUE(obs::detect_drift(baseline, near_baseline).empty());
  EXPECT_TRUE(obs::detect_drift(baseline, make_record("gate", "a", 10.0)).empty());
}

TEST(DetectDrift, VerdictFlipOnUnchangedFingerprintsIsAFlake) {
  obs::RunRecord before = make_record("gate", "a", 10.0);
  obs::ContractOutcome outcome;
  outcome.verdict = "passed";
  outcome.signature_digest = "sig-before";
  outcome.slice_fp = "slice-1";
  before.contracts["case#0"] = outcome;

  obs::RunRecord current = before;
  current.contracts["case#0"].verdict = "violated";
  current.contracts["case#0"].signature_digest = "sig-after";

  const std::vector<const obs::RunRecord*> baseline = {&before};
  const std::vector<obs::DriftFinding> findings = obs::detect_drift(baseline, current);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, "verdict-flip");
  EXPECT_EQ(findings[0].subject, "case#0");
  EXPECT_NE(findings[0].cause.find("passed -> violated"), std::string::npos);
  EXPECT_NE(findings[0].cause.find("flaky"), std::string::npos);

  // Same signature change with a MOVED slice fingerprint: the verdict cone
  // changed, so the flip is explained — not a flake.
  obs::RunRecord moved = current;
  moved.contracts["case#0"].slice_fp = "slice-2";
  EXPECT_TRUE(obs::detect_drift(baseline, moved).empty());

  // Different input fingerprints: the code changed — flips are expected.
  obs::RunRecord edited = current;
  edited.input_fingerprint = "fp-other";
  EXPECT_TRUE(obs::detect_drift(baseline, edited).empty());
}

TEST(DetectDrift, WarnOnlyModeReportsWithoutFailingTheGate) {
  std::vector<obs::RunRecord> baseline_storage;
  for (int i = 0; i < 3; ++i) baseline_storage.push_back(make_record("gate", "a", 10.0));
  std::vector<const obs::RunRecord*> baseline;
  for (const obs::RunRecord& record : baseline_storage) baseline.push_back(&record);
  obs::DriftOptions options;
  options.fail_gate = false;
  const std::vector<obs::DriftFinding> findings =
      obs::detect_drift(baseline, make_record("gate", "a", 500.0), options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_FALSE(findings[0].fails_gate);
}

TEST(DetectDrift, WindowLimitsTheBaselineNotTheFlakeRule) {
  // Six baseline runs at 10 ms, then five at 100 ms. With window=5 the
  // median is 100 ms, so a 120 ms run is NOT a regression — the window
  // tracks the new normal.
  std::vector<obs::RunRecord> baseline_storage;
  for (int i = 0; i < 6; ++i) baseline_storage.push_back(make_record("gate", "a", 10.0));
  for (int i = 0; i < 5; ++i) baseline_storage.push_back(make_record("gate", "a", 100.0));
  std::vector<const obs::RunRecord*> baseline;
  for (const obs::RunRecord& record : baseline_storage) baseline.push_back(&record);
  EXPECT_TRUE(obs::detect_drift(baseline, make_record("gate", "a", 120.0)).empty());
  // Against the old 10 ms world the same run WOULD regress (sanity).
  baseline.resize(6);
  EXPECT_EQ(obs::detect_drift(baseline, make_record("gate", "a", 120.0)).size(), 1u);
}

// --- run diffs --------------------------------------------------------------

TEST(DiffRuns, ReportsFlipsAndMetricDeltasDeterministically) {
  obs::RunRecord a = make_record("gate", "a", 10.0);
  obs::ContractOutcome outcome;
  outcome.verdict = "violated";
  outcome.passed = false;
  outcome.signature_digest = "sig-a";
  a.contracts["case#0"] = outcome;
  outcome.verdict = "passed";
  outcome.passed = true;
  outcome.signature_digest = "sig-same";
  a.contracts["case#1"] = outcome;

  obs::RunRecord b = a;
  b.contracts["case#0"].verdict = "passed";
  b.contracts["case#0"].passed = true;
  b.contracts["case#0"].signature_digest = "sig-b";
  b.metrics["evaluation_ms"] = 14.0;

  const obs::DiffReport report = obs::diff_runs(a, b);
  EXPECT_EQ(report.verdict_flips(), 1);
  ASSERT_EQ(report.contracts.size(), 1u);
  EXPECT_EQ(report.contracts[0].contract_id, "case#0");
  EXPECT_EQ(report.contracts[0].before, "violated");
  EXPECT_EQ(report.contracts[0].after, "passed");
  EXPECT_TRUE(report.contracts[0].flipped);
  EXPECT_EQ(report.contracts_unchanged, 1);
  ASSERT_EQ(report.metrics.size(), 1u);
  EXPECT_EQ(report.metrics[0].name, "evaluation_ms");
  EXPECT_DOUBLE_EQ(report.metrics[0].delta(), 4.0);

  // Text and JSON renderings are byte-stable across invocations.
  EXPECT_EQ(obs::render_diff_text(report), obs::render_diff_text(obs::diff_runs(a, b)));
  EXPECT_EQ(report.to_json().dump(), obs::diff_runs(a, b).to_json().dump());
  EXPECT_NE(obs::render_diff_text(report).find("[FLIP] case#0"), std::string::npos);
}

TEST(DiffRuns, IdenticalRunsSayIdentical) {
  const obs::RunRecord a = make_record("gate", "a", 10.0);
  const obs::DiffReport report = obs::diff_runs(a, a);
  EXPECT_TRUE(report.identical());
  EXPECT_EQ(report.verdict_flips(), 0);
}

// --- ledger diffs -----------------------------------------------------------

TEST(DiffLedgers, BuggyToPatchedShowsExactlyOneFlipWithEvidence) {
  const corpus::FailureTicket& ticket = ticket_or_die("hdfs-pending-race");
  const core::Pipeline pipeline;
  obs::ProvenanceLedger before, after;
  core::PipelineRunOptions run_options;
  run_options.ledger = &before;
  (void)pipeline.run(ticket, ticket.buggy_source, run_options);
  run_options.ledger = &after;
  (void)pipeline.run(ticket, ticket.patched_source, run_options);

  const obs::DiffReport report = obs::diff_ledgers(before, after);
  EXPECT_EQ(report.verdict_flips(), 1);
  ASSERT_FALSE(report.contracts.empty());
  const obs::ContractDelta& delta = report.contracts[0];
  EXPECT_EQ(delta.before, "violated");
  EXPECT_EQ(delta.after, "passed");
  EXPECT_FALSE(delta.notes.empty());  // the flip carries evidence deltas

  // Determinism: the same two ledgers diff to identical bytes, text and HTML.
  const obs::DiffReport again = obs::diff_ledgers(before, after);
  EXPECT_EQ(obs::render_diff_text(report), obs::render_diff_text(again));
  EXPECT_EQ(obs::render_diff_html(report), obs::render_diff_html(again));
  EXPECT_EQ(report.to_json().dump(), again.to_json().dump());

  // Self-diff is clean: no flips, no deltas.
  EXPECT_TRUE(obs::diff_ledgers(before, before).identical());
}

// --- gate integration -------------------------------------------------------

core::ContractStore store_for(const corpus::FailureTicket& ticket) {
  const inference::SemanticsProposal proposal = inference::MockLlm().infer(ticket);
  core::TranslationResult translation = core::translate(proposal, ticket.system);
  core::ContractStore store;
  store.add_all(std::move(translation.contracts));
  return store;
}

TEST(RunRecordVerdicts, NameEachReportAsTheLedgerDoes) {
  // One name per report state, in the history record and in the ledger
  // capture alike. A violation found before the budget ran out is
  // "violated", not "inconclusive".
  core::ContractCheckReport passed;
  passed.contract_id = "a#0";
  core::ContractCheckReport cut = passed;
  cut.contract_id = "b#0";
  cut.budget_exhausted = true;
  core::ContractCheckReport failed = cut;
  failed.contract_id = "c#0";
  failed.violated = 1;
  const std::vector<core::ContractCheckReport> reports = {passed, cut, failed};
  obs::ProvenanceLedger ledger;
  for (const core::ContractCheckReport& report : reports)
    ledger.capture_for(report.contract_id)->report = report;
  const obs::RunRecord record =
      core::history_record("gate", "label", reports, core::tally(reports), 0.0, ledger);
  const std::map<std::string, std::string> want = {
      {"a#0", "passed"}, {"b#0", "inconclusive"}, {"c#0", "violated"}};
  for (const auto& [id, verdict] : want) {
    EXPECT_EQ(record.contracts.at(id).verdict, verdict) << id;
    EXPECT_EQ(ledger.find(id)->report.verdict_name(), verdict) << id;
  }
}

TEST(GateHistory, AppendsOneFingerprintedRecordPerRun) {
  const corpus::FailureTicket& ticket = ticket_or_die("hdfs-pending-race");
  const core::ContractStore store = store_for(ticket);
  core::CheckOptions options;
  options.run_concolic = false;
  const std::string path = temp_path("gate_append.jsonl");
  core::GateRunOptions run_options;
  run_options.history_path = path;
  for (int i = 0; i < 2; ++i) {
    const core::GateDecision decision =
        core::CiGate(options).evaluate(ticket.patched_source, store, run_options);
    EXPECT_TRUE(decision.allowed);
    EXPECT_EQ(decision.baseline_runs, i);  // first run sees an empty baseline
    EXPECT_TRUE(decision.drift_findings.empty());
  }
  obs::RunHistory history(path);
  ASSERT_TRUE(history.load());
  ASSERT_EQ(history.records().size(), 2u);
  const obs::RunRecord& record = history.records()[0];
  EXPECT_EQ(record.kind, "gate");
  EXPECT_FALSE(record.label.empty());
  EXPECT_FALSE(record.input_fingerprint.empty());
  EXPECT_FALSE(record.contracts.empty());
  EXPECT_GT(record.metrics.at("evaluation_ms"), 0.0);
  // Identical runs produce identical verdict signatures and fingerprints —
  // the property the flake rule relies on.
  const obs::RunRecord& second = history.records()[1];
  EXPECT_EQ(record.input_fingerprint, second.input_fingerprint);
  ASSERT_EQ(record.contracts.size(), second.contracts.size());
  for (const auto& [id, outcome] : record.contracts) {
    ASSERT_TRUE(second.contracts.count(id)) << id;
    EXPECT_EQ(outcome.signature_digest, second.contracts.at(id).signature_digest) << id;
    EXPECT_EQ(outcome.slice_fp, second.contracts.at(id).slice_fp) << id;
  }
  std::remove(path.c_str());
}

TEST(GateHistory, RegressedRunFailsTheGateWithNarratedCause) {
  const corpus::FailureTicket& ticket = ticket_or_die("hdfs-pending-race");
  const core::ContractStore store = store_for(ticket);
  core::CheckOptions options;
  options.run_concolic = false;
  const std::string path = temp_path("gate_drift.jsonl");
  core::GateRunOptions run_options;
  run_options.history_path = path;

  // Seed one real record, then clone it into a baseline whose latency no
  // real run can match — the next run must regress deterministically.
  const core::GateDecision seed =
      core::CiGate(options).evaluate(ticket.patched_source, store, run_options);
  ASSERT_TRUE(seed.allowed);
  obs::RunHistory history(path);
  ASSERT_TRUE(history.load());
  ASSERT_EQ(history.records().size(), 1u);
  obs::RunRecord fast = history.records()[0];
  fast.metrics["evaluation_ms"] = 1e-9;
  ASSERT_TRUE(history.append(fast));
  ASSERT_TRUE(history.append(fast));

  run_options.drift.min_latency_ms = 0.0;  // floor off: any real run exceeds 1e-9
  run_options.drift.window = 2;            // median over the two cloned records
  const core::GateDecision decision =
      core::CiGate(options).evaluate(ticket.patched_source, store, run_options);
  EXPECT_FALSE(decision.allowed);
  EXPECT_EQ(decision.baseline_runs, 3);
  ASSERT_FALSE(decision.drift_findings.empty());
  EXPECT_EQ(decision.drift_findings[0].kind, "latency-regression");
  EXPECT_TRUE(decision.drift_findings[0].fails_gate);
  bool narrated = false;
  for (const std::string& violation : decision.violations)
    if (violation.find("drift [latency-regression]") != std::string::npos) narrated = true;
  EXPECT_TRUE(narrated) << "blocked without a narrated drift cause";
  // The red run is recorded too — history keeps the incident.
  obs::RunHistory after(path);
  ASSERT_TRUE(after.load());
  EXPECT_EQ(after.records().size(), 4u);

  // Warn-only mode: same drift, gate stays green, finding still surfaces.
  run_options.drift.fail_gate = false;
  const core::GateDecision warned =
      core::CiGate(options).evaluate(ticket.patched_source, store, run_options);
  EXPECT_TRUE(warned.allowed);
  ASSERT_FALSE(warned.drift_findings.empty());
  EXPECT_FALSE(warned.drift_findings[0].fails_gate);
  EXPECT_TRUE(warned.needs_attention);
  std::remove(path.c_str());
}

TEST(GateHistory, DisabledHistoryIsByteIdentical) {
  const corpus::FailureTicket& ticket = ticket_or_die("zk-2201-sync-serialize");
  const core::ContractStore store = store_for(ticket);
  core::CheckOptions options;
  options.run_concolic = false;
  // No history path: the decision JSON must carry no longitudinal fields
  // and two runs must serialize identically once the (inherently noisy)
  // wall-clock timings are normalized — the null-handle discipline.
  core::GateDecision a = core::CiGate(options).evaluate(ticket.buggy_source, store);
  core::GateDecision b = core::CiGate(options).evaluate(ticket.buggy_source, store);
  EXPECT_EQ(a.baseline_runs, -1);
  a.evaluation_ms = b.evaluation_ms = 0.0;
  a.summary_ms = b.summary_ms = 0.0;
  for (core::GateDecision* decision : {&a, &b})
    for (core::ContractCheckReport& report : decision->reports) report.screen_ms = 0.0;
  const std::string json = a.to_json().dump();
  EXPECT_EQ(json, b.to_json().dump());
  EXPECT_EQ(json.find("baseline_runs"), std::string::npos);
  EXPECT_EQ(json.find("drift_findings"), std::string::npos);
}

TEST(PipelineHistory, ChecksAppendRecordsKeyedByCaseId) {
  const corpus::FailureTicket& ticket = ticket_or_die("hdfs-pending-race");
  const std::string path = temp_path("pipeline.jsonl");
  const core::Pipeline pipeline;
  core::PipelineRunOptions run_options;
  run_options.history_path = path;
  const core::PipelineResult result =
      pipeline.run(ticket, ticket.patched_source, run_options);
  EXPECT_TRUE(result.all_passed());
  obs::RunHistory history(path);
  ASSERT_TRUE(history.load());
  ASSERT_EQ(history.records().size(), 1u);
  const obs::RunRecord& record = history.records()[0];
  EXPECT_EQ(record.kind, "check");
  EXPECT_EQ(record.label, ticket.case_id);
  EXPECT_FALSE(record.input_fingerprint.empty());
  EXPECT_GT(record.metrics.at("total_ms"), 0.0);
  EXPECT_EQ(record.metrics.at("violations"), 0.0);
  ASSERT_FALSE(record.contracts.empty());
  for (const auto& [id, outcome] : record.contracts) {
    EXPECT_EQ(outcome.verdict, "passed") << id;
    EXPECT_FALSE(outcome.signature_digest.empty()) << id;
  }
  std::remove(path.c_str());
}

TEST(PipelineHistory, ExplorationCutBeforeItsFirstScheduleIsRecorded) {
  // `lisa check` records the interleaving metrics under the gate's rule:
  // whenever a contract went to the explorer, even one that ran no schedule.
  const corpus::FailureTicket& ticket = ticket_or_die("hbase-counter-race");
  const std::string path = temp_path("pipeline_cut.jsonl");
  core::PipelineRunOptions run_options;
  run_options.history_path = path;
  support::FaultRegistry::instance().configure("schedule.explore=fail");
  const core::PipelineResult result =
      core::Pipeline().run(ticket, ticket.patched_source, run_options);
  support::FaultRegistry::instance().clear();
  EXPECT_EQ(result.totals.schedule_contracts, 1);
  EXPECT_EQ(result.totals.schedules_explored, 0);
  obs::RunHistory history(path);
  ASSERT_TRUE(history.load());
  ASSERT_EQ(history.records().size(), 1u);
  const std::map<std::string, double>& metrics = history.records()[0].metrics;
  EXPECT_EQ(metrics.at("inconclusive"), 1.0);
  ASSERT_EQ(metrics.count("schedules_explored"), 1u);
  EXPECT_EQ(metrics.at("schedules_explored"), 0.0);
  ASSERT_EQ(metrics.count("interleaving_conclusive_fraction"), 1u);
  EXPECT_EQ(metrics.at("interleaving_conclusive_fraction"), 0.0);
  std::remove(path.c_str());
}

}  // namespace
