#include "obs/provenance.hpp"

#include <algorithm>
#include <fstream>
#include <limits>

#include "obs/metrics.hpp"
#include "support/faultpoint.hpp"
#include "support/jsonl.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

namespace lisa::obs {

using support::Json;
using support::JsonArray;
using support::JsonObject;

std::string evidence_digest(const std::string& text) {
  return support::fnv1a_fingerprint(text);
}

namespace {

/// The int field `key` of `json`, saturated to int's range as get_int
/// saturates to int64's: a count that reads 1e300 loads as INT_MAX, not as
/// a truncated -1.
int int_field(const Json& json, const std::string& key, int fallback = 0) {
  return static_cast<int>(std::clamp<std::int64_t>(json.get_int(key, fallback),
                                                   std::numeric_limits<int>::min(),
                                                   std::numeric_limits<int>::max()));
}

}  // namespace

// ---------------------------------------------------------------------------
// Contract check report
// ---------------------------------------------------------------------------

const char* path_verdict_name(PathVerdict verdict) {
  switch (verdict) {
    case PathVerdict::kVerified: return "verified";
    case PathVerdict::kViolated: return "violated";
    case PathVerdict::kUnmappable: return "unmappable";
    case PathVerdict::kInconclusive: return "inconclusive";
  }
  return "?";
}

std::optional<PathVerdict> path_verdict_from_name(const std::string& name) {
  if (name == "verified") return PathVerdict::kVerified;
  if (name == "violated") return PathVerdict::kViolated;
  if (name == "unmappable") return PathVerdict::kUnmappable;
  if (name == "inconclusive") return PathVerdict::kInconclusive;
  return std::nullopt;
}

Json ContractCheckReport::to_json() const {
  // Degradation hook for the robustness harness: a faulted serialization
  // yields a minimal-but-valid record instead of a torn artifact. Consumers
  // see `serialization_degraded` and keep the verdict counts.
  if (support::faultpoint("report.serialize") != support::FaultAction::kNone) {
    metrics().counter("fault.report.serialize").add();
    JsonObject stub;
    stub["contract_id"] = contract_id;
    stub["target_fragment"] = target_fragment;
    stub["verified"] = verified;
    stub["violated"] = violated;
    stub["unmappable"] = unmappable;
    stub["inconclusive"] = inconclusive;
    stub["passed"] = passed();
    stub["conclusive"] = conclusive();
    stub["serialization_degraded"] = true;
    return Json(std::move(stub));
  }
  JsonObject root;
  root["contract_id"] = contract_id;
  root["target_fragment"] = target_fragment;
  root["target_statements"] = target_statements;
  root["verified"] = verified;
  root["violated"] = violated;
  root["unmappable"] = unmappable;
  if (inconclusive > 0) root["inconclusive"] = inconclusive;
  root["uncovered"] = uncovered;
  root["raw_paths"] = raw_paths;
  root["truncated"] = truncated;
  root["sanity_ok"] = sanity_ok;
  root["passed"] = passed();
  if (!conclusive()) root["conclusive"] = false;
  if (budget_exhausted) {
    root["budget_exhausted"] = true;
    root["budget_reason"] = budget_reason;
    if (!budget_resource.empty()) root["budget_resource"] = budget_resource;
  }
  JsonArray path_entries;
  for (const PathReport& path : paths) {
    JsonObject entry;
    entry["chain"] = support::join(path.call_chain, " -> ");
    entry["target_stmt"] = path.target_text;
    entry["target_stmt_id"] = path.target_stmt_id;
    entry["path_condition"] = path.path_condition;
    entry["contract_condition"] = path.contract_condition;
    entry["verdict"] = path_verdict_name(path.verdict);
    if (!path.counterexample.empty()) entry["counterexample"] = path.counterexample;
    if (!path.detail.empty()) entry["detail"] = path.detail;
    entry["covered_by_test"] = path.covered_by_test;
    if (!path.covering_tests.empty()) {
      JsonArray covering;
      for (const std::string& test : path.covering_tests) covering.push_back(Json(test));
      entry["covering_tests"] = Json(std::move(covering));
    }
    path_entries.emplace_back(std::move(entry));
  }
  root["paths"] = Json(std::move(path_entries));
  JsonObject dyn;
  JsonArray selected;
  for (const std::string& test : dynamic.selected_tests) selected.push_back(Json(test));
  dyn["selected_tests"] = Json(std::move(selected));
  dyn["tests_run"] = dynamic.tests_run;
  dyn["tests_passed"] = dynamic.tests_passed;
  dyn["target_hits"] = dynamic.target_hits;
  dyn["symbolic_violations"] = dynamic.symbolic_violations;
  dyn["concrete_violations"] = dynamic.concrete_violations;
  if (dynamic.inconclusive_hits > 0) dyn["inconclusive_hits"] = dynamic.inconclusive_hits;
  if (dynamic.degraded_runs > 0) dyn["degraded_runs"] = dynamic.degraded_runs;
  if (!dynamic.violation_details.empty()) {
    JsonArray details;
    for (const std::string& detail : dynamic.violation_details)
      details.push_back(Json(detail));
    dyn["violation_details"] = Json(std::move(details));
  }
  root["dynamic"] = Json(std::move(dyn));
  JsonArray structural;
  for (const std::string& violation : structural_violations)
    structural.push_back(Json(violation));
  root["structural_violations"] = Json(std::move(structural));
  if (!screen_verdict.empty()) {
    JsonObject screen;
    screen["verdict"] = screen_verdict;
    if (!screen_witness.empty()) screen["witness"] = screen_witness;
    screen["reason"] = screen_reason;
    screen["elapsed_ms"] = screen_ms;
    screen["skipped_concolic"] = screen_skipped_concolic;
    root["screen"] = Json(std::move(screen));
  }
  // Emitted only when exploration actually ran (or degraded), so reports for
  // thread-free programs stay byte-identical to the pre-scheduler checker.
  if (explored_schedules()) {
    JsonObject schedule;
    schedule["explored"] = schedules_explored;
    schedule["conclusive"] = schedule_conclusive;
    schedule["violations"] = schedule_violations;
    if (!schedule_witness.empty()) schedule["witness"] = schedule_witness;
    if (!schedule_inconclusive_reason.empty())
      schedule["reason"] = schedule_inconclusive_reason;
    if (!schedule_violation_details.empty()) {
      JsonArray details;
      for (const std::string& detail : schedule_violation_details)
        details.push_back(Json(detail));
      schedule["violation_details"] = Json(std::move(details));
    }
    root["schedule"] = Json(std::move(schedule));
  }
  if (!slice_fp.empty()) root["slice_fp"] = slice_fp;
  return Json(std::move(root));
}

ContractCheckReport ContractCheckReport::from_json(const Json& json) {
  ContractCheckReport report;
  if (!json.is_object()) return report;
  report.contract_id = json.get_string("contract_id");
  report.target_fragment = json.get_string("target_fragment");
  report.target_statements = static_cast<std::size_t>(json.get_int("target_statements"));
  report.verified = int_field(json, "verified");
  report.violated = int_field(json, "violated");
  report.unmappable = int_field(json, "unmappable");
  report.inconclusive = int_field(json, "inconclusive");
  report.uncovered = int_field(json, "uncovered");
  report.raw_paths = static_cast<std::size_t>(json.get_int("raw_paths"));
  report.truncated = json.has("truncated") && json.at("truncated").is_bool() &&
                     json.at("truncated").as_bool();
  report.sanity_ok = json.has("sanity_ok") && json.at("sanity_ok").is_bool() &&
                     json.at("sanity_ok").as_bool();
  report.budget_exhausted = json.has("budget_exhausted") &&
                            json.at("budget_exhausted").is_bool() &&
                            json.at("budget_exhausted").as_bool();
  report.budget_reason = json.get_string("budget_reason");
  report.budget_resource = json.get_string("budget_resource");
  if (json.has("paths") && json.at("paths").is_array()) {
    for (const Json& entry : json.at("paths").as_array()) {
      if (!entry.is_object()) continue;
      PathReport path;
      const std::string chain = entry.get_string("chain");
      for (std::size_t pos = 0; pos <= chain.size();) {
        const std::size_t arrow = chain.find(" -> ", pos);
        const std::size_t end = arrow == std::string::npos ? chain.size() : arrow;
        if (end > pos) path.call_chain.push_back(chain.substr(pos, end - pos));
        if (arrow == std::string::npos) break;
        pos = arrow + 4;
      }
      path.target_text = entry.get_string("target_stmt");
      path.target_stmt_id = int_field(entry, "target_stmt_id", -1);
      path.path_condition = entry.get_string("path_condition");
      path.contract_condition = entry.get_string("contract_condition");
      path.verdict = path_verdict_from_name(entry.get_string("verdict"))
                         .value_or(PathVerdict::kInconclusive);
      path.counterexample = entry.get_string("counterexample");
      path.detail = entry.get_string("detail");
      path.covered_by_test = entry.has("covered_by_test") &&
                             entry.at("covered_by_test").is_bool() &&
                             entry.at("covered_by_test").as_bool();
      if (entry.has("covering_tests") && entry.at("covering_tests").is_array())
        for (const Json& test : entry.at("covering_tests").as_array())
          if (test.is_string()) path.covering_tests.push_back(test.as_string());
      report.paths.push_back(std::move(path));
    }
  }
  if (json.has("dynamic") && json.at("dynamic").is_object()) {
    const Json& dyn = json.at("dynamic");
    if (dyn.has("selected_tests") && dyn.at("selected_tests").is_array())
      for (const Json& test : dyn.at("selected_tests").as_array())
        if (test.is_string()) report.dynamic.selected_tests.push_back(test.as_string());
    report.dynamic.tests_run = int_field(dyn, "tests_run");
    report.dynamic.tests_passed = int_field(dyn, "tests_passed");
    report.dynamic.target_hits = int_field(dyn, "target_hits");
    report.dynamic.symbolic_violations = int_field(dyn, "symbolic_violations");
    report.dynamic.concrete_violations = int_field(dyn, "concrete_violations");
    report.dynamic.inconclusive_hits = int_field(dyn, "inconclusive_hits");
    report.dynamic.degraded_runs = int_field(dyn, "degraded_runs");
    if (dyn.has("violation_details") && dyn.at("violation_details").is_array())
      for (const Json& detail : dyn.at("violation_details").as_array())
        if (detail.is_string())
          report.dynamic.violation_details.push_back(detail.as_string());
  }
  if (json.has("structural_violations") && json.at("structural_violations").is_array())
    for (const Json& violation : json.at("structural_violations").as_array())
      if (violation.is_string())
        report.structural_violations.push_back(violation.as_string());
  if (json.has("screen") && json.at("screen").is_object()) {
    const Json& screen = json.at("screen");
    report.screen_verdict = screen.get_string("verdict");
    report.screen_witness = screen.get_string("witness");
    report.screen_reason = screen.get_string("reason");
    if (screen.has("elapsed_ms") && screen.at("elapsed_ms").is_number())
      report.screen_ms = screen.at("elapsed_ms").as_double();
    report.screen_skipped_concolic = screen.has("skipped_concolic") &&
                                     screen.at("skipped_concolic").is_bool() &&
                                     screen.at("skipped_concolic").as_bool();
  }
  if (json.has("schedule") && json.at("schedule").is_object()) {
    const Json& schedule = json.at("schedule");
    report.schedules_explored = int_field(schedule, "explored");
    report.schedule_conclusive = !schedule.has("conclusive") ||
                                 !schedule.at("conclusive").is_bool() ||
                                 schedule.at("conclusive").as_bool();
    report.schedule_violations = int_field(schedule, "violations");
    report.schedule_witness = schedule.get_string("witness");
    report.schedule_inconclusive_reason = schedule.get_string("reason");
    if (schedule.has("violation_details") && schedule.at("violation_details").is_array())
      for (const Json& detail : schedule.at("violation_details").as_array())
        if (detail.is_string())
          report.schedule_violation_details.push_back(detail.as_string());
  }
  report.slice_fp = json.get_string("slice_fp");
  return report;
}

const char* ContractCheckReport::verdict_name() const {
  if (!passed()) return "violated";
  return conclusive() ? "passed" : "inconclusive";
}

std::string ContractCheckReport::verdict_signature() const {
  std::string sig = contract_id + "|" + target_fragment;
  sig += "|verified=" + std::to_string(verified);
  sig += "|violated=" + std::to_string(violated);
  sig += "|unmappable=" + std::to_string(unmappable);
  sig += "|inconclusive=" + std::to_string(inconclusive);
  sig += "|uncovered=" + std::to_string(uncovered);
  if (truncated) sig += "|truncated";
  sig += sanity_ok ? "|sane" : "|unsane";
  sig += passed() ? "|passed" : "|failed";
  for (const PathReport& path : paths) {
    sig += "\npath ";
    for (const std::string& fn : path.call_chain) sig += fn + ">";
    // The target is named by its text, not its statement id: ids are
    // positional and shift when an edit inserts statements elsewhere, and a
    // pure shift is not a verdict change.
    sig += "[" + path.target_text + "]";
    sig += " " + std::string(path_verdict_name(path.verdict));
    if (!path.counterexample.empty()) sig += " " + path.counterexample;
  }
  for (const std::string& violation : structural_violations)
    sig += "\nstructural " + violation;
  sig += "\ndynamic tests=" + std::to_string(dynamic.tests_run);
  sig += " passed=" + std::to_string(dynamic.tests_passed);
  sig += " hits=" + std::to_string(dynamic.target_hits);
  sig += " symbolic=" + std::to_string(dynamic.symbolic_violations);
  sig += " concrete=" + std::to_string(dynamic.concrete_violations);
  for (const std::string& detail : dynamic.violation_details) sig += "\nviolation " + detail;
  if (!screen_verdict.empty()) sig += "\nscreen " + screen_verdict;
  if (explored_schedules()) {
    sig += "\nschedule explored=" + std::to_string(schedules_explored);
    sig += " violations=" + std::to_string(schedule_violations);
    sig += schedule_conclusive ? " conclusive" : " inconclusive";
    if (!schedule_witness.empty()) sig += " " + schedule_witness;
  }
  return sig;
}

// ---------------------------------------------------------------------------
// Serialization. Optional fields are emitted only when set, so empty
// evidence never bloats the ledger; every emitted field round-trips.
// ---------------------------------------------------------------------------

namespace {

Json fact_to_json(const FactEvidence& fact) {
  JsonObject entry;
  entry["analysis"] = fact.analysis;
  entry["function"] = fact.function;
  entry["line"] = fact.line;
  entry["column"] = fact.column;
  entry["fact"] = fact.fact;
  return Json(std::move(entry));
}

FactEvidence fact_from_json(const Json& json) {
  FactEvidence fact;
  fact.analysis = json.get_string("analysis");
  fact.function = json.get_string("function");
  fact.line = int_field(json, "line");
  fact.column = int_field(json, "column");
  fact.fact = json.get_string("fact");
  return fact;
}

Json query_to_json(const SmtQueryEvidence& query) {
  JsonObject entry;
  entry["phase"] = query.phase;
  entry["query"] = query.query;
  entry["digest"] = query.digest;
  entry["status"] = query.status;
  if (!query.model.empty()) entry["model"] = query.model;
  if (!query.reason.empty()) entry["reason"] = query.reason;
  return Json(std::move(entry));
}

SmtQueryEvidence query_from_json(const Json& json) {
  SmtQueryEvidence query;
  query.phase = json.get_string("phase");
  query.query = json.get_string("query");
  query.digest = json.get_string("digest");
  query.status = json.get_string("status");
  query.model = json.get_string("model");
  query.reason = json.get_string("reason");
  return query;
}

Json hit_to_json(const HitEvidence& hit) {
  JsonObject entry;
  entry["test"] = hit.test;
  entry["function"] = hit.function;
  entry["stmt_id"] = hit.stmt_id;
  entry["trace_condition"] = hit.trace_condition;
  entry["instantiated_contract"] = hit.instantiated_contract;
  entry["outcome"] = hit.outcome;
  if (!hit.witness.empty()) entry["witness"] = hit.witness;
  return Json(std::move(entry));
}

HitEvidence hit_from_json(const Json& json) {
  HitEvidence hit;
  hit.test = json.get_string("test");
  hit.function = json.get_string("function");
  hit.stmt_id = int_field(json, "stmt_id", -1);
  hit.trace_condition = json.get_string("trace_condition");
  hit.instantiated_contract = json.get_string("instantiated_contract");
  hit.outcome = json.get_string("outcome");
  hit.witness = json.get_string("witness");
  return hit;
}

Json narration_to_json(const Narration& narration) {
  JsonObject entry;
  entry["kind"] = narration.kind;
  if (!narration.test.empty()) entry["test"] = narration.test;
  entry["reproduced"] = narration.reproduced;
  JsonArray steps;
  for (const NarrationStep& step : narration.steps) {
    JsonObject item;
    item["function"] = step.function;
    item["line"] = step.line;
    item["stmt"] = step.stmt;
    item["sync_depth"] = step.sync_depth;
    if (step.thread != 0) item["thread"] = step.thread;
    if (!step.note.empty()) item["note"] = step.note;
    steps.push_back(Json(std::move(item)));
  }
  entry["steps"] = Json(std::move(steps));
  JsonArray predicate;
  for (const PredicateTerm& term : narration.predicate) {
    JsonObject item;
    item["text"] = term.text;
    item["value"] = term.value;
    item["holds"] = term.holds;
    predicate.push_back(Json(std::move(item)));
  }
  entry["predicate"] = Json(std::move(predicate));
  if (!narration.detail.empty()) entry["detail"] = narration.detail;
  return Json(std::move(entry));
}

Narration narration_from_json(const Json& json) {
  Narration narration;
  narration.kind = json.get_string("kind");
  narration.test = json.get_string("test");
  narration.reproduced = json.has("reproduced") && json.at("reproduced").is_bool() &&
                         json.at("reproduced").as_bool();
  if (json.has("steps") && json.at("steps").is_array()) {
    for (const Json& item : json.at("steps").as_array()) {
      NarrationStep step;
      step.function = item.get_string("function");
      step.line = int_field(item, "line");
      step.stmt = item.get_string("stmt");
      step.sync_depth = int_field(item, "sync_depth");
      step.thread = int_field(item, "thread");
      step.note = item.get_string("note");
      narration.steps.push_back(std::move(step));
    }
  }
  if (json.has("predicate") && json.at("predicate").is_array()) {
    for (const Json& item : json.at("predicate").as_array()) {
      PredicateTerm term;
      term.text = item.get_string("text");
      term.value = item.get_string("value");
      term.holds = item.has("holds") && item.at("holds").is_bool() && item.at("holds").as_bool();
      narration.predicate.push_back(std::move(term));
    }
  }
  narration.detail = json.get_string("detail");
  return narration;
}

Json proposal_to_json(const ProposalEvidence& proposal) {
  JsonObject entry;
  entry["case_id"] = proposal.case_id;
  entry["high_level"] = proposal.high_level;
  JsonArray low_level;
  for (const std::string& item : proposal.low_level) low_level.push_back(Json(item));
  entry["low_level"] = Json(std::move(low_level));
  entry["succeeded"] = proposal.succeeded;
  entry["attempts"] = proposal.attempts;
  if (proposal.transient_errors > 0) entry["transient_errors"] = proposal.transient_errors;
  if (proposal.validation_failures > 0)
    entry["validation_failures"] = proposal.validation_failures;
  if (!proposal.error.empty()) entry["error"] = proposal.error;
  return Json(std::move(entry));
}

ProposalEvidence proposal_from_json(const Json& json) {
  ProposalEvidence proposal;
  proposal.case_id = json.get_string("case_id");
  proposal.high_level = json.get_string("high_level");
  if (json.has("low_level") && json.at("low_level").is_array())
    for (const Json& item : json.at("low_level").as_array())
      if (item.is_string()) proposal.low_level.push_back(item.as_string());
  proposal.succeeded = !json.has("succeeded") || !json.at("succeeded").is_bool() ||
                       json.at("succeeded").as_bool();
  proposal.attempts = int_field(json, "attempts");
  proposal.transient_errors = int_field(json, "transient_errors");
  proposal.validation_failures = int_field(json, "validation_failures");
  proposal.error = json.get_string("error");
  return proposal;
}

}  // namespace

namespace {

/// The capture's line without its digest.
Json capture_content(const ContractCapture& capture) {
  JsonObject root;
  root["contract_id"] = capture.contract_id;
  root["system"] = capture.system;
  root["kind"] = capture.kind;
  root["target_fragment"] = capture.target_fragment;
  root["condition_text"] = capture.condition_text;
  root["description"] = capture.description;
  root["fingerprint"] = capture.fingerprint;
  JsonArray fact_entries;
  for (const FactEvidence& fact : capture.facts) fact_entries.push_back(fact_to_json(fact));
  root["facts"] = Json(std::move(fact_entries));
  JsonArray query_entries;
  for (const SmtQueryEvidence& query : capture.smt_queries)
    query_entries.push_back(query_to_json(query));
  root["smt_queries"] = Json(std::move(query_entries));
  JsonArray hit_entries;
  for (const HitEvidence& hit : capture.hits) hit_entries.push_back(hit_to_json(hit));
  root["hits"] = Json(std::move(hit_entries));
  const BudgetEvidence& budget = capture.budget;
  if (budget.attached) {
    JsonObject entry;
    entry["attached"] = true;
    entry["exhausted"] = budget.exhausted;
    if (budget.exhausted) {
      entry["resource"] = budget.resource;
      entry["reason"] = budget.reason;
    }
    JsonObject charges;
    for (const auto& [name, value] : budget.charges) charges[name] = value;
    entry["charges"] = Json(std::move(charges));
    root["budget"] = Json(std::move(entry));
  }
  if (!capture.narration.kind.empty()) root["narration"] = narration_to_json(capture.narration);
  Json report = capture.report.to_json();
  if (report.has("screen")) report.as_object().at("screen").as_object().erase("elapsed_ms");
  root["report"] = std::move(report);
  return Json(std::move(root));
}

}  // namespace

Json ContractCapture::to_json() const {
  Json json = capture_content(*this);
  json.as_object()["digest"] = support::fnv1a_fingerprint(json.dump());
  return json;
}

bool ContractCapture::intact() const {
  return !digest.empty() && digest == support::fnv1a_fingerprint(capture_content(*this).dump());
}

ContractCapture ContractCapture::from_json(const Json& json) {
  ContractCapture capture;
  if (!json.is_object()) return capture;
  capture.contract_id = json.get_string("contract_id");
  capture.system = json.get_string("system");
  capture.kind = json.get_string("kind");
  capture.target_fragment = json.get_string("target_fragment");
  capture.condition_text = json.get_string("condition_text");
  capture.description = json.get_string("description");
  capture.fingerprint = json.get_string("fingerprint");
  if (json.has("facts") && json.at("facts").is_array())
    for (const Json& entry : json.at("facts").as_array())
      capture.facts.push_back(fact_from_json(entry));
  if (json.has("smt_queries") && json.at("smt_queries").is_array())
    for (const Json& entry : json.at("smt_queries").as_array())
      capture.smt_queries.push_back(query_from_json(entry));
  if (json.has("hits") && json.at("hits").is_array())
    for (const Json& entry : json.at("hits").as_array())
      capture.hits.push_back(hit_from_json(entry));
  if (json.has("budget") && json.at("budget").is_object()) {
    const Json& entry = json.at("budget");
    capture.budget.attached = true;
    capture.budget.exhausted = entry.has("exhausted") && entry.at("exhausted").is_bool() &&
                               entry.at("exhausted").as_bool();
    capture.budget.resource = entry.get_string("resource");
    capture.budget.reason = entry.get_string("reason");
    if (entry.has("charges") && entry.at("charges").is_object())
      for (const auto& [name, value] : entry.at("charges").as_object())
        if (value.is_number()) capture.budget.charges[name] = value.as_int();
  }
  if (json.has("narration") && json.at("narration").is_object())
    capture.narration = narration_from_json(json.at("narration"));
  if (json.has("report")) capture.report = ContractCheckReport::from_json(json.at("report"));
  capture.digest = json.get_string("digest");
  return capture;
}

// ---------------------------------------------------------------------------
// Ledger
// ---------------------------------------------------------------------------

void ProvenanceLedger::bind(const std::string& inputs) {
  const std::lock_guard<std::mutex> lock(mutex_);
  fingerprint_ = support::fnv1a_fingerprint(inputs);
}

void ProvenanceLedger::set_proposal(ProposalEvidence proposal) {
  const std::lock_guard<std::mutex> lock(mutex_);
  proposal_ = std::move(proposal);
}

ContractCapture* ProvenanceLedger::capture_for(const std::string& contract_id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<ContractCapture>& slot = captures_[contract_id];
  if (slot == nullptr) {
    slot = std::make_unique<ContractCapture>();
    slot->contract_id = contract_id;
  }
  return slot.get();
}

const ContractCapture* ProvenanceLedger::find(const std::string& contract_id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = captures_.find(contract_id);
  return it == captures_.end() ? nullptr : it->second.get();
}

std::size_t ProvenanceLedger::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return captures_.size();
}

std::vector<std::string> ProvenanceLedger::contract_ids() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(captures_.size());
  for (const auto& [id, capture] : captures_) ids.push_back(id);
  return ids;
}

void ProvenanceLedger::record_smt(ContractCapture* capture, SmtQueryEvidence evidence) {
  if (capture == nullptr) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  capture->smt_queries.push_back(std::move(evidence));
}

void ProvenanceLedger::record_fact(ContractCapture* capture, FactEvidence evidence) {
  if (capture == nullptr) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  capture->facts.push_back(std::move(evidence));
}

void ProvenanceLedger::record_hit(ContractCapture* capture, HitEvidence evidence) {
  if (capture == nullptr) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  capture->hits.push_back(std::move(evidence));
}

Json ProvenanceLedger::to_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  JsonObject root;
  root["journal"] = std::string(kLedgerKind);
  root["version"] = kLedgerVersion;
  root["fingerprint"] = fingerprint_;
  root["proposal"] = proposal_to_json(proposal_);
  JsonArray contracts;
  for (const auto& [id, capture] : captures_)  // std::map: sorted id order
    contracts.push_back(capture->to_json());
  root["contracts"] = Json(std::move(contracts));
  return Json(std::move(root));
}

std::string ProvenanceLedger::jsonl_preamble() const {
  JsonObject entry;
  entry["proposal"] = proposal_to_json(proposal_);
  return support::jsonl_header(kLedgerKind, kLedgerVersion, fingerprint_) + "\n" +
         Json(std::move(entry)).dump() + "\n";
}

std::string ProvenanceLedger::to_jsonl() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out = jsonl_preamble();
  for (const auto& [id, capture] : captures_) out += capture->to_json().dump() + "\n";
  return out;
}

bool ProvenanceLedger::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_jsonl();
  return out.good();
}

bool ProvenanceLedger::start_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  out << jsonl_preamble();
  return out.good();
}

bool ProvenanceLedger::append_jsonl(const std::string& path,
                                    const std::string& contract_id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = captures_.find(contract_id);
  if (it == captures_.end()) return false;
  std::ofstream out(path, std::ios::app);
  out << it->second->to_json().dump() << "\n";
  return out.flush().good();
}

bool ProvenanceLedger::load_jsonl(const std::string& path) {
  std::optional<ProposalEvidence> proposal;
  std::map<std::string, std::unique_ptr<ContractCapture>> captures;
  const support::JsonlRead read =
      support::read_jsonl(path, kLedgerKind, kLedgerVersion, [&](const Json& entry) {
        if (entry.has("proposal")) {
          proposal = proposal_from_json(entry.at("proposal"));
          return true;
        }
        ContractCapture capture = ContractCapture::from_json(entry);
        if (capture.contract_id.empty()) return false;
        // The key must be copied out first: the RHS of the assignment is
        // sequenced before the subscript, so moving the capture there would
        // empty contract_id before the map reads it.
        const std::string id = capture.contract_id;
        captures[id] = std::make_unique<ContractCapture>(std::move(capture));
        return true;
      });
  if (!read.matched) return false;
  if (read.dropped > 0)
    support::log(support::LogLevel::warn, "ledger ", path, ": dropped ", read.dropped,
                 " unreadable line(s)");
  const std::lock_guard<std::mutex> lock(mutex_);
  fingerprint_ = read.fingerprint;
  captures_ = std::move(captures);
  if (proposal) proposal_ = std::move(*proposal);
  return true;
}

void PhasedSmtCapture::on_smt_query(const std::string& query, const std::string& status,
                                    const std::string& model, const std::string& reason) {
  SmtQueryEvidence evidence;
  evidence.phase = phase_;
  evidence.query = query;
  evidence.digest = evidence_digest(query);
  evidence.status = status;
  evidence.model = model;
  evidence.reason = reason;
  ledger_->record_smt(capture_, std::move(evidence));
}

}  // namespace lisa::obs
