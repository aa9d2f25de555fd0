#include "obs/provenance.hpp"

#include <fstream>
#include <optional>

#include "support/jsonl.hpp"
#include "support/log.hpp"

namespace lisa::obs {

using support::Json;
using support::JsonArray;
using support::JsonObject;

std::string evidence_digest(const std::string& text) {
  return support::fnv1a_fingerprint(text);
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
  fact.line = static_cast<int>(json.get_int("line"));
  fact.column = static_cast<int>(json.get_int("column"));
  fact.fact = json.get_string("fact");
  return fact;
}

Json path_to_json(const PathEvidence& path) {
  JsonObject entry;
  entry["chain"] = path.chain;
  entry["target_stmt_id"] = path.target_stmt_id;
  entry["target_stmt"] = path.target_text;
  entry["path_condition"] = path.path_condition;
  entry["contract_condition"] = path.contract_condition;
  entry["verdict"] = path.verdict;
  if (!path.counterexample.empty()) entry["counterexample"] = path.counterexample;
  if (!path.detail.empty()) entry["detail"] = path.detail;
  if (!path.model_bools.empty()) {
    JsonObject bools;
    for (const auto& [name, value] : path.model_bools) bools[name] = value;
    entry["model_bools"] = Json(std::move(bools));
  }
  if (!path.model_ints.empty()) {
    JsonObject ints;
    for (const auto& [name, value] : path.model_ints) ints[name] = value;
    entry["model_ints"] = Json(std::move(ints));
  }
  return Json(std::move(entry));
}

PathEvidence path_from_json(const Json& json) {
  PathEvidence path;
  path.chain = json.get_string("chain");
  path.target_stmt_id = static_cast<int>(json.get_int("target_stmt_id", -1));
  path.target_text = json.get_string("target_stmt");
  path.path_condition = json.get_string("path_condition");
  path.contract_condition = json.get_string("contract_condition");
  path.verdict = json.get_string("verdict");
  path.counterexample = json.get_string("counterexample");
  path.detail = json.get_string("detail");
  if (json.has("model_bools") && json.at("model_bools").is_object())
    for (const auto& [name, value] : json.at("model_bools").as_object())
      if (value.is_bool()) path.model_bools[name] = value.as_bool();
  if (json.has("model_ints") && json.at("model_ints").is_object())
    for (const auto& [name, value] : json.at("model_ints").as_object())
      if (value.is_number()) path.model_ints[name] = value.as_int();
  return path;
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
  hit.stmt_id = static_cast<int>(json.get_int("stmt_id", -1));
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
      step.line = static_cast<int>(item.get_int("line"));
      step.stmt = item.get_string("stmt");
      step.sync_depth = static_cast<int>(item.get_int("sync_depth"));
      step.thread = static_cast<int>(item.get_int("thread"));
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
  proposal.attempts = static_cast<int>(json.get_int("attempts"));
  proposal.transient_errors = static_cast<int>(json.get_int("transient_errors"));
  proposal.validation_failures = static_cast<int>(json.get_int("validation_failures"));
  proposal.error = json.get_string("error");
  return proposal;
}

}  // namespace

Json ContractCapture::to_json() const {
  JsonObject root;
  root["contract_id"] = contract_id;
  root["system"] = system;
  root["kind"] = kind;
  root["target_fragment"] = target_fragment;
  root["condition_text"] = condition_text;
  root["description"] = description;
  root["fingerprint"] = fingerprint;
  if (!slice_fp.empty()) root["slice_fp"] = slice_fp;
  root["verdict"] = verdict;
  root["passed"] = passed;
  root["conclusive"] = conclusive;
  if (!screen_verdict.empty()) {
    JsonObject screen;
    screen["verdict"] = screen_verdict;
    screen["reason"] = screen_reason;
    if (!screen_witness.empty()) screen["witness"] = screen_witness;
    root["screen"] = Json(std::move(screen));
  }
  // Emitted only when exploration ran (or degraded): captures for contracts
  // the explorer never touched stay byte-identical to the pre-scheduler form.
  if (schedules_explored > 0 || !schedule_conclusive) {
    JsonObject schedule;
    schedule["explored"] = schedules_explored;
    schedule["conclusive"] = schedule_conclusive;
    if (!schedule_witness.empty()) schedule["witness"] = schedule_witness;
    if (!schedule_reason.empty()) schedule["reason"] = schedule_reason;
    root["schedule"] = Json(std::move(schedule));
  }
  JsonArray fact_entries;
  for (const FactEvidence& fact : facts) fact_entries.push_back(fact_to_json(fact));
  root["facts"] = Json(std::move(fact_entries));
  JsonArray path_entries;
  for (const PathEvidence& path : paths) path_entries.push_back(path_to_json(path));
  root["paths"] = Json(std::move(path_entries));
  JsonArray query_entries;
  for (const SmtQueryEvidence& query : smt_queries)
    query_entries.push_back(query_to_json(query));
  root["smt_queries"] = Json(std::move(query_entries));
  JsonArray hit_entries;
  for (const HitEvidence& hit : hits) hit_entries.push_back(hit_to_json(hit));
  root["hits"] = Json(std::move(hit_entries));
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
  if (!narration.kind.empty()) root["narration"] = narration_to_json(narration);
  if (!report.is_null()) root["report"] = report;
  return Json(std::move(root));
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
  capture.slice_fp = json.get_string("slice_fp");
  capture.verdict = json.get_string("verdict");
  capture.passed = json.has("passed") && json.at("passed").is_bool() &&
                   json.at("passed").as_bool();
  capture.conclusive = json.has("conclusive") && json.at("conclusive").is_bool() &&
                       json.at("conclusive").as_bool();
  if (json.has("screen") && json.at("screen").is_object()) {
    const Json& screen = json.at("screen");
    capture.screen_verdict = screen.get_string("verdict");
    capture.screen_reason = screen.get_string("reason");
    capture.screen_witness = screen.get_string("witness");
  }
  if (json.has("schedule") && json.at("schedule").is_object()) {
    const Json& schedule = json.at("schedule");
    capture.schedules_explored = static_cast<int>(schedule.get_int("explored"));
    capture.schedule_conclusive = !schedule.has("conclusive") ||
                                  !schedule.at("conclusive").is_bool() ||
                                  schedule.at("conclusive").as_bool();
    capture.schedule_witness = schedule.get_string("witness");
    capture.schedule_reason = schedule.get_string("reason");
  }
  if (json.has("facts") && json.at("facts").is_array())
    for (const Json& entry : json.at("facts").as_array())
      capture.facts.push_back(fact_from_json(entry));
  if (json.has("paths") && json.at("paths").is_array())
    for (const Json& entry : json.at("paths").as_array())
      capture.paths.push_back(path_from_json(entry));
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
  if (json.has("report") && json.at("report").is_object()) capture.report = json.at("report");
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

void ProvenanceLedger::record_path(ContractCapture* capture, PathEvidence evidence) {
  if (capture == nullptr) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  capture->paths.push_back(std::move(evidence));
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
