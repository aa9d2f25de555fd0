#include "obs/provenance.hpp"

#include <fstream>

#include "obs/metrics.hpp"
#include "support/faultpoint.hpp"
#include "support/json_fields.hpp"
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

// ---------------------------------------------------------------------------
// Field lists (support/json_fields.hpp): each record's JSON shape, from which
// both to_json and from_json follow. Optional keys are written only when
// set, so empty evidence never bloats the ledger.
// ---------------------------------------------------------------------------

template <class Io>
void json_fields(Io& io, PathReport& path) {
  constexpr support::JsonCodec<std::vector<std::string>, std::string> kChain{
      [](const std::vector<std::string>& chain) { return support::join(chain, " -> "); },
      [](const std::string& text) {
        std::vector<std::string> chain;
        for (std::size_t pos = 0; pos <= text.size();) {
          const std::size_t arrow = text.find(" -> ", pos);
          const std::size_t end = arrow == std::string::npos ? text.size() : arrow;
          if (end > pos) chain.push_back(text.substr(pos, end - pos));
          if (arrow == std::string::npos) break;
          pos = arrow + 4;
        }
        return chain;
      }};
  constexpr support::JsonCodec<PathVerdict, std::string> kVerdict{
      [](const PathVerdict& verdict) { return std::string(path_verdict_name(verdict)); },
      [](const std::string& name) {
        return path_verdict_from_name(name).value_or(PathVerdict::kInconclusive);
      }};
  io("chain", path.call_chain, kChain);
  io("target_stmt", path.target_text);
  io("target_stmt_id", path.target_stmt_id);
  io("path_condition", path.path_condition);
  io("contract_condition", path.contract_condition);
  io("verdict", path.verdict, kVerdict);
  io("counterexample", path.counterexample, support::kOmitEmpty);
  io("detail", path.detail, support::kOmitEmpty);
  io("covered_by_test", path.covered_by_test);
  io("covering_tests", path.covering_tests, support::kOmitEmpty);
}

template <class Io>
void json_fields(Io& io, DynamicReport& dynamic) {
  io("selected_tests", dynamic.selected_tests);
  io("tests_run", dynamic.tests_run);
  io("tests_passed", dynamic.tests_passed);
  io("target_hits", dynamic.target_hits);
  io("symbolic_violations", dynamic.symbolic_violations);
  io("concrete_violations", dynamic.concrete_violations);
  io("inconclusive_hits", dynamic.inconclusive_hits, support::kOmitEmpty);
  io("degraded_runs", dynamic.degraded_runs, support::kOmitEmpty);
  io("violation_details", dynamic.violation_details, support::kOmitEmpty);
}

template <class Io>
void json_fields(Io& io, ContractCheckReport& report) {
  io("contract_id", report.contract_id);
  io("target_fragment", report.target_fragment);
  io("target_statements", report.target_statements);
  io("verified", report.verified);
  io("violated", report.violated);
  io("unmappable", report.unmappable);
  io("inconclusive", report.inconclusive, support::kOmitEmpty);
  io("uncovered", report.uncovered);
  io("raw_paths", report.raw_paths);
  io("truncated", report.truncated);
  io("sanity_ok", report.sanity_ok);
  io.derived("passed", report.passed());
  io.when(!report.conclusive(), [&] { io.derived("conclusive", false); });
  io.when(report.budget_exhausted, [&] {
    io("budget_exhausted", report.budget_exhausted);
    io("budget_reason", report.budget_reason);
    io("budget_resource", report.budget_resource, support::kOmitEmpty);
  });
  io("paths", report.paths);
  io("dynamic", report.dynamic);
  io("structural_violations", report.structural_violations);
  io.group("screen", !report.screen_verdict.empty(), [&](auto& screen) {
    screen("verdict", report.screen_verdict);
    screen("witness", report.screen_witness, support::kOmitEmpty);
    screen("reason", report.screen_reason);
    screen("elapsed_ms", report.screen_ms);
    screen("skipped_concolic", report.screen_skipped_concolic);
  });
  // Written only when exploration ran (or degraded), so reports for
  // thread-free programs stay byte-identical to the pre-scheduler checker.
  io.group("schedule", report.explored_schedules(), [&](auto& schedule) {
    schedule("explored", report.schedules_explored);
    schedule("conclusive", report.schedule_conclusive);
    schedule("violations", report.schedule_violations);
    schedule("witness", report.schedule_witness, support::kOmitEmpty);
    schedule("reason", report.schedule_inconclusive_reason, support::kOmitEmpty);
    schedule("violation_details", report.schedule_violation_details, support::kOmitEmpty);
  });
  io("slice_fp", report.slice_fp, support::kOmitEmpty);
}

template <class Io>
void json_fields(Io& io, FactEvidence& fact) {
  io("analysis", fact.analysis);
  io("function", fact.function);
  io("line", fact.line);
  io("column", fact.column);
  io("fact", fact.fact);
}

template <class Io>
void json_fields(Io& io, SmtQueryEvidence& query) {
  io("phase", query.phase);
  io("query", query.query);
  io("digest", query.digest);
  io("status", query.status);
  io("model", query.model, support::kOmitEmpty);
  io("reason", query.reason, support::kOmitEmpty);
}

template <class Io>
void json_fields(Io& io, HitEvidence& hit) {
  io("test", hit.test);
  io("function", hit.function);
  io("stmt_id", hit.stmt_id);
  io("trace_condition", hit.trace_condition);
  io("instantiated_contract", hit.instantiated_contract);
  io("outcome", hit.outcome);
  io("witness", hit.witness, support::kOmitEmpty);
}

template <class Io>
void json_fields(Io& io, BudgetEvidence& budget) {
  io.presence("attached", budget.attached);
  io("exhausted", budget.exhausted);
  io.when(budget.exhausted, [&] {
    io("resource", budget.resource);
    io("reason", budget.reason);
  });
  io("charges", budget.charges);
}

template <class Io>
void json_fields(Io& io, NarrationStep& step) {
  io("function", step.function);
  io("line", step.line);
  io("stmt", step.stmt);
  io("sync_depth", step.sync_depth);
  io("thread", step.thread, support::kOmitEmpty);
  io("note", step.note, support::kOmitEmpty);
}

template <class Io>
void json_fields(Io& io, PredicateTerm& term) {
  io("text", term.text);
  io("value", term.value);
  io("holds", term.holds);
}

template <class Io>
void json_fields(Io& io, Narration& narration) {
  io("kind", narration.kind);
  io("test", narration.test, support::kOmitEmpty);
  io("reproduced", narration.reproduced);
  io("steps", narration.steps);
  io("predicate", narration.predicate);
  io("detail", narration.detail, support::kOmitEmpty);
}

template <class Io>
void json_fields(Io& io, ProposalEvidence& proposal) {
  io("case_id", proposal.case_id);
  io("high_level", proposal.high_level);
  io("low_level", proposal.low_level);
  io("succeeded", proposal.succeeded);
  io("attempts", proposal.attempts);
  io("transient_errors", proposal.transient_errors, support::kOmitEmpty);
  io("validation_failures", proposal.validation_failures, support::kOmitEmpty);
  io("error", proposal.error, support::kOmitEmpty);
}

template <class Io>
void json_fields(Io& io, ContractCapture& capture) {
  // A ledger line carries no timings: the report is written without the
  // screen's elapsed time.
  constexpr support::JsonCodec<ContractCheckReport, Json> kLedgerReport{
      [](const ContractCheckReport& report) {
        Json json = report.to_json();
        if (json.has("screen")) json.as_object().at("screen").as_object().erase("elapsed_ms");
        return json;
      },
      [](const Json& json) { return ContractCheckReport::from_json(json); }};
  io("contract_id", capture.contract_id);
  io("system", capture.system);
  io("kind", capture.kind);
  io("target_fragment", capture.target_fragment);
  io("condition_text", capture.condition_text);
  io("description", capture.description);
  io("fingerprint", capture.fingerprint);
  io("facts", capture.facts);
  io("smt_queries", capture.smt_queries);
  io("hits", capture.hits);
  io.when(capture.budget.attached, [&] { io("budget", capture.budget); });
  io.when(!capture.narration.kind.empty(), [&] { io("narration", capture.narration); });
  io("report", capture.report, kLedgerReport);
  io.digest("digest", capture.digest);
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
  return support::write_record(*this);
}

ContractCheckReport ContractCheckReport::from_json(const Json& json) {
  return support::read_record<ContractCheckReport>(json);
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
// Per-contract capture
// ---------------------------------------------------------------------------

Json ContractCapture::to_json() const { return support::write_record(*this); }

bool ContractCapture::intact() const {
  // to_json writes a fresh digest of the typed capture; reading it back
  // gives that digest.
  return !digest.empty() && digest == from_json(to_json()).digest;
}

ContractCapture ContractCapture::from_json(const Json& json) {
  return support::read_record<ContractCapture>(json);
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
  root["proposal"] = support::write_record(proposal_);
  JsonArray contracts;
  for (const auto& [id, capture] : captures_)  // std::map: sorted id order
    contracts.push_back(capture->to_json());
  root["contracts"] = Json(std::move(contracts));
  return Json(std::move(root));
}

std::string ProvenanceLedger::jsonl_preamble() const {
  JsonObject entry;
  entry["proposal"] = support::write_record(proposal_);
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
          proposal = support::read_record<ProposalEvidence>(entry.at("proposal"));
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
  loaded_ = true;
  return true;
}

bool ProvenanceLedger::loaded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return loaded_;
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
