#include "obs/explain.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <utility>

#include "minilang/interp.hpp"
#include "minilang/printer.hpp"
#include "obs/diff.hpp"
#include "smt/minilang_bridge.hpp"
#include "support/strings.hpp"

namespace lisa::obs {

using minilang::FuncDecl;
using minilang::ObjectPtr;
using minilang::PathResolution;
using minilang::Program;
using minilang::resolve_path;
using minilang::StateAccess;
using minilang::Stmt;
using minilang::Value;
using smt::Atom;
using smt::Formula;
using smt::FormulaPtr;

namespace {

constexpr std::size_t kMaxSteps = 400;
constexpr std::int64_t kReplayFuel = 200'000;

/// Thrown by the narrator once a replay has reproduced the violation: the
/// remaining test body adds nothing, and interp.cpp's catch-all sites all
/// rethrow, so this unwinds cleanly out of run_test.
struct StopReplay {};

std::string truncate(std::string text, std::size_t limit) {
  if (text.size() > limit) text = text.substr(0, limit - 3) + "...";
  return text;
}

/// Monitor names from summaries may carry `fn::` namespace prefixes; the
/// runtime sync-header text never does. Compare the de-namespaced tails.
bool monitor_matches(const std::string& runtime, const std::string& name) {
  return support::name_tail(runtime) == support::name_tail(name);
}

std::string value_brief(const Value& v) {
  if (v.is_null()) return "null";
  if (v.is_int()) return std::to_string(v.as_int());
  if (v.is_bool()) return v.as_bool() ? "true" : "false";
  if (v.is_string()) return "\"" + truncate(v.as_string(), 24) + "\"";
  if (v.is_object()) {
    const ObjectPtr& obj = v.as_object();
    return obj == nullptr ? "null" : "<" + obj->struct_name + ">";
  }
  if (v.is_list())
    return "list(len=" + std::to_string(v.as_list() == nullptr ? 0 : v.as_list()->size()) + ")";
  if (v.is_map())
    return "map(len=" + std::to_string(v.as_map() == nullptr ? 0 : v.as_map()->size()) + ")";
  return "?";
}

/// One model assignment to force into the live replay state. Parsed from the
/// checker's canonical model names:
///   frame::root.fields[#null]   — local `root` of function `frame`
///   obj<N>.fields[#null]        — heap object with identity N (concolic)
///   root.fields[#null]          — target-frame local (no frame prefix)
struct Injection {
  std::string var;                 // original model variable name
  std::string frame;               // owning function ("" = target frame)
  std::uint64_t object_id = 0;     // nonzero for identity names
  std::vector<std::string> path;   // root + fields (identity names: fields)
  bool null_marker = false;
  bool is_bool = false;
  bool bool_value = false;
  std::int64_t int_value = 0;
};

void parse_injection(const std::string& name, bool is_bool, bool bool_value,
                     std::int64_t int_value, std::vector<Injection>* out) {
  // Placeholder atoms for uninstantiable contract parts are not locations.
  if (support::starts_with(name, "opaque:")) return;
  Injection inj;
  inj.var = name;
  std::string body = name;
  if (support::ends_with(body, "#null")) {
    inj.null_marker = true;
    body = body.substr(0, body.size() - 5);
  }
  const std::size_t sep = body.find("::");
  if (sep != std::string::npos) {
    inj.frame = body.substr(0, sep);
    body = body.substr(sep + 2);
  }
  if (inj.frame.empty() && support::starts_with(body, "obj")) {
    std::size_t i = 3;
    std::uint64_t id = 0;
    bool digits = false;
    while (i < body.size() && std::isdigit(static_cast<unsigned char>(body[i])) != 0) {
      id = id * 10 + static_cast<std::uint64_t>(body[i] - '0');
      ++i;
      digits = true;
    }
    if (digits && i < body.size() && body[i] == '.') {
      inj.object_id = id;
      body = body.substr(i + 1);
    }
  }
  for (std::string& segment : support::split(body, '.')) inj.path.push_back(std::move(segment));
  if (inj.path.empty() || inj.path.front().empty()) return;
  // Opaque roots ("!opaque") are unmappable by construction: skip.
  if (inj.frame.rfind('!', 0) == 0 || inj.path.front().rfind('!', 0) == 0) return;
  inj.is_bool = is_bool;
  inj.bool_value = bool_value;
  inj.int_value = int_value;
  out->push_back(std::move(inj));
}

std::vector<Injection> parse_model(const NarrationRequest& request) {
  std::vector<Injection> out;
  for (const auto& [name, value] : request.model_bools)
    parse_injection(name, true, value, 0, &out);
  for (const auto& [name, value] : request.model_ints)
    parse_injection(name, false, false, value, &out);
  return out;
}

/// Heap object with the given identity, reachable from the live locals.
/// Interp allocation order is deterministic, so a fresh replay of the same
/// test reassigns the same ids the concolic engine saw.
ObjectPtr find_object(StateAccess& state, std::uint64_t object_id) {
  std::vector<Value> queue;
  std::set<const void*> seen;
  for (const std::string& name : state.local_names()) {
    Value* slot = state.lookup(name);
    if (slot != nullptr) queue.push_back(*slot);
  }
  for (std::size_t i = 0; i < queue.size() && i < 4096; ++i) {
    const Value value = queue[i];
    if (value.is_object()) {
      const ObjectPtr& obj = value.as_object();
      if (obj == nullptr || !seen.insert(obj.get()).second) continue;
      if (obj->object_id == object_id) return obj;
      for (const auto& [field, field_value] : obj->fields) queue.push_back(field_value);
    } else if (value.is_list()) {
      if (value.as_list() != nullptr)
        for (const Value& item : *value.as_list()) queue.push_back(item);
    } else if (value.is_map()) {
      if (value.as_map() != nullptr)
        for (const auto& [key, item] : *value.as_map()) queue.push_back(item);
    }
  }
  return nullptr;
}

/// The replay observer: injects witness state, records the step trace with
/// variable deltas, and evaluates the predicate at every target arrival.
class Narrator final : public minilang::ExecObserver {
 public:
  Narrator(const NarrationRequest& request, const std::set<int>& targets,
           std::vector<Injection> injections, bool structural, bool interleaving,
           Narration* out)
      : request_(&request),
        targets_(&targets),
        injections_(std::move(injections)),
        structural_(structural),
        interleaving_(interleaving),
        out_(out) {}

  [[nodiscard]] bool wants_state() override { return true; }

  void on_state(const FuncDecl& fn, const Stmt& stmt, StateAccess& state) override {
    const bool at_target =
        !structural_ && !interleaving_ && targets_->count(stmt.id) > 0;
    apply_injections(fn, state, at_target);
    record_step(fn, stmt, state);
    if (interleaving_) check_interleaving(stmt, state);
    if (at_target) evaluate_predicate(state);
  }

  void on_blocking(const std::string& name, int sync_depth) override {
    if (!structural_ || sync_depth <= 0) return;
    target_reached_ = true;
    annotate_last_step("blocking call '" + name + "' while holding " +
                       std::to_string(sync_depth) + " monitor(s)");
    out_->kind = "structural-replay";
    out_->reproduced = true;
    out_->detail = "blocking call '" + name + "' executed under a held monitor (depth " +
                   std::to_string(sync_depth) + ")";
    throw StopReplay{};
  }

  /// Finalizes the non-reproducing outcomes after the replay returns.
  void finish() {
    if (out_->reproduced) return;
    if (truncated_) out_->detail = append_detail(out_->detail, "step trace truncated");
    if (target_reached_) {
      out_->kind = "not-reproduced";
      out_->detail = append_detail(
          structural_ ? "" : "replay reached the target but the predicate held",
          out_->detail);
    } else {
      out_->kind = "unavailable";
      out_->detail = append_detail(
          structural_ ? "no blocking call executed under a held monitor"
          : interleaving_
              ? "no replay exercised a cycle edge or an unguarded write"
              : "replay never reached the target statement",
          out_->detail);
    }
  }

 private:
  static std::string append_detail(std::string base, const std::string& extra) {
    if (extra.empty()) return base;
    if (base.empty()) return extra;
    return base + "; " + extra;
  }

  void note(std::string text) {
    if (!pending_note_.empty()) pending_note_ += "; ";
    pending_note_ += std::move(text);
  }

  // -- interleaving reproduction --------------------------------------------

  /// Appends `text` to the last recorded step's note (the step for `stmt`).
  void annotate_last_step(const std::string& text) {
    if (out_->steps.empty()) return;
    std::string& note = out_->steps.back().note;
    if (!note.empty()) note += "; ";
    note += text;
  }

  /// Tracks the concrete monitor stack (by sync-header text) against the
  /// interpreter's sync depth, and reproduces when a lock-order cycle edge
  /// is exercised or a guarded field is written with its guard not held.
  void check_interleaving(const Stmt& stmt, StateAccess& state) {
    const int raw_depth = state.sync_depth();
    const std::size_t depth =
        raw_depth > 0 ? static_cast<std::size_t>(raw_depth) : 0;
    while (monitors_.size() > depth) monitors_.pop_back();
    if (monitors_.size() < depth) {
      // Entered sync block(s) since the last observed statement; the newly
      // held monitor is the last sync header the replay passed.
      while (monitors_.size() < depth) monitors_.push_back(pending_monitor_);
      const std::string& inner = monitors_.back();
      for (std::size_t i = 0; i + 1 < monitors_.size(); ++i) {
        const std::string& outer = monitors_[i];
        for (const auto& [edge_outer, edge_inner] : request_->cycle_edges) {
          if (!monitor_matches(outer, edge_outer) ||
              !monitor_matches(inner, edge_inner))
            continue;
          annotate_last_step("acquired '" + inner + "' while holding '" + outer + "'");
          out_->kind = "interleaving-replay";
          out_->reproduced = true;
          out_->detail = "lock-order cycle edge exercised: acquired '" + inner +
                         "' while holding '" + outer + "' (cycle edge '" +
                         edge_outer + "' -> '" + edge_inner + "')";
          throw StopReplay{};
        }
      }
    }
    if (stmt.kind == Stmt::Kind::kSync && stmt.expr)
      pending_monitor_ = minilang::expr_text(*stmt.expr);

    if (request_->guarded_field.empty() || stmt.kind != Stmt::Kind::kAssign ||
        !stmt.expr)
      return;
    const std::string path = smt::access_path(*stmt.expr);
    const std::size_t dot = path.rfind('.');
    if (dot == std::string::npos || path.substr(dot + 1) != request_->guarded_field)
      return;
    for (const std::string& monitor : monitors_)
      if (monitor_matches(monitor, request_->guard_monitor)) return;
    annotate_last_step("writes '" + path + "' without '" + request_->guard_monitor +
                       "' held");
    out_->kind = "interleaving-replay";
    out_->reproduced = true;
    out_->detail = "write to guarded field '" + path + "' with monitor '" +
                   request_->guard_monitor + "' not held";
    throw StopReplay{};
  }

  // -- witness injection ----------------------------------------------------

  void apply_injections(const FuncDecl& fn, StateAccess& state, bool at_target) {
    for (const Injection& inj : injections_) {
      const bool frame_match = !inj.frame.empty() && inj.frame == fn.name;
      const bool identity = inj.object_id != 0;
      const bool local_at_target = inj.frame.empty() && !identity && at_target;
      if (frame_match || identity || local_at_target) apply_one(inj, state);
    }
  }

  /// The value the injection forces, given what currently sits there.
  /// Returns false when the witness demands state the narrator cannot
  /// fabricate (a non-null object where none exists).
  bool make_value(const Injection& inj, const Value& current, Value* out) {
    if (inj.null_marker) {
      if (inj.bool_value) {
        *out = Value::null();
        return true;
      }
      if (current.is_null()) {
        if (noted_skips_.insert(inj.var).second)
          note("cannot construct non-null witness for " + inj.var);
        return false;
      }
      *out = current;  // already non-null: the constraint holds as-is
      return true;
    }
    *out = inj.is_bool ? Value::of_bool(inj.bool_value) : Value::of_int(inj.int_value);
    return true;
  }

  void apply_one(const Injection& inj, StateAccess& state) {
    ObjectPtr parent;
    std::string leaf;
    Value current;
    if (inj.object_id != 0) {
      ObjectPtr obj = find_object(state, inj.object_id);
      if (obj == nullptr) return;
      Value cursor = Value::of_object(std::move(obj));
      if (!walk_to_parent(cursor, inj.path, 0, &parent, &leaf, &current)) return;
    } else {
      Value* slot = state.lookup(inj.path.front());
      if (slot == nullptr) return;
      if (inj.path.size() == 1) {
        Value next;
        if (!make_value(inj, *slot, &next)) return;
        if (value_brief(*slot) != value_brief(next))
          note("witness injected: " + inj.var + " := " + value_brief(next));
        *slot = std::move(next);
        return;
      }
      if (!walk_to_parent(*slot, inj.path, 1, &parent, &leaf, &current)) return;
    }
    Value next;
    if (!make_value(inj, current, &next)) return;
    if (value_brief(current) != value_brief(next))
      note("witness injected: " + inj.var + " := " + value_brief(next));
    parent->fields[leaf] = std::move(next);
  }

  /// Walks path[first..] from `root` to the object owning the leaf field.
  static bool walk_to_parent(const Value& root, const std::vector<std::string>& path,
                             std::size_t first, ObjectPtr* parent, std::string* leaf,
                             Value* current) {
    Value cursor = root;
    for (std::size_t i = first; i + 1 < path.size(); ++i) {
      if (!cursor.is_object() || cursor.as_object() == nullptr) return false;
      const auto it = cursor.as_object()->fields.find(path[i]);
      if (it == cursor.as_object()->fields.end()) return false;
      cursor = it->second;
    }
    if (!cursor.is_object() || cursor.as_object() == nullptr) return false;
    *parent = cursor.as_object();
    *leaf = path.back();
    const auto it = (*parent)->fields.find(*leaf);
    *current = it == (*parent)->fields.end() ? Value::null() : it->second;
    return true;
  }

  // -- step trace -----------------------------------------------------------

  /// Scalar view of the visible locals, one depth of object fields included
  /// (enough to show `s.is_closing: false -> true` deltas).
  static std::map<std::string, std::string> snapshot_of(StateAccess& state) {
    std::map<std::string, std::string> snapshot;
    for (const std::string& name : state.local_names()) {
      Value* slot = state.lookup(name);
      if (slot == nullptr) continue;
      snapshot[name] = value_brief(*slot);
      if (slot->is_object() && slot->as_object() != nullptr) {
        for (const auto& [field, value] : slot->as_object()->fields)
          if (!value.is_object() && !value.is_list() && !value.is_map())
            snapshot[name + "." + field] = value_brief(value);
      }
    }
    return snapshot;
  }

  void record_step(const FuncDecl& fn, const Stmt& stmt, StateAccess& state) {
    std::map<std::string, std::string> snapshot = snapshot_of(state);
    // The state before this statement shows what the *previous* statement
    // did: attach the delta to the step already recorded for it.
    if (!out_->steps.empty() && last_fn_ == fn.name && !last_snapshot_.empty()) {
      std::string delta;
      for (const auto& [name, value] : snapshot) {
        const auto it = last_snapshot_.find(name);
        if (it != last_snapshot_.end() && it->second == value) continue;
        if (!delta.empty()) delta += ", ";
        delta += it == last_snapshot_.end() ? name + " := " + value
                                            : name + ": " + it->second + " -> " + value;
      }
      if (!delta.empty()) annotate_last_step(delta);
    }
    last_fn_ = fn.name;
    last_snapshot_ = std::move(snapshot);
    if (out_->steps.size() >= kMaxSteps) {
      truncated_ = true;
      pending_note_.clear();
      return;
    }
    NarrationStep step;
    step.function = fn.name;
    step.line = stmt.loc.line;
    step.stmt = truncate(minilang::stmt_header_text(stmt), 96);
    step.sync_depth = state.sync_depth();
    step.note = std::exchange(pending_note_, std::string());
    out_->steps.push_back(std::move(step));
  }

  // -- predicate evaluation at the target -----------------------------------

  bool eval_atom(StateAccess& state, const Atom& atom, bool* ok, std::string* shown) {
    const auto unresolvable = [&] {
      *ok = false;
      *shown = "unresolvable";
      return true;
    };
    if (atom.kind == Atom::Kind::kBoolVar) {
      if (support::ends_with(atom.lhs, "#null")) {
        const std::string path = atom.lhs.substr(0, atom.lhs.size() - 5);
        const PathResolution res = resolve_path(state, path);
        if (!res.ok) return unresolvable();
        *shown = path + " = " + value_brief(res.value);
        return res.value.is_null();
      }
      const PathResolution res = resolve_path(state, atom.lhs);
      if (!res.ok || !res.value.is_bool()) return unresolvable();
      *shown = atom.lhs + " = " + value_brief(res.value);
      return res.value.as_bool();
    }
    const PathResolution lhs = resolve_path(state, atom.lhs);
    if (!lhs.ok || !lhs.value.is_int()) return unresolvable();
    std::int64_t rhs = atom.rhs_const;
    std::string rhs_shown = std::to_string(rhs);
    if (atom.kind == Atom::Kind::kCmpVar) {
      const PathResolution rhs_res = resolve_path(state, atom.rhs_var);
      if (!rhs_res.ok || !rhs_res.value.is_int()) return unresolvable();
      rhs = rhs_res.value.as_int();
      rhs_shown = atom.rhs_var + " = " + std::to_string(rhs);
    }
    *shown = atom.lhs + " = " + std::to_string(lhs.value.as_int()) + ", " + rhs_shown;
    return smt::cmp_holds(lhs.value.as_int(), atom.op, rhs);
  }

  /// Returns the concrete value of `f`. `negated` tracks the polarity of the
  /// enclosing negations so each recorded term is the *literal* as it appears
  /// in the contract (NNF view): "!(s.is_closing)" holds when is_closing is
  /// false, which is what a reader checks against the trace.
  bool eval_formula(StateAccess& state, const FormulaPtr& f,
                    std::vector<PredicateTerm>* terms, bool* ok, bool negated = false) {
    switch (f->kind) {
      case Formula::Kind::kTrue: return true;
      case Formula::Kind::kFalse: return false;
      case Formula::Kind::kNot:
        return !eval_formula(state, f->children[0], terms, ok, !negated);
      case Formula::Kind::kAnd: {
        bool all = true;
        for (const FormulaPtr& child : f->children)
          all = eval_formula(state, child, terms, ok, negated) && all;
        return all;
      }
      case Formula::Kind::kOr: {
        bool any = false;
        for (const FormulaPtr& child : f->children)
          any = eval_formula(state, child, terms, ok, negated) || any;
        return any;
      }
      case Formula::Kind::kAtom: {
        PredicateTerm term;
        bool term_ok = true;
        const bool raw = eval_atom(state, f->atom, &term_ok, &term.value);
        term.text = negated ? "!(" + f->atom.key() + ")" : f->atom.key();
        term.holds = negated ? !raw : raw;
        if (!term_ok) *ok = false;
        terms->push_back(term);
        return raw;
      }
    }
    return true;
  }

  void evaluate_predicate(StateAccess& state) {
    target_reached_ = true;
    if (request_->contract == nullptr) return;
    std::vector<PredicateTerm> terms;
    bool ok = true;
    const bool holds = eval_formula(state, request_->contract, &terms, &ok);
    out_->predicate = std::move(terms);  // latest arrival wins
    if (ok && !holds) {
      out_->kind = "state-replay";
      out_->reproduced = true;
      out_->detail =
          "concrete state at the target statement violates the contract predicate";
      throw StopReplay{};
    }
  }

  const NarrationRequest* request_;
  const std::set<int>* targets_;
  std::vector<Injection> injections_;
  bool structural_ = false;
  bool interleaving_ = false;
  Narration* out_;
  /// Concrete monitor stack mirrored from sync_depth (interleaving mode).
  std::vector<std::string> monitors_;
  std::string pending_monitor_;

  std::string pending_note_;
  std::string last_fn_;
  std::map<std::string, std::string> last_snapshot_;
  std::set<std::string> noted_skips_;
  bool target_reached_ = false;
  bool truncated_ = false;
};

}  // namespace

Narration narrate_counterexample(const Program& program, const NarrationRequest& request) {
  const bool structural = request.kind == "structural-pattern";
  const bool interleaving = request.kind == "interleaving-sensitive";
  std::set<int> targets;
  if (!structural && !interleaving) {
    program.for_each_stmt([&](const FuncDecl& fn, const Stmt& stmt) {
      if (fn.has_annotation("test")) return;
      if (minilang::stmt_header_text(stmt).find(request.target_fragment) != std::string::npos)
        targets.insert(stmt.id);
    });
  }
  const std::vector<Injection> injections = parse_model(request);

  std::vector<std::string> candidates;
  std::set<std::string> seen;
  for (const std::string& test : request.candidate_tests)
    if (seen.insert(test).second) candidates.push_back(test);

  Narration best;
  best.kind = "unavailable";
  best.detail = candidates.empty()
                    ? "no candidate test available"
                : structural ? "no test executed a blocking call under a held monitor"
                : interleaving
                    ? "no test exercised a cycle edge or an unguarded write"
                    : "no candidate test reached the target statement";

  for (const std::string& test : candidates) {
    Narration attempt;
    attempt.test = test;
    Narrator narrator(request, targets, injections, structural, interleaving, &attempt);
    minilang::Interp interp(program);
    interp.set_fuel(kReplayFuel);
    interp.set_observer(&narrator);
    try {
      interp.run_test(test);
    } catch (const StopReplay&) {
      // reproduced: the narrator cut the replay short.
    } catch (const std::exception&) {
      // Engine error mid-replay (injection made state the test body cannot
      // handle): keep whatever narration accumulated and move on.
    }
    narrator.finish();
    if (attempt.reproduced) return attempt;
    if (best.kind == "unavailable" && attempt.kind != "unavailable") best = std::move(attempt);
  }
  return best;
}

// ---------------------------------------------------------------------------
// Terminal rendering
// ---------------------------------------------------------------------------

namespace {

void append_line(std::string* out, const std::string& line) {
  *out += line;
  *out += '\n';
}

/// Why the exploration ended as it did: the first violating schedule, or
/// the typed inconclusive reason.
const std::string& schedule_cause(const ContractCheckReport& report) {
  return report.schedule_violation_details.empty() ? report.schedule_inconclusive_reason
                                                   : report.schedule_violation_details.front();
}

}  // namespace

std::string render_capture_text(const ContractCapture& capture) {
  const ContractCheckReport& report = capture.report;
  std::string out;
  append_line(&out, "contract " + capture.contract_id +
                        (capture.system.empty() ? "" : " (" + capture.system + ")") + " — " +
                        report.verdict_name());
  if (!capture.description.empty()) append_line(&out, "  " + capture.description);
  append_line(&out, "  kind: " + capture.kind + "  target: \"" + capture.target_fragment +
                        "\"  fingerprint: " + capture.fingerprint);
  if (!capture.condition_text.empty())
    append_line(&out, "  condition: " + capture.condition_text);

  if (!report.screen_verdict.empty()) {
    append_line(&out, "  screen: " + report.screen_verdict +
                          (report.screen_reason.empty() ? "" : " — " + report.screen_reason));
    if (!report.screen_witness.empty())
      append_line(&out, "    witness: " + report.screen_witness);
  }

  if (report.explored_schedules()) {
    append_line(&out, "  schedules: " + std::to_string(report.schedules_explored) +
                          " explored — " +
                          (report.schedule_conclusive ? "conclusive" : "INCONCLUSIVE"));
    if (!schedule_cause(report).empty()) append_line(&out, "    " + schedule_cause(report));
    if (!report.schedule_witness.empty())
      append_line(&out, "    witness: " + report.schedule_witness);
  }

  if (!capture.facts.empty()) {
    append_line(&out, "  facts (" + std::to_string(capture.facts.size()) + "):");
    for (const FactEvidence& fact : capture.facts)
      append_line(&out, "    [" + fact.analysis + "] " + fact.function + ":" +
                            std::to_string(fact.line) + ": " + fact.fact);
  }

  if (!report.paths.empty()) {
    append_line(&out, "  paths (" + std::to_string(report.paths.size()) + "):");
    for (const PathReport& path : report.paths) {
      append_line(&out, "    " + support::join(path.call_chain, " -> ") + " — " +
                            path_verdict_name(path.verdict));
      if (!path.path_condition.empty())
        append_line(&out, "      pi: " + truncate(path.path_condition, 160));
      if (!path.counterexample.empty())
        append_line(&out, "      counterexample: " + path.counterexample);
      if (!path.detail.empty()) append_line(&out, "      " + path.detail);
    }
  }

  if (!capture.hits.empty()) {
    append_line(&out, "  concolic hits (" + std::to_string(capture.hits.size()) + "):");
    for (const HitEvidence& hit : capture.hits) {
      append_line(&out, "    " + hit.test + " @ " + hit.function + "#" +
                            std::to_string(hit.stmt_id) + " — " + hit.outcome +
                            (hit.witness.empty() ? "" : " | " + hit.witness));
    }
  }

  if (!capture.smt_queries.empty()) {
    append_line(&out, "  smt queries (" + std::to_string(capture.smt_queries.size()) + "):");
    for (const SmtQueryEvidence& query : capture.smt_queries)
      append_line(&out, "    [" + query.phase + "] " + query.status + " " + query.digest +
                            (query.model.empty() ? "" : " model " + query.model) +
                            (query.reason.empty() ? "" : " (" + query.reason + ")"));
  }

  if (capture.budget.attached) {
    std::string line = "  budget: " + std::string(capture.budget.exhausted
                                                      ? "exhausted (" + capture.budget.resource + ")"
                                                      : "within limits");
    for (const auto& [resource, amount] : capture.budget.charges)
      line += "  " + resource + "=" + std::to_string(amount);
    append_line(&out, line);
    if (!capture.budget.reason.empty()) append_line(&out, "    " + capture.budget.reason);
  }

  const Narration& narration = capture.narration;
  if (!narration.kind.empty()) {
    append_line(&out, "  narration: " + narration.kind +
                          (narration.test.empty() ? "" : " via " + narration.test) +
                          (narration.reproduced ? " — violation reproduced" : ""));
    if (!narration.detail.empty()) append_line(&out, "    " + narration.detail);
    // Interleaved traces tag every step with its thread: [t0] is the test
    // body, [tN] the N-th spawned thread. Serial narrations stay untagged.
    const bool interleaved = narration.kind == "schedule-replay";
    for (const NarrationStep& step : narration.steps) {
      std::string line = "    " +
                         (interleaved ? "[t" + std::to_string(step.thread) + "] " : "") +
                         step.function + ":" + std::to_string(step.line) + "  " +
                         step.stmt;
      if (step.sync_depth > 0) line += "  [sync " + std::to_string(step.sync_depth) + "]";
      if (!step.note.empty()) line += "  | " + step.note;
      append_line(&out, line);
    }
    if (!narration.predicate.empty()) {
      append_line(&out, "    predicate at the target:");
      for (const PredicateTerm& term : narration.predicate)
        append_line(&out, "      " + term.text + "  ->  " +
                              std::string(term.holds ? "holds" : "VIOLATED") + "  (" +
                              term.value + ")");
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// HTML rendering
// ---------------------------------------------------------------------------

namespace {

void render_contract_html(const ContractCapture& capture, std::string* out) {
  const ContractCheckReport& report = capture.report;
  const std::string verdict = report.verdict_name();
  *out += "<details class=\"contract\" " + std::string(verdict == "violated" ? "open" : "") +
          ">\n";
  *out += "<summary><span class=\"badge " + std::string(verdict_class(verdict)) + "\">" +
          html_escape(verdict) + "</span> <code>" +
          html_escape(capture.contract_id) + "</code> " + html_escape(capture.description) +
          "</summary>\n";
  *out += "<p class=\"meta\">kind " + html_escape(capture.kind) + " · target <code>" +
          html_escape(capture.target_fragment) + "</code> · fingerprint <code>" +
          html_escape(capture.fingerprint) + "</code></p>\n";
  if (!capture.condition_text.empty())
    *out += "<p class=\"meta\">condition <code>" + html_escape(capture.condition_text) +
            "</code></p>\n";

  if (!report.screen_verdict.empty()) {
    *out += "<h4>Static screen</h4><p>" + html_escape(report.screen_verdict) + " — " +
            html_escape(report.screen_reason) + "</p>\n";
    if (!report.screen_witness.empty())
      *out += "<p class=\"meta\">witness <code>" + html_escape(report.screen_witness) +
              "</code></p>\n";
  }

  if (report.explored_schedules()) {
    *out += "<h4>Schedule exploration</h4><p>" + std::to_string(report.schedules_explored) +
            " interleaving(s) explored — " +
            std::string(report.schedule_conclusive ? "conclusive" : "<strong>inconclusive</strong>");
    if (!schedule_cause(report).empty()) *out += " · " + html_escape(schedule_cause(report));
    *out += "</p>\n";
    if (!report.schedule_witness.empty())
      *out += "<p class=\"meta\">witness <code>" + html_escape(report.schedule_witness) +
              "</code></p>\n";
  }

  if (!capture.facts.empty()) {
    *out += "<h4>Dataflow facts</h4><table><tr><th>analysis</th><th>location</th>"
            "<th>fact</th></tr>\n";
    for (const FactEvidence& fact : capture.facts)
      *out += "<tr><td>" + html_escape(fact.analysis) + "</td><td>" +
              html_escape(fact.function) + ":" + std::to_string(fact.line) + "</td><td><code>" +
              html_escape(fact.fact) + "</code></td></tr>\n";
    *out += "</table>\n";
  }

  if (!report.paths.empty()) {
    *out += "<h4>Execution paths</h4><table><tr><th>chain</th><th>verdict</th>"
            "<th>evidence</th></tr>\n";
    for (const PathReport& path : report.paths) {
      std::string evidence;
      if (!path.path_condition.empty())
        evidence += "&pi;: <code>" + html_escape(path.path_condition) + "</code><br>";
      if (!path.counterexample.empty())
        evidence += "counterexample: <code>" + html_escape(path.counterexample) + "</code><br>";
      if (!path.detail.empty()) evidence += html_escape(path.detail);
      *out += "<tr><td><code>" + html_escape(support::join(path.call_chain, " -> ")) +
              "</code></td><td>" + html_escape(path_verdict_name(path.verdict)) + "</td><td>" +
              evidence + "</td></tr>\n";
    }
    *out += "</table>\n";
  }

  if (!capture.hits.empty()) {
    *out += "<h4>Concolic hits</h4><table><tr><th>test</th><th>target</th><th>outcome</th>"
            "<th>witness</th></tr>\n";
    for (const HitEvidence& hit : capture.hits)
      *out += "<tr><td><code>" + html_escape(hit.test) + "</code></td><td>" +
              html_escape(hit.function) + "#" + std::to_string(hit.stmt_id) + "</td><td>" +
              html_escape(hit.outcome) + "</td><td><code>" + html_escape(hit.witness) +
              "</code></td></tr>\n";
    *out += "</table>\n";
  }

  if (!capture.smt_queries.empty()) {
    *out += "<details><summary>SMT queries (" + std::to_string(capture.smt_queries.size()) +
            ")</summary><table><tr><th>phase</th><th>status</th><th>digest</th>"
            "<th>query</th><th>model</th></tr>\n";
    for (const SmtQueryEvidence& query : capture.smt_queries)
      *out += "<tr><td>" + html_escape(query.phase) + "</td><td>" + html_escape(query.status) +
              "</td><td><code>" + html_escape(query.digest) + "</code></td><td><code>" +
              html_escape(query.query) + "</code></td><td><code>" +
              html_escape(query.model.empty() ? query.reason : query.model) +
              "</code></td></tr>\n";
    *out += "</table></details>\n";
  }

  if (capture.budget.attached) {
    *out += "<h4>Budget</h4><p>" +
            std::string(capture.budget.exhausted
                            ? "exhausted — " + html_escape(capture.budget.resource)
                            : "within limits");
    for (const auto& [resource, amount] : capture.budget.charges)
      *out += " · " + html_escape(resource) + " = " + std::to_string(amount);
    *out += "</p>\n";
  }

  const Narration& narration = capture.narration;
  if (!narration.kind.empty()) {
    *out += "<h4>Counterexample narration</h4><p>" + html_escape(narration.kind);
    if (!narration.test.empty()) *out += " via <code>" + html_escape(narration.test) + "</code>";
    if (narration.reproduced) *out += " — <strong>violation reproduced</strong>";
    *out += "</p>\n";
    if (!narration.detail.empty())
      *out += "<p class=\"meta\">" + html_escape(narration.detail) + "</p>\n";
    if (!narration.steps.empty()) {
      const bool interleaved = narration.kind == "schedule-replay";
      *out += "<table class=\"trace\"><tr><th>location</th><th>statement</th>"
              "<th>sync</th><th>notes</th></tr>\n";
      for (const NarrationStep& step : narration.steps)
        *out += "<tr><td>" +
                (interleaved ? "[t" + std::to_string(step.thread) + "] " : "") +
                html_escape(step.function) + ":" + std::to_string(step.line) +
                "</td><td><code>" + html_escape(step.stmt) + "</code></td><td>" +
                (step.sync_depth > 0 ? std::to_string(step.sync_depth) : "") + "</td><td>" +
                html_escape(step.note) + "</td></tr>\n";
      *out += "</table>\n";
    }
    if (!narration.predicate.empty()) {
      *out += "<table><tr><th>predicate term</th><th>concrete value</th><th>holds</th></tr>\n";
      for (const PredicateTerm& term : narration.predicate)
        *out += "<tr><td><code>" + html_escape(term.text) + "</code></td><td>" +
                html_escape(term.value) + "</td><td class=\"" +
                (term.holds ? "good\">holds" : "bad\">VIOLATED") + "</td></tr>\n";
      *out += "</table>\n";
    }
  }
  *out += "</details>\n";
}

}  // namespace

std::string render_ledger_html(const ProvenanceLedger& ledger) {
  std::string out;
  out += "<p class=\"meta\">run fingerprint <code>" + html_escape(ledger.run_fingerprint()) +
         "</code> · " + std::to_string(ledger.size()) + " contract(s)</p>\n";

  const ProposalEvidence& proposal = ledger.proposal();
  if (!proposal.case_id.empty()) {
    out += "<h3>Inference provenance</h3><p>case <code>" + html_escape(proposal.case_id) +
           "</code> — " + (proposal.succeeded ? "proposal accepted" : "proposal FAILED") +
           " after " + std::to_string(proposal.attempts) + " attempt(s), " +
           std::to_string(proposal.transient_errors) + " transient error(s), " +
           std::to_string(proposal.validation_failures) + " validation failure(s)</p>\n";
    if (!proposal.high_level.empty())
      out += "<p class=\"meta\">" + html_escape(proposal.high_level) + "</p>\n";
    if (!proposal.error.empty())
      out += "<p class=\"meta\">error: " + html_escape(proposal.error) + "</p>\n";
  }

  for (const std::string& id : ledger.contract_ids()) {
    const ContractCapture* capture = ledger.find(id);
    if (capture != nullptr) render_contract_html(*capture, &out);
  }
  return html_page("LISA gate failure report",
                   "details.contract{border:1px solid #d8d8e0;border-radius:6px;"
                   "padding:.5rem 1rem;margin:.75rem 0}\n"
                   "summary{cursor:pointer;font-weight:600}\n"
                   "h4{margin:.8rem 0 .2rem}\n",
                   out);
}

}  // namespace lisa::obs
