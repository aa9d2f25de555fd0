#include "staticcheck/screener.hpp"

#include <utility>

#include "analysis/paths.hpp"
#include "obs/trace.hpp"
#include "smt/solver.hpp"
#include "staticcheck/concurrency.hpp"
#include "staticcheck/dataflow.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"
#include "support/strings.hpp"

namespace lisa::staticcheck {

using minilang::FuncDecl;
using minilang::Program;
using minilang::Stmt;
using smt::Atom;
using smt::CmpOp;
using smt::Formula;
using smt::FormulaPtr;

const char* screen_verdict_name(ScreenVerdict verdict) {
  switch (verdict) {
    case ScreenVerdict::kProvedSafe: return "proved-safe";
    case ScreenVerdict::kProvedViolated: return "proved-violated";
    case ScreenVerdict::kUnknown: return "unknown";
  }
  return "?";
}

Screener::Screener(const Program& program, bool use_summaries)
    : program_(&program), summaries_pending_(use_summaries) {}

const analysis::CallGraph& Screener::graph() const {
  if (!graph_.has_value()) graph_ = analysis::CallGraph::build(*program_);
  return *graph_;
}

const SummaryMap* Screener::summaries() const {
  if (summaries_pending_) {
    summaries_pending_ = false;  // one attempt per analysis, success or not
    try {
      summaries_ = SummaryMap::compute(*program_, graph());
    } catch (const std::exception& error) {
      // Summaries only strengthen facts; losing them degrades the screener to
      // its summary-free (PR 2) precision instead of taking the pipeline down.
      support::log(support::LogLevel::warn,
                   "summary computation failed, screening without summaries: ",
                   error.what());
    }
  }
  return summaries_.has_value() ? &*summaries_ : nullptr;
}

const SliceEngine& Screener::slicer() const {
  if (!slicer_.has_value()) slicer_.emplace(*program_, graph(), summaries());
  return *slicer_;
}

const LockGraph* Screener::lock_graph() const {
  if (!lock_graph_.has_value() && summaries() != nullptr)
    lock_graph_ = LockGraph::build(*program_, graph(), *summaries());
  return lock_graph_.has_value() ? &*lock_graph_ : nullptr;
}

FormulaPtr Screener::facts_at(const FuncDecl& fn, const Stmt* stmt) const {
  return facts_at(fn, stmt, obs::CaptureHandle{});
}

FormulaPtr Screener::facts_at(const FuncDecl& fn, const Stmt* stmt,
                              const obs::CaptureHandle& capture) const {
  const Cfg& cfg = graph().cfg(fn);
  const int node = cfg.node_of(stmt);
  if (node < 0) return Formula::truth(true);

  const auto record = [&](const char* analysis, std::string fact) {
    if (!capture.active()) return;
    obs::FactEvidence evidence;
    evidence.analysis = analysis;
    evidence.function = fn.name;
    evidence.line = stmt->loc.line;
    evidence.column = stmt->loc.column;
    evidence.fact = std::move(fact);
    capture.fact(std::move(evidence));
  };

  std::vector<FormulaPtr> facts;

  NullnessAnalysis nullness(*program_, summaries());
  const auto null_result = run_forward(cfg, nullness);
  if (null_result.reached[static_cast<std::size_t>(node)]) {
    for (const auto& [path, fact] : null_result.in[static_cast<std::size_t>(node)]) {
      record("nullness", path + (fact == NullFact::kNull ? " = null" : " = non-null"));
      FormulaPtr is_null = Formula::make_atom(Atom::bool_var(path + "#null"));
      facts.push_back(fact == NullFact::kNull ? std::move(is_null)
                                              : Formula::negate(std::move(is_null)));
    }
  }

  IntervalAnalysis intervals(*program_, summaries());
  const auto interval_result = run_forward(cfg, intervals);
  if (interval_result.reached[static_cast<std::size_t>(node)]) {
    for (const auto& [path, range] : interval_result.in[static_cast<std::size_t>(node)]) {
      if (range.lo != Interval::kMin) {
        record("intervals", path + " >= " + std::to_string(range.lo));
        facts.push_back(Formula::make_atom(Atom::cmp_const(path, CmpOp::kGe, range.lo)));
      }
      if (range.hi != Interval::kMax) {
        record("intervals", path + " <= " + std::to_string(range.hi));
        facts.push_back(Formula::make_atom(Atom::cmp_const(path, CmpOp::kLe, range.hi)));
      }
    }
  }

  return facts.empty() ? Formula::truth(true) : Formula::conj(std::move(facts));
}

namespace {

/// Summary evidence for a target function: the interprocedural facts that
/// strengthened the dataflow analyses above. Rendered compactly so the
/// ledger stays readable.
void record_summary_evidence(const obs::CaptureHandle& capture,
                             const SummaryMap* summaries, const FuncDecl& fn) {
  if (!capture.active() || summaries == nullptr) return;
  const FunctionSummary* summary = summaries->find(fn.name);
  if (summary == nullptr) return;

  std::string text = "mod-fields {" + support::join(summary->mod_fields, ", ") + "}";
  text += summary->may_throw ? "; may-throw" : "; no-throw";
  text += summary->may_block ? "; may-block" : "; no-block";
  if (summary->opaque_effects) text += "; opaque-effects";
  for (const auto& [path, fact] : summary->nullness_on_return) {
    text += "; on-return " + path + (fact == NullFact::kNull ? " = null" : " = non-null");
  }
  for (const auto& [path, fact] : summary->boundary_nullness) {
    text += "; boundary " + path + (fact == NullFact::kNull ? " = null" : " = non-null");
  }

  obs::FactEvidence evidence;
  evidence.analysis = "summary";
  evidence.function = fn.name;
  evidence.fact = std::move(text);
  capture.fact(std::move(evidence));
}

}  // namespace

bool Screener::slice_closure_refutes(const std::string& target_fragment,
                                     const FormulaPtr& condition,
                                     const ScreenOptions& options,
                                     obs::PhasedSmtCapture& smt_capture) const {
  // The rule leans on the same interprocedural facts as the fact closure:
  // without summaries every call havocs the depgraph and the slice degrades.
  if (summaries() == nullptr) return false;

  SliceRequest request;
  request.kind = SliceRequest::Kind::kStatePredicate;
  request.target_fragment = target_fragment;
  request.condition = condition;
  // A ProvedSafe verdict can skip the concolic replay, so the cone must
  // cover @test drivers: a test constructing the footprint and calling the
  // target is as verdict-relevant as any production caller.
  request.include_tests = true;
  const SliceResult sliced = slicer().slice(request);
  if (sliced.degraded || sliced.footprint.empty()) return false;

  // Every footprint path must be a depth-1 field of one shared root local
  // ("s.closed"), so a single construction characterizes the whole
  // footprint.
  std::string root;
  for (const std::string& path : sliced.footprint) {
    const auto dot = path.find('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 == path.size()) return false;
    if (path.find('.', dot + 1) != std::string::npos) return false;
    const std::string path_root = path.substr(0, dot);
    if (root.empty())
      root = path_root;
    else if (root != path_root)
      return false;
  }

  // No write into the footprint anywhere in the cone other than fully
  // literal constructions — a field store or an unknown call effect abstains.
  for (const SliceWriteSite& site : sliced.footprint_writes)
    if (!site.literal_construction) return false;

  // At every target the root must be bound exclusively to literal
  // constructions. A reaching parameter or call-produced binding means the
  // object may arrive from a frame the construction facts do not cover.
  const std::vector<const analysis::StatementHeader*> targets = graph().targets(target_fragment);
  if (targets.empty()) return false;
  std::vector<std::pair<const Definition*, const FuncDecl*>> candidates;
  std::set<const Definition*> seen;
  for (const analysis::StatementHeader* target : targets) {
    const FuncDecl* fn = target->function;
    const FuncDepGraph& dep = slicer().depgraph_for(*fn);
    if (dep.degraded) return false;
    const int node = dep.cfg->node_of(target->stmt);
    if (node < 0) return false;
    bool any_binding = false;
    for (const std::size_t def_index : dep.reach_in[static_cast<std::size_t>(node)]) {
      const Definition& def = dep.defs[def_index];
      if (!def.may_write(root)) continue;
      if (def.kind != Definition::Kind::kLet && def.kind != Definition::Kind::kAssign)
        return false;
      if (def.stmt == nullptr) return false;
      const minilang::Expr* rhs = def.kind == Definition::Kind::kLet
                                      ? def.stmt->expr.get()
                                      : def.stmt->expr2.get();
      if (rhs == nullptr || !is_literal_new(*rhs)) return false;
      any_binding = true;
      if (seen.insert(&def).second) candidates.emplace_back(&def, fn);
    }
    if (!any_binding) return false;
  }

  // Each candidate construction's field facts must make ¬P unsatisfiable:
  // then any interleaving of constructions and reads satisfies the contract.
  // Field encoding mirrors facts_at (values plus "#null" indicators);
  // fields whose initializer or default the fragment cannot express (strings,
  // lists, maps) contribute no fact, which only weakens the refutation.
  smt::Solver solver;
  if (options.capture.active()) solver.set_capture(&smt_capture);
  const FormulaPtr not_p = Formula::negate(condition);
  for (const auto& [def, fn] : candidates) {
    const minilang::Expr* ctor =
        def->kind == Definition::Kind::kLet ? def->stmt->expr.get() : def->stmt->expr2.get();
    const minilang::StructDecl* decl = program_->find_struct(ctor->text);
    if (decl == nullptr) return false;
    std::vector<FormulaPtr> facts;
    facts.push_back(Formula::negate(Formula::make_atom(Atom::bool_var(root + "#null"))));
    for (const minilang::FieldDecl& field : decl->fields) {
      const std::string path = root + "." + field.name;
      const minilang::Expr* init = nullptr;
      for (std::size_t i = 0; i < ctor->field_names.size() && i < ctor->args.size(); ++i)
        if (ctor->field_names[i] == field.name) init = ctor->args[i].get();
      const FormulaPtr non_null =
          Formula::negate(Formula::make_atom(Atom::bool_var(path + "#null")));
      if (init != nullptr) {
        switch (init->kind) {
          case minilang::Expr::Kind::kIntLit:
            facts.push_back(
                Formula::make_atom(Atom::cmp_const(path, CmpOp::kEq, init->int_value)));
            facts.push_back(non_null);
            break;
          case minilang::Expr::Kind::kBoolLit: {
            FormulaPtr value = Formula::make_atom(Atom::bool_var(path));
            facts.push_back(init->bool_value ? std::move(value)
                                             : Formula::negate(std::move(value)));
            facts.push_back(non_null);
            break;
          }
          case minilang::Expr::Kind::kNullLit:
            facts.push_back(Formula::make_atom(Atom::bool_var(path + "#null")));
            break;
          default:
            break;
        }
      } else {
        // Omitted fields default per the interpreter (interp.cpp kNew).
        switch (field.type->kind) {
          case minilang::Type::Kind::kInt:
            facts.push_back(Formula::make_atom(Atom::cmp_const(path, CmpOp::kEq, 0)));
            facts.push_back(non_null);
            break;
          case minilang::Type::Kind::kBool:
            facts.push_back(
                Formula::negate(Formula::make_atom(Atom::bool_var(path))));
            facts.push_back(non_null);
            break;
          case minilang::Type::Kind::kStruct:
          case minilang::Type::Kind::kAny:
            facts.push_back(Formula::make_atom(Atom::bool_var(path + "#null")));
            break;
          default:
            break;
        }
      }
    }
    const smt::SolveResult closed =
        solver.solve(Formula::conj2(Formula::conj(std::move(facts)), not_p));
    // Unknown never counts: an unanswered query must not ground ProvedSafe.
    if (closed.sat() || closed.unknown()) return false;
  }

  if (options.capture.active()) {
    for (const auto& [def, fn] : candidates) {
      obs::FactEvidence evidence;
      evidence.analysis = "slice";
      evidence.function = fn->name;
      evidence.line = def->loc.line;
      evidence.column = def->loc.column;
      evidence.fact = "construction of '" + root +
                      "' satisfies the contract; the slice has no other write "
                      "to the footprint";
      options.capture.fact(std::move(evidence));
    }
  }
  return true;
}

ScreenResult Screener::screen_state_predicate(const std::string& target_fragment,
                                              const FormulaPtr& condition,
                                              const ScreenOptions& options) const {
  obs::ScopedSpan span("screen.state_predicate");
  span.attr("target", target_fragment);
  (void)summaries();  // a shared per-program cost, kept out of screen time
  const support::Stopwatch timer;
  ScreenResult result;
  if (condition == nullptr) {
    result.reason = "contract has no decidable condition";
    result.elapsed_ms = timer.elapsed_ms();
    return result;
  }

  const std::vector<const analysis::StatementHeader*> targets = graph().targets(target_fragment);
  result.targets = targets.size();
  if (targets.empty()) {
    result.reason = "no statement matches the target fragment";
    result.elapsed_ms = timer.elapsed_ms();
    return result;
  }

  // Dataflow facts per target statement, in target-local names (the same
  // vocabulary `condition` is written in).
  std::map<const Stmt*, FormulaPtr> target_facts;
  std::set<const FuncDecl*> target_fns;
  for (const analysis::StatementHeader* target : targets) {
    target_facts[target->stmt] = facts_at(*target->function, target->stmt, options.capture);
    if (target_fns.insert(target->function).second)
      record_summary_evidence(options.capture, summaries(), *target->function);
  }

  // Fact closure (summaries only): ¬P unsatisfiable under the facts at
  // every target statement. Strong enough to settle a contract even when
  // the guard-only tree cannot map some paths — the facts are a fixpoint
  // over *all* paths, so no execution can reach a target with ¬P true.
  // Without summaries the facts are too weak for this to fire soundly
  // (call-site havoc erases exactly the cross-function guarantees needed).
  obs::PhasedSmtCapture smt_capture(options.capture.ledger, options.capture.capture,
                                    "screen");
  const auto facts_refute_everywhere = [&]() -> bool {
    if (summaries() == nullptr) return false;
    smt::Solver closure_solver;
    if (options.capture.active()) closure_solver.set_capture(&smt_capture);
    const FormulaPtr not_p = Formula::negate(condition);
    for (const auto& [stmt, facts] : target_facts) {
      const smt::SolveResult closed = closure_solver.solve(Formula::conj2(facts, not_p));
      // An unknown result never counts as a refutation: claiming ProvedSafe
      // off a solver that refused to answer would silence real violations.
      if (closed.sat() || closed.unknown()) return false;
    }
    return true;
  };

  // The guard-only execution tree — deliberately the exact abstraction the
  // path checker decides, so "all paths verify" here implies the checker
  // reports zero violations.
  analysis::TreeOptions tree_options;
  tree_options.max_paths = options.max_paths;
  tree_options.prune_irrelevant = options.prune_irrelevant;
  tree_options.contract_condition = condition;
  const analysis::ExecutionTree& tree = result.tree.emplace(
      analysis::build_execution_tree(*program_, graph(), target_fragment, tree_options));
  result.paths_checked = tree.paths.size();

  if (tree.truncated) {
    result.reason = "path enumeration truncated at " + std::to_string(options.max_paths);
    result.elapsed_ms = timer.elapsed_ms();
    return result;
  }
  if (tree.paths.empty()) {
    if (facts_refute_everywhere()) {
      result.verdict = ScreenVerdict::kProvedSafe;
      result.reason = "dataflow facts refute the contract's complement at every target";
    } else if (slice_closure_refutes(target_fragment, condition, options, smt_capture)) {
      result.verdict = ScreenVerdict::kProvedSafe;
      result.reason =
          "slice: no write reaches the contract footprint and every "
          "construction satisfies the predicate";
    } else {
      result.reason = "no entry->target path to screen";
    }
    result.elapsed_ms = timer.elapsed_ms();
    return result;
  }

  smt::Solver solver;
  if (options.capture.active()) solver.set_capture(&smt_capture);
  const FormulaPtr not_condition = Formula::negate(condition);
  bool any_unmappable = false;
  bool any_facts_refuted = false;
  bool any_unknown = false;
  for (const analysis::ExecutionPath& path : tree.paths) {
    if (!path.mappable) {
      any_unmappable = true;
      continue;
    }
    const smt::SolveResult sat = solver.solve(
        Formula::conj2(path.condition, Formula::negate(path.renamed_contract)));
    if (sat.unknown()) {
      any_unknown = true;
      continue;
    }
    if (!sat.sat()) continue;  // path verifies

    // The guard-only condition misses assignment effects; require the
    // dataflow facts at the target to be consistent with ¬P before trusting
    // the violation. Refuted witnesses fall back to Unknown (full check).
    const auto facts = target_facts.find(path.target);
    const FormulaPtr fact_formula =
        facts == target_facts.end() ? Formula::truth(true) : facts->second;
    const smt::SolveResult confirmed =
        solver.solve(Formula::conj2(fact_formula, not_condition));
    if (confirmed.unknown()) {
      any_unknown = true;
      continue;
    }
    if (!confirmed.sat()) {
      any_facts_refuted = true;
      continue;
    }

    result.verdict = ScreenVerdict::kProvedViolated;
    result.witness = support::join(path.call_chain, " -> ") + " | " + sat.model.to_string();
    result.reason = "path condition admits the contract's complement";
    result.elapsed_ms = timer.elapsed_ms();
    return result;
  }

  if (any_unknown) {
    // A refused query means some path was never decided; any ProvedSafe
    // claim from here would rest on the undecided remainder.
    result.reason = "solver inconclusive on some path (budget or fault)";
    result.elapsed_ms = timer.elapsed_ms();
    return result;
  }

  if (any_unmappable) {
    // Every mappable path verified; only unmappable ones stand between us
    // and ProvedSafe. A facts-refuted mappable path would signal that the
    // guard-only tree and the facts disagree — leave those to the checker.
    if (!any_facts_refuted && facts_refute_everywhere()) {
      result.verdict = ScreenVerdict::kProvedSafe;
      result.reason =
          "unmappable paths closed: dataflow facts refute the contract's "
          "complement at every target";
    } else if (!any_facts_refuted &&
               slice_closure_refutes(target_fragment, condition, options, smt_capture)) {
      result.verdict = ScreenVerdict::kProvedSafe;
      result.reason =
          "unmappable paths closed: slice shows no write reaches the "
          "contract footprint and every construction satisfies the predicate";
    } else {
      result.reason = "contract variables unmappable on some path";
    }
  } else if (any_facts_refuted) {
    result.reason = "violating paths refuted by dataflow facts";
  } else {
    result.verdict = ScreenVerdict::kProvedSafe;
    result.reason = "every entry->target path verifies";
  }
  result.elapsed_ms = timer.elapsed_ms();
  return result;
}

ScreenResult Screener::screen_structural() const {
  return screen_structural(ScreenOptions{});
}

ScreenResult Screener::screen_structural(const ScreenOptions& options) const {
  obs::ScopedSpan span("screen.structural");
  (void)summaries();  // a shared per-program cost, kept out of screen time
  const support::Stopwatch timer;
  ScreenResult result;
  for (const FuncDecl& fn : program_->functions) {
    const Cfg& cfg = graph().cfg(fn);
    LockStateAnalysis locks(*program_, graph(), summaries());
    const auto fixpoint = run_forward(cfg, locks);
    locks.report(cfg, fixpoint.in, fixpoint.reached, result.diagnostics);
  }
  if (options.capture.active()) {
    for (const Diagnostic& diagnostic : result.diagnostics) {
      obs::FactEvidence evidence;
      evidence.analysis = diagnostic.analysis;
      evidence.function = diagnostic.function;
      evidence.line = diagnostic.loc.line;
      evidence.column = diagnostic.loc.column;
      evidence.fact = diagnostic.message;
      options.capture.fact(std::move(evidence));
    }
  }
  if (result.diagnostics.empty()) {
    result.verdict = ScreenVerdict::kProvedSafe;
    result.reason = "no blocking call reachable while a monitor is held";
  } else {
    result.verdict = ScreenVerdict::kProvedViolated;
    result.witness = result.diagnostics.front().render();
    result.reason = std::to_string(result.diagnostics.size()) +
                    " blocking call(s) reachable while a monitor is held";
  }
  result.elapsed_ms = timer.elapsed_ms();
  return result;
}

ScreenResult Screener::screen_interleaving(const std::string& pattern,
                                           const std::string& target_fragment,
                                           const std::string& condition_text,
                                           const ScreenOptions& options) const {
  obs::ScopedSpan span("screen.interleaving");
  span.attr("pattern", pattern);
  (void)lock_graph();  // a shared per-program cost, kept out of screen time
  const support::Stopwatch timer;
  ScreenResult result;
  if (summaries() == nullptr) {
    result.reason = "interprocedural summaries unavailable";
    result.elapsed_ms = timer.elapsed_ms();
    return result;
  }

  const LockGraph& lock_graph = *this->lock_graph();
  const auto record = [&](const char* analysis, std::string function, int line,
                          int column, std::string fact) {
    if (!options.capture.active()) return;
    obs::FactEvidence evidence;
    evidence.analysis = analysis;
    evidence.function = std::move(function);
    evidence.line = line;
    evidence.column = column;
    evidence.fact = std::move(fact);
    options.capture.fact(std::move(evidence));
  };
  for (const LockOrderEdge& edge : lock_graph.edges)
    record("lock-graph", edge.function, edge.line, edge.column,
           "'" + edge.first + "' -> '" + edge.second + "'" +
               (edge.via.empty() ? "" : " (via " + edge.via + ")"));

  if (pattern == "lock_order_acyclic") {
    if (!lock_graph.cycles.empty()) {
      result.verdict = ScreenVerdict::kProvedViolated;
      result.witness = lock_graph.cycles.front().render();
      result.reason = std::to_string(lock_graph.cycles.size()) +
                      " lock-order cycle(s) in the acquisition graph";
      result.diagnostics = deadlock_diagnostics(lock_graph);
    } else if (lock_graph.degraded) {
      result.reason = "a summary degraded to conservative: edge set incomplete";
    } else {
      result.verdict = ScreenVerdict::kProvedSafe;
      result.reason = "lock-acquisition-order graph is acyclic over " +
                      std::to_string(lock_graph.edges.size()) + " edge(s)";
    }
    result.elapsed_ms = timer.elapsed_ms();
    return result;
  }

  if (pattern == "guarded_field") {
    const std::string guard = guard_monitor(condition_text);
    if (guard.empty()) {
      result.reason = "guarded_field contract names no monitor";
      result.elapsed_ms = timer.elapsed_ms();
      return result;
    }

    const auto fields = shared_field_accesses(*program_, graph(), *summaries());
    const auto found = fields.find(target_fragment);
    if (found == fields.end() || found->second.sites.empty()) {
      result.reason = "no root-reachable access of field '" + target_fragment + "'";
      result.elapsed_ms = timer.elapsed_ms();
      return result;
    }
    const FieldAccesses& accesses = found->second;
    result.targets = accesses.sites.size();
    for (const auto& [root, site] : accesses.sites) {
      record("lockset", site.function, site.line, site.column,
             std::string(site.is_write ? "write" : "read") + " of '" + target_fragment +
                 "' holds {" + support::join(site.lockset, ", ") + "} (root " + root + ")");
    }
    // A concretely uncovered site refutes the contract even when the site
    // set is otherwise incomplete — the witness access is real.
    for (const auto& [root, site] : accesses.sites) {
      if (lockset_covers(site.lockset, guard)) continue;
      result.verdict = ScreenVerdict::kProvedViolated;
      result.witness = site.function + ":" + std::to_string(site.line) + ":" +
                       std::to_string(site.column) + " " +
                       (site.is_write ? "writes" : "reads") + " '" +
                       target_fragment + "' without '" + guard +
                       "' (thread root " + root + ")";
      result.reason = "an access site does not hold the guard monitor";
      Diagnostic diagnostic;
      diagnostic.analysis = "race";
      diagnostic.severity = Severity::kError;
      diagnostic.function = site.function;
      diagnostic.loc = {site.line, site.column};
      diagnostic.message = std::string(site.is_write ? "write" : "read") +
                           " of field '" + target_fragment + "' without monitor '" +
                           guard + "' held (thread root " + root + ")";
      result.diagnostics.push_back(std::move(diagnostic));
      result.elapsed_ms = timer.elapsed_ms();
      return result;
    }
    if (accesses.truncated) {
      result.reason = "field access summary truncated: coverage unprovable";
    } else if (!lock_graph.acyclic()) {
      result.reason =
          "every access holds the guard but the lock graph is not provably "
          "acyclic";
    } else {
      result.verdict = ScreenVerdict::kProvedSafe;
      result.reason = "every root-reachable access of '" + target_fragment +
                      "' holds '" + guard + "' and the lock graph is acyclic";
    }
    result.elapsed_ms = timer.elapsed_ms();
    return result;
  }

  result.reason = "unknown interleaving pattern '" + pattern + "'";
  result.elapsed_ms = timer.elapsed_ms();
  return result;
}

}  // namespace lisa::staticcheck
