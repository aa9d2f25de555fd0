#include "staticcheck/summaries.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "minilang/builtins.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "smt/minilang_bridge.hpp"
#include "staticcheck/concurrency.hpp"
#include "staticcheck/dataflow.hpp"
#include "support/faultpoint.hpp"
#include "support/stopwatch.hpp"

namespace lisa::staticcheck {

using minilang::BinOp;
using minilang::Expr;
using minilang::FuncDecl;
using minilang::HeapEffect;
using minilang::Program;
using minilang::Stmt;
using minilang::StmtPtr;

namespace {

/// Hull bottom: the identity element, grown by every return site.
constexpr Interval bottom_interval() { return Interval{Interval::kMax, Interval::kMin}; }

std::string path_root(const std::string& path) {
  const std::size_t dot = path.find('.');
  return dot == std::string::npos ? path : path.substr(0, dot);
}

/// Joins two nullability verdicts: agreement survives, conflict is unknown.
FunctionSummary::Nullability join_nullability(FunctionSummary::Nullability a,
                                              FunctionSummary::Nullability b) {
  return a == b ? a : FunctionSummary::Nullability::kUnknown;
}

/// Nullability of an expression under a nullness state — the shared
/// classifier for return values and call-site arguments.
FunctionSummary::Nullability classify_nullness(const Expr& expr,
                                               const NullnessAnalysis::State& state,
                                               const SummaryMap& map) {
  switch (expr.kind) {
    case Expr::Kind::kNullLit:
      return FunctionSummary::Nullability::kNull;
    case Expr::Kind::kNew:
      return FunctionSummary::Nullability::kNonNull;
    case Expr::Kind::kCall: {
      const FunctionSummary* callee = map.find(expr.callee);
      return callee == nullptr ? FunctionSummary::Nullability::kUnknown
                               : callee->return_nullness;
    }
    default: {
      const std::string path = smt::access_path(expr);
      if (path.empty()) return FunctionSummary::Nullability::kUnknown;
      const auto fact = state.find(path);
      if (fact == state.end()) return FunctionSummary::Nullability::kUnknown;
      return fact->second == NullFact::kNonNull ? FunctionSummary::Nullability::kNonNull
                                                : FunctionSummary::Nullability::kNull;
    }
  }
}

/// True when the phase-A (bottom-up) fields of two summaries agree.
bool phase_a_equal(const FunctionSummary& a, const FunctionSummary& b) {
  return a.mod_fields == b.mod_fields && a.ref_fields == b.ref_fields &&
         a.mod_params == b.mod_params && a.opaque_effects == b.opaque_effects &&
         a.may_throw == b.may_throw && a.may_block == b.may_block &&
         a.net_monitor_normal == b.net_monitor_normal &&
         a.net_monitor_throw == b.net_monitor_throw &&
         a.return_nullness == b.return_nullness &&
         a.nullness_on_return == b.nullness_on_return &&
         a.return_interval == b.return_interval &&
         a.acquired_locks == b.acquired_locks &&
         a.lock_order_edges == b.lock_order_edges &&
         a.field_locks == b.field_locks &&
         a.concurrency_degraded == b.concurrency_degraded;
}

/// Classic interval widening against the previous iterate: a bound that is
/// still moving jumps straight to infinity, capping the ascending chain.
Interval widened(const Interval& previous, Interval next) {
  if (previous.empty() || next.empty()) return next;
  if (next.lo < previous.lo) next.lo = Interval::kMin;
  if (next.hi > previous.hi) next.hi = Interval::kMax;
  return next;
}

/// The syntactic effect walk of one summarization pass: MOD/REF,
/// mod_params, may_throw and the params the function rebinds, over every
/// statement of the body (dead ones after a return included), tracking
/// how many `try` bodies enclose each.
class EffectWalk {
 public:
  EffectWalk(const FuncDecl& fn, const SummaryMap& map, FunctionSummary& s)
      : fn_(fn), map_(map), s_(s) {}

  /// Params the function rebinds locally (let, assignment, catch variable).
  std::set<std::string> rebound;

  [[nodiscard]] int param_index(const std::string& name) const {
    for (std::size_t i = 0; i < fn_.params.size(); ++i)
      if (fn_.params[i].name == name) return static_cast<int>(i);
    return -1;
  }

  void stmts(const std::vector<StmtPtr>& body, int try_depth) {
    for (const StmtPtr& stmt : body) {
      switch (stmt->kind) {
        case Stmt::Kind::kThrow:
          if (try_depth == 0) s_.may_throw = true;
          break;
        case Stmt::Kind::kLet:
          if (param_index(stmt->name) >= 0) rebound.insert(stmt->name);
          break;
        case Stmt::Kind::kAssign:
          assignment(*stmt->expr);
          break;
        default:
          break;
      }
      if (stmt->expr) expr(*stmt->expr, try_depth);
      if (stmt->expr2) expr(*stmt->expr2, try_depth);
      if (stmt->kind == Stmt::Kind::kTry) {
        stmts(stmt->body, try_depth + 1);
        stmts(stmt->else_body, try_depth);  // handler is unprotected
        if (param_index(stmt->catch_var) >= 0) rebound.insert(stmt->catch_var);
      } else {
        stmts(stmt->body, try_depth);
        stmts(stmt->else_body, try_depth);
      }
    }
  }

 private:
  void assignment(const Expr& lvalue) {
    const std::string path = smt::access_path(lvalue);
    if (!path.empty()) {
      const std::size_t dot = path.rfind('.');
      if (dot != std::string::npos) {
        s_.mod_fields.insert(path.substr(dot + 1));
        write_through(path);
      } else if (param_index(path) >= 0) {
        rebound.insert(path);
      }
    } else if (lvalue.kind == Expr::Kind::kIndex) {
      const std::string base = smt::access_path(*lvalue.args[0]);
      if (!base.empty()) {
        const std::size_t dot = base.rfind('.');
        if (dot != std::string::npos) s_.mod_fields.insert(base.substr(dot + 1));
        write_through(base);
      } else {
        s_.opaque_effects = true;  // write through an unmodeled lvalue
      }
    } else {
      s_.opaque_effects = true;
    }
  }

  /// A write through `path` writes through the param at its root, if any.
  void write_through(const std::string& path) {
    const int pi = param_index(path_root(path));
    if (pi >= 0) s_.mod_params.insert(static_cast<std::size_t>(pi));
  }

  void expr(const Expr& e, int try_depth) {
    switch (e.kind) {
      case Expr::Kind::kField:
        s_.ref_fields.insert(e.text);
        break;
      case Expr::Kind::kBinary:
        if ((e.bin_op == BinOp::kDiv || e.bin_op == BinOp::kMod) && try_depth == 0)
          s_.may_throw = true;  // division by zero raises
        break;
      case Expr::Kind::kCall:
        call(e, try_depth);
        break;
      default:
        break;
    }
    for (const auto& arg : e.args)
      if (arg) expr(*arg, try_depth);
  }

  void call(const Expr& call, int try_depth) {
    if (const FunctionSummary* cs = map_.find(call.callee)) {
      s_.mod_fields.insert(cs->mod_fields.begin(), cs->mod_fields.end());
      s_.ref_fields.insert(cs->ref_fields.begin(), cs->ref_fields.end());
      if (cs->opaque_effects) s_.opaque_effects = true;
      if (cs->may_throw && try_depth == 0) s_.may_throw = true;
      // A param forwarded into a slot the callee writes through is itself
      // written through.
      for (const std::size_t i : cs->mod_params) {
        if (i >= call.args.size()) break;
        const std::string path = smt::access_path(*call.args[i]);
        if (!path.empty()) write_through(path);
      }
      return;
    }
    // Builtins: the table row states the heap effect. An unknown name (sema
    // normally rejects these) is fully conservative, like an opaque row.
    const minilang::Builtin* builtin = minilang::find_builtin(call.text);
    const HeapEffect effect = builtin != nullptr ? builtin->effect : HeapEffect::kOpaque;
    if (effect == HeapEffect::kMutatesArgs) {
      // Container mutators store or write through their arguments; params
      // flowing in escape. They cannot write struct *fields*, so field facts
      // survive the call.
      for (const auto& arg : call.args) {
        if (!arg) continue;
        const std::string path = smt::access_path(*arg);
        if (!path.empty()) write_through(path);
      }
    }
    if (effect == HeapEffect::kOpaque) s_.opaque_effects = true;
    if ((builtin == nullptr || builtin->may_throw) && try_depth == 0) s_.may_throw = true;
  }

  const FuncDecl& fn_;
  const SummaryMap& map_;
  FunctionSummary& s_;
};

/// One bottom-up summarization pass over `fn`, reading callee summaries
/// (and same-SCC iterates) from `map`.
FunctionSummary summarize(const Program& program, const analysis::CallGraph& graph,
                          const SummaryMap& map, const FuncDecl& fn) {
  const Cfg& cfg = graph.cfg(fn);
  FunctionSummary s;
  s.return_interval = bottom_interval();

  // --- syntactic effect walk (MOD/REF, mod_params, may_throw, rebinds) ---
  EffectWalk effects(fn, map, s);
  effects.stmts(fn.body, 0);
  const std::set<std::string>& rebound = effects.rebound;

  // --- may-block: a blocking call on some CFG-reachable node. More precise
  // than the syntactic reaches_blocking (dead code does not count). ---
  if (fn.has_annotation("blocking")) s.may_block = true;
  if (!s.may_block) {
    std::vector<char> seen(cfg.nodes().size(), 0);
    std::vector<int> queue{cfg.entry()};  // breadth-first: read from `next`
    seen[static_cast<std::size_t>(cfg.entry())] = 1;
    for (std::size_t next = 0; next < queue.size() && !s.may_block; ++next) {
      const CfgNode& node = cfg.node(queue[next]);
      for (const Expr* call : node.calls) {
        const FunctionSummary* cs = map.find(call->callee);
        if (minilang::is_blocking_builtin(call->text) ||
            (call->callee != nullptr && call->callee->has_annotation("blocking")) ||
            (cs != nullptr && cs->may_block))
          s.may_block = true;
      }
      for (const CfgEdge& edge : node.succs) {
        if (seen[static_cast<std::size_t>(edge.to)] != 0) continue;
        seen[static_cast<std::size_t>(edge.to)] = 1;
        queue.push_back(edge.to);
      }
    }
  }

  // --- net monitor effect at the function boundary, split by how control
  // leaves (normal return vs throw unwind). Block-structured sync should
  // make both zero; the fixpoint proves it rather than assuming it. ---
  {
    LockStateAnalysis locks(program, graph, &map);
    const auto result = run_forward(cfg, locks);
    const CfgNode& exit_node = cfg.node(cfg.exit());
    for (const int p : exit_node.preds) {
      if (!result.reached[static_cast<std::size_t>(p)]) continue;
      const CfgNode& pred = cfg.node(p);
      LockStateAnalysis::State post = result.in[static_cast<std::size_t>(p)];
      locks.transfer(pred, post);
      const bool is_throw = pred.stmt != nullptr && pred.stmt->kind == Stmt::Kind::kThrow;
      for (const CfgEdge& edge : pred.succs) {
        if (edge.to != cfg.exit()) continue;
        LockStateAnalysis::State flowed = post;
        locks.edge_effect(edge, flowed);
        int& net = is_throw ? s.net_monitor_throw : s.net_monitor_normal;
        net = std::max(net, flowed.depth);
      }
    }
  }

  // --- concurrency: must-held locksets per statement, acquisition
  // orderings, and shared-field access sites (concurrency.cpp). ---
  summarize_concurrency(program, graph, map, fn, &s);

  // --- nullness: return nullability plus param-rooted facts holding on
  // every normal return. ---
  {
    NullnessAnalysis nullness(program, &map);
    const auto result = run_forward(cfg, nullness);

    FunctionSummary::Nullability returns = FunctionSummary::Nullability::kUnknown;
    bool first_return = true;
    for (const CfgNode& node : cfg.nodes()) {
      if (node.stmt == nullptr || node.stmt->kind != Stmt::Kind::kReturn) continue;
      if (!result.reached[static_cast<std::size_t>(node.id)]) continue;
      if (!node.stmt->expr) continue;
      const FunctionSummary::Nullability at_site = classify_nullness(
          *node.stmt->expr, result.in[static_cast<std::size_t>(node.id)], map);
      returns = first_return ? at_site : join_nullability(returns, at_site);
      first_return = false;
    }
    if (!first_return) s.return_nullness = returns;

    // Meet over every normal-exit predecessor (throw unwinds excluded).
    NullnessAnalysis::State exit_meet;
    bool first_exit = true;
    const CfgNode& exit_node = cfg.node(cfg.exit());
    for (const int p : exit_node.preds) {
      if (!result.reached[static_cast<std::size_t>(p)]) continue;
      const CfgNode& pred = cfg.node(p);
      if (pred.stmt != nullptr && pred.stmt->kind == Stmt::Kind::kThrow) continue;
      NullnessAnalysis::State post = result.in[static_cast<std::size_t>(p)];
      nullness.transfer(pred, post);
      if (first_exit) {
        exit_meet = std::move(post);
        first_exit = false;
      } else {
        nullness.join(exit_meet, post);
      }
    }
    if (!first_exit)
      for (const auto& [path, fact] : exit_meet) {
        const std::string root = path_root(path);
        if (effects.param_index(root) < 0 || rebound.count(root) > 0) continue;
        s.nullness_on_return.emplace(path, fact);
      }
  }

  // --- return-value interval: hull over every reachable return site. ---
  {
    IntervalAnalysis intervals(program, &map);
    const auto result = run_forward(cfg, intervals);
    for (const CfgNode& node : cfg.nodes()) {
      if (node.stmt == nullptr || node.stmt->kind != Stmt::Kind::kReturn) continue;
      if (!result.reached[static_cast<std::size_t>(node.id)]) continue;
      if (!node.stmt->expr) continue;
      const Interval at_site =
          intervals.eval(*node.stmt->expr, result.in[static_cast<std::size_t>(node.id)]);
      s.return_interval.lo = std::min(s.return_interval.lo, at_site.lo);
      s.return_interval.hi = std::max(s.return_interval.hi, at_site.hi);
    }
  }

  return s;
}

}  // namespace

const FunctionSummary* SummaryMap::find(const std::string& name) const {
  return program_ == nullptr ? nullptr : find(program_->find_function(name));
}

const FunctionSummary* SummaryMap::find(const FuncDecl* fn) const {
  if (fn == nullptr || program_ == nullptr) return nullptr;
  const std::size_t at = position(*fn);
  return summarized_[at] != 0 ? &summaries_[at] : nullptr;
}

CallEffect SummaryMap::effect_of(const std::string& callee) const {
  return effect(program_ == nullptr ? nullptr : program_->find_function(callee), callee);
}

CallEffect SummaryMap::effect_of(const Expr& call) const { return effect(call.callee, call.text); }

CallEffect SummaryMap::effect(const FuncDecl* callee, std::string_view name) const {
  if (const FunctionSummary* summary = find(callee)) {
    if (summary->opaque_effects) return CallEffect{.havoc_all = true};
    CallEffect effect;
    effect.mod_fields = &summary->mod_fields;
    effect.mod_params = &summary->mod_params;
    return effect;
  }
  const minilang::Builtin* builtin = minilang::find_builtin(name);
  if (builtin == nullptr || builtin->effect == HeapEffect::kOpaque)
    return CallEffect{.havoc_all = true};
  if (builtin->effect == HeapEffect::kMutatesArgs) return CallEffect{.writes_all_params = true};
  return CallEffect{};
}

SummaryMap SummaryMap::compute(const Program& program, const analysis::CallGraph& graph) {
  obs::ScopedSpan span("summaries.compute");
  if (support::faultpoint("summaries.fixpoint") != support::FaultAction::kNone)
    throw std::runtime_error("injected fault at summaries.fixpoint");
  const support::Stopwatch timer;
  SummaryMap map;
  map.program_ = &program;
  const std::size_t n = program.functions.size();
  map.summaries_.resize(n);
  map.summarized_.assign(n, 0);
  map.slot_.resize(n);
  for (std::size_t i = 0; i < n; ++i) map.slot_[i] = graph.function_index(program.functions[i]);
  const analysis::Condensation& condensation = graph.condensation();
  map.stats_.components = static_cast<int>(condensation.size());

  // ----- Phase A: bottom-up effects and transfer facts, callees first. -----
  constexpr int kWidenRound = 3;  // start widening return intervals here
  constexpr int kMaxRounds = 16;  // divergence safety net
  for (const auto& component : condensation.components) {
    for (const FuncDecl* fn : component.members) {
      map.summaries_[map.position(*fn)].return_interval = bottom_interval();
      map.summarized_[map.position(*fn)] = 1;
    }
    if (component.recursive) ++map.stats_.recursive_components;

    for (int round = 0;; ++round) {
      bool changed = false;
      for (const FuncDecl* fn : component.members) {
        FunctionSummary next = summarize(program, graph, map, *fn);
        FunctionSummary& current = map.summaries_[map.position(*fn)];
        if (round >= kWidenRound)
          next.return_interval = widened(current.return_interval, next.return_interval);
        if (!phase_a_equal(current, next)) {
          current = std::move(next);
          changed = true;
        }
      }
      if (!component.recursive || !changed) break;
      ++map.stats_.fixpoint_iterations;
      if (round >= kMaxRounds) {
        // Should be unreachable (widening caps the interval chain; every
        // other lattice is finite). Degrade to fully conservative.
        for (const FuncDecl* fn : component.members) {
          FunctionSummary& summary = map.summaries_[map.position(*fn)];
          summary.opaque_effects = true;
          summary.may_throw = true;
          summary.may_block = true;
          summary.return_nullness = FunctionSummary::Nullability::kUnknown;
          summary.nullness_on_return.clear();
          summary.return_interval = Interval{};
          // The concurrency sets are incomplete from here on; flag them so
          // no consumer proves acyclicity or guard coverage from them.
          summary.acquired_locks.clear();
          summary.lock_order_edges.clear();
          summary.field_locks.clear();
          summary.concurrency_degraded = true;
        }
        break;
      }
    }
    // A function with no normal return keeps the hull identity; finalize to
    // top so callers never see an empty interval.
    for (const FuncDecl* fn : component.members) {
      FunctionSummary& summary = map.summaries_[map.position(*fn)];
      if (summary.return_interval.empty()) summary.return_interval = Interval{};
    }
  }

  // ----- Phase B: top-down boundary facts, callers first. -----
  std::vector<char> is_entry(n, 0);
  for (const FuncDecl* fn : graph.entry_functions()) is_entry[graph.function_index(*fn)] = 1;

  struct CallerStates {
    DataflowResult<NullnessAnalysis> nullness;
    DataflowResult<IntervalAnalysis> intervals;
  };
  std::vector<std::optional<CallerStates>> cache(n);  // by the caller's position
  const auto caller_states = [&](const FuncDecl& caller) -> const CallerStates& {
    std::optional<CallerStates>& states =
        cache[static_cast<std::size_t>(&caller - program.functions.data())];
    if (!states.has_value()) {
      NullnessAnalysis nullness(program, &map);
      IntervalAnalysis intervals(program, &map);
      states = CallerStates{run_forward(graph.cfg(caller), nullness),
                            run_forward(graph.cfg(caller), intervals)};
    }
    return *states;
  };

  for (auto component = condensation.components.rbegin();
       component != condensation.components.rend(); ++component) {
    for (const FuncDecl* fn : component->members) {
      if (fn->has_annotation("test")) continue;
      // Entries are API surface: callable from outside with anything.
      if (is_entry[map.position(*fn)] != 0) continue;
      const std::vector<analysis::CallSite>& sites = graph.sites_calling(fn->name);
      if (sites.empty()) continue;
      // Within a cycle the argument join would depend on itself; stay top.
      const int own_component = condensation.component_index(*fn);
      bool cyclic = false;
      for (const analysis::CallSite& site : sites)
        if (condensation.component_index(*site.caller) == own_component) cyclic = true;
      if (cyclic) continue;

      std::map<std::string, FunctionSummary::Nullability> null_join;
      std::map<std::string, Interval> interval_join;
      bool first_site = true;
      bool top_everything = false;
      const IntervalAnalysis interval_eval(program, &map);
      for (const analysis::CallSite& site : sites) {
        if (site.call->args.size() != fn->params.size()) {
          top_everything = true;  // arity mismatch: sema rejects, stay safe
          break;
        }
        const CallerStates& states = caller_states(*site.caller);
        const int node = graph.cfg(*site.caller).node_of(site.stmt);
        // A statically unreachable call site contributes no executions.
        if (node < 0) {
          top_everything = true;
          break;
        }
        if (!states.nullness.reached[static_cast<std::size_t>(node)]) continue;
        const auto& null_state = states.nullness.in[static_cast<std::size_t>(node)];
        const auto& interval_state = states.intervals.in[static_cast<std::size_t>(node)];
        for (std::size_t i = 0; i < fn->params.size(); ++i) {
          const Expr& arg = *site.call->args[i];
          const std::string& param = fn->params[i].name;
          const FunctionSummary::Nullability arg_null =
              classify_nullness(arg, null_state, map);
          const Interval arg_interval = interval_eval.eval(arg, interval_state);
          if (first_site) {
            null_join[param] = arg_null;
            interval_join[param] = arg_interval;
          } else {
            null_join[param] = join_nullability(null_join[param], arg_null);
            Interval& hull = interval_join[param];
            hull.lo = std::min(hull.lo, arg_interval.lo);
            hull.hi = std::max(hull.hi, arg_interval.hi);
          }
        }
        first_site = false;
      }
      if (top_everything || first_site) continue;
      FunctionSummary& summary = map.summaries_[map.position(*fn)];
      for (const auto& [param, nullability] : null_join) {
        if (nullability == FunctionSummary::Nullability::kNonNull)
          summary.boundary_nullness[param] = NullFact::kNonNull;
        else if (nullability == FunctionSummary::Nullability::kNull)
          summary.boundary_nullness[param] = NullFact::kNull;
      }
      for (const auto& [param, interval] : interval_join)
        if (!interval.unbounded() && !interval.empty())
          summary.boundary_intervals[param] = interval;
    }
  }

  map.stats_.elapsed_ms = timer.elapsed_ms();
  obs::metrics().histogram("summaries.ms").record(map.stats_.elapsed_ms);
  span.attr("components", map.stats_.components);
  span.attr("recursive_components", map.stats_.recursive_components);
  span.attr("fixpoint_iterations", map.stats_.fixpoint_iterations);
  return map;
}

}  // namespace lisa::staticcheck
