#include "staticcheck/analyses.hpp"

#include <algorithm>
#include <optional>
#include <tuple>

#include "minilang/builtins.hpp"
#include "minilang/printer.hpp"
#include "smt/minilang_bridge.hpp"
#include "staticcheck/concurrency.hpp"
#include "staticcheck/dataflow.hpp"
#include "staticcheck/depgraph.hpp"
#include "staticcheck/summaries.hpp"

namespace lisa::staticcheck {

using minilang::BinOp;
using minilang::Expr;
using minilang::FuncDecl;
using minilang::Program;
using minilang::Stmt;
using minilang::StructDecl;
using minilang::Type;
using minilang::UnOp;
using smt::access_path;

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

namespace {

/// Walks every sub-expression of `expr`, including `expr` itself.
void walk_expr(const Expr& expr, const std::function<void(const Expr&)>& visit) {
  visit(expr);
  for (const auto& arg : expr.args)
    if (arg) walk_expr(*arg, visit);
}

/// Visits every statement-level expression of a node's statement.
void node_exprs(const CfgNode& node, const std::function<void(const Expr&)>& visit) {
  if (node.stmt == nullptr) return;
  if (node.stmt->expr) visit(*node.stmt->expr);
  if (node.stmt->expr2) visit(*node.stmt->expr2);
}

/// Legacy conservative call rule: drop every dotted (heap) fact.
template <typename State>
void kill_all_heap_facts(State& state) {
  state.erase_if([](const auto& fact) { return fact.first.find('.') != std::string::npos; });
}

/// One call's MOD rule: a havoc drops every heap fact; otherwise the facts
/// that mention a field the callee may write die.
template <typename State>
void kill_call_facts(const CallEffect& effect, State& state) {
  if (effect.havoc_all) {
    kill_all_heap_facts(state);
    return;
  }
  if (effect.mod_fields == nullptr || effect.mod_fields->empty()) return;
  state.erase_if([&](const auto& fact) {
    for (const std::string& field : *effect.mod_fields)
      if (mentions_field(fact.first, field)) return true;
    return false;
  });
}

/// Nullable-pointer-ish types: struct references and `any` can be null.
bool null_trackable(const Type* type) {
  if (type == nullptr) return false;
  return type->kind == Type::Kind::kStruct || type->kind == Type::Kind::kAny;
}

}  // namespace

bool mentions_field(std::string_view path, std::string_view field) {
  std::size_t dot = path.find('.');
  while (dot != std::string_view::npos) {
    const std::size_t start = dot + 1;
    std::size_t end = path.find('.', start);
    if (end == std::string_view::npos) end = path.size();
    if (path.substr(start, end - start) == field) return true;
    dot = path.find('.', start);
  }
  return false;
}

bool write_kills(const std::string& written, const std::string& fact_path) {
  if (fact_path == written) return true;
  // Rebinding a variable or path invalidates everything reached through it.
  if (fact_path.size() > written.size() && fact_path.compare(0, written.size(), written) == 0 &&
      fact_path[written.size()] == '.')
    return true;
  // Field write `a.f = ...`: conservatively kill any fact mentioning a field
  // named `f` — another path may alias the same object.
  const std::size_t dot = written.rfind('.');
  if (dot != std::string::npos)
    return mentions_field(fact_path, std::string_view(written).substr(dot + 1));
  return false;
}

void for_each_node_expr(const CfgNode& node, const std::function<void(const Expr&)>& visit) {
  node_exprs(node, visit);
}

// ---------------------------------------------------------------------------
// Nullness
// ---------------------------------------------------------------------------

NullnessAnalysis::State NullnessAnalysis::boundary(const Cfg& cfg) const {
  State state;
  // Non-nullable reference parameters cannot legally be null on entry.
  for (const auto& param : cfg.function().params)
    if (null_trackable(param.type.get()) && !param.type->nullable)
      state[param.name] = NullFact::kNonNull;
  // Interprocedural boundary facts: what every call site actually passes.
  if (summaries_ != nullptr) {
    const FunctionSummary* summary = summaries_->find(cfg.function().name);
    if (summary != nullptr)
      for (const auto& [path, fact] : summary->boundary_nullness) state.emplace(path, fact);
  }
  return state;
}

bool NullnessAnalysis::join(State& into, const State& from) const {
  // Meet of partial maps: keep only facts both sides agree on. Both states
  // are sorted by path, so one merge walk finds each fact's counterpart.
  auto other = from.begin();
  return into.erase_if([&](const State::value_type& fact) {
           while (other != from.end() && other->first < fact.first) ++other;
           return other == from.end() || other->first != fact.first ||
                  other->second != fact.second;
         }) > 0;
}

void NullnessAnalysis::assign(const std::string& written, const Expr* rhs, State& state) const {
  state.erase_if([&](const State::value_type& fact) { return write_kills(written, fact.first); });
  if (rhs == nullptr) return;
  switch (rhs->kind) {
    case Expr::Kind::kNullLit:
      state[written] = NullFact::kNull;
      break;
    case Expr::Kind::kNew: {
      state[written] = NullFact::kNonNull;
      // Omitted struct-typed fields default to null (interp `new` semantics).
      const StructDecl* decl = rhs->struct_decl;
      if (decl == nullptr) break;
      for (const auto& field : decl->fields) {
        const auto given = std::find(rhs->field_names.begin(), rhs->field_names.end(), field.name);
        if (given == rhs->field_names.end()) {
          if (null_trackable(field.type.get())) state[written + "." + field.name] = NullFact::kNull;
          continue;
        }
        const Expr& init = *rhs->args[static_cast<std::size_t>(
            std::distance(rhs->field_names.begin(), given))];
        if (init.kind == Expr::Kind::kNullLit)
          state[written + "." + field.name] = NullFact::kNull;
        else if (init.kind == Expr::Kind::kNew)
          state[written + "." + field.name] = NullFact::kNonNull;
      }
      break;
    }
    case Expr::Kind::kCall: {
      if (summaries_ == nullptr) break;
      const FunctionSummary* callee = summaries_->find(rhs->callee);
      if (callee == nullptr) break;
      if (callee->return_nullness == FunctionSummary::Nullability::kNonNull)
        state[written] = NullFact::kNonNull;
      else if (callee->return_nullness == FunctionSummary::Nullability::kNull)
        state[written] = NullFact::kNull;
      break;
    }
    default: {
      const std::string source = access_path(*rhs);
      if (source.empty()) break;
      const auto fact = state.find(source);
      if (fact == state.end()) break;
      const NullFact copied = fact->second;  // state[written] may move it
      state[written] = copied;
      break;
    }
  }
}

void NullnessAnalysis::apply_call_effects(const CfgNode& node, State& state) const {
  // Reversed pre-order approximates evaluation order (inner calls first):
  // each call kills its MOD facts, then contributes its return-time facts.
  for (auto it = node.calls.rbegin(); it != node.calls.rend(); ++it) {
    const Expr& call = **it;
    kill_call_facts(summaries_->effect_of(call), state);
    // Facts the callee establishes about its parameters on every normal
    // return transfer to the matching argument paths (callees cannot rebind
    // caller locals; the summary already drops params the callee rebinds).
    const FunctionSummary* callee = summaries_->find(call.callee);
    if (callee == nullptr || callee->nullness_on_return.empty()) continue;
    const FuncDecl& decl = *call.callee;
    if (decl.params.size() != call.args.size()) continue;
    for (const auto& [path, fact] : callee->nullness_on_return) {
      const std::size_t dot = path.find('.');
      const std::string root = dot == std::string::npos ? path : path.substr(0, dot);
      for (std::size_t i = 0; i < decl.params.size(); ++i) {
        if (decl.params[i].name != root) continue;
        const std::string arg_path = access_path(*call.args[i]);
        if (arg_path.empty()) break;
        state[dot == std::string::npos ? arg_path : arg_path + path.substr(dot)] = fact;
        break;
      }
    }
  }
}

void NullnessAnalysis::transfer(const CfgNode& node, State& state) const {
  if (node.stmt == nullptr) return;
  // A call may mutate heap objects: drop facts the callees' MOD sets cover
  // (all dotted paths when no summaries are available).
  if (!node.calls.empty()) {
    if (summaries_ != nullptr)
      apply_call_effects(node, state);
    else
      kill_all_heap_facts(state);
  }
  switch (node.stmt->kind) {
    case Stmt::Kind::kLet:
      assign(node.written, node.stmt->expr.get(), state);
      break;
    case Stmt::Kind::kAssign: {
      if (!node.written.empty()) {
        assign(node.written, node.stmt->expr2.get(), state);
      } else if (node.stmt->expr->kind == Expr::Kind::kIndex) {
        // `a[i] = e`: kill facts reached through the container.
        const std::string base = access_path(*node.stmt->expr->args[0]);
        if (!base.empty()) {
          const std::string element = base + ".?";
          state.erase_if(
              [&](const State::value_type& fact) { return write_kills(element, fact.first); });
        }
      }
      break;
    }
    default:
      break;
  }
}

void NullnessAnalysis::refine(const Expr& guard, bool taken, State& state) const {
  switch (guard.kind) {
    case Expr::Kind::kUnary:
      if (guard.un_op == UnOp::kNot) refine(*guard.args[0], !taken, state);
      return;
    case Expr::Kind::kBinary:
      break;
    default:
      return;
  }
  if (guard.bin_op == BinOp::kAnd) {
    // Both conjuncts hold on the taken edge; nothing definite otherwise.
    if (taken) {
      refine(*guard.args[0], true, state);
      refine(*guard.args[1], true, state);
    }
    return;
  }
  if (guard.bin_op == BinOp::kOr) {
    if (!taken) {
      refine(*guard.args[0], false, state);
      refine(*guard.args[1], false, state);
    }
    return;
  }
  if (guard.bin_op != BinOp::kEq && guard.bin_op != BinOp::kNe) return;
  const Expr* lhs = guard.args[0].get();
  const Expr* rhs = guard.args[1].get();
  if (rhs->kind != Expr::Kind::kNullLit) std::swap(lhs, rhs);
  if (rhs->kind != Expr::Kind::kNullLit) return;
  const std::string path = access_path(*lhs);
  if (path.empty()) return;
  const bool is_null = (guard.bin_op == BinOp::kEq) == taken;
  state[path] = is_null ? NullFact::kNull : NullFact::kNonNull;
}

void NullnessAnalysis::report(const Cfg& cfg, const std::vector<State>& in,
                              const std::vector<bool>& reached,
                              std::vector<Diagnostic>& out) const {
  for (const CfgNode& node : cfg.nodes()) {
    if (!reached[static_cast<std::size_t>(node.id)]) continue;
    const State& state = in[static_cast<std::size_t>(node.id)];
    node_exprs(node, [&](const Expr& top) {
      walk_expr(top, [&](const Expr& e) {
        if (e.kind != Expr::Kind::kField && e.kind != Expr::Kind::kIndex) return;
        const std::string base = access_path(*e.args[0]);
        if (base.empty()) return;
        const auto fact = state.find(base);
        if (fact == state.end() || fact->second != NullFact::kNull) return;
        Diagnostic diag;
        diag.analysis = "nullness";
        diag.severity = Severity::kError;
        diag.function = cfg.function().name;
        diag.loc = e.loc;
        diag.message = "dereference of '" + base + "', which is null on every path reaching here";
        out.push_back(std::move(diag));
      });
    });
  }
}

// ---------------------------------------------------------------------------
// Definite assignment
// ---------------------------------------------------------------------------

DefiniteAssignmentAnalysis::State DefiniteAssignmentAnalysis::boundary(const Cfg& cfg) const {
  (void)cfg;
  return {};
}

bool DefiniteAssignmentAnalysis::join(State& into, const State& from) const {
  bool changed = false;
  for (auto it = into.begin(); it != into.end();) {
    const auto other = from.find(it->first);
    if (other == from.end()) {
      it = into.erase(it);  // tracked on one side only → stop tracking
      changed = true;
      continue;
    }
    // A field assigned on only one path may still hold its default: keep it
    // in the unassigned set (union).
    for (const std::string& field : other->second.unassigned)
      if (it->second.unassigned.insert(field).second) changed = true;
    ++it;
  }
  return changed;
}

void DefiniteAssignmentAnalysis::transfer(const CfgNode& node, State& state) const {
  if (node.stmt == nullptr) return;
  // A tracked object passed to a call escapes when the callee may write
  // through (or store) that parameter; without summaries, any call escapes.
  for (const Expr* call : node.calls) {
    const CallEffect effect =
        summaries_ != nullptr ? summaries_->effect_of(*call) : CallEffect{.havoc_all = true};
    for (std::size_t i = 0; i < call->args.size(); ++i) {
      const auto& arg = call->args[i];
      if (arg && arg->kind == Expr::Kind::kVar && effect.writes_param(i))
        state.erase(arg->text);
    }
  }
  switch (node.stmt->kind) {
    case Stmt::Kind::kLet: {
      state.erase(node.stmt->name);
      const Expr* init = node.stmt->expr.get();
      if (init == nullptr || init->kind != Expr::Kind::kNew) break;
      const StructDecl* decl = init->struct_decl;
      if (decl == nullptr) break;
      Tracked tracked;
      for (const auto& field : decl->fields)
        if (std::find(init->field_names.begin(), init->field_names.end(), field.name) ==
            init->field_names.end())
          tracked.unassigned.insert(field.name);
      if (!tracked.unassigned.empty()) state[node.stmt->name] = std::move(tracked);
      break;
    }
    case Stmt::Kind::kAssign: {
      const Expr& lvalue = *node.stmt->expr;
      if (lvalue.kind == Expr::Kind::kVar) {
        state.erase(lvalue.text);
      } else if (lvalue.kind == Expr::Kind::kField &&
                 lvalue.args[0]->kind == Expr::Kind::kVar) {
        const auto tracked = state.find(lvalue.args[0]->text);
        if (tracked != state.end()) tracked->second.unassigned.erase(lvalue.text);
      }
      break;
    }
    default:
      break;
  }
}

void DefiniteAssignmentAnalysis::report(const Cfg& cfg, const std::vector<State>& in,
                                        const std::vector<bool>& reached,
                                        std::vector<Diagnostic>& out) const {
  for (const CfgNode& node : cfg.nodes()) {
    if (!reached[static_cast<std::size_t>(node.id)]) continue;
    const State& state = in[static_cast<std::size_t>(node.id)];
    const auto check = [&](const Expr& top) {
      walk_expr(top, [&](const Expr& e) {
        if (e.kind != Expr::Kind::kField || e.args[0]->kind != Expr::Kind::kVar) return;
        const auto tracked = state.find(e.args[0]->text);
        if (tracked == state.end() || tracked->second.unassigned.count(e.text) == 0) return;
        Diagnostic diag;
        diag.analysis = "definite-assignment";
        diag.severity = Severity::kWarning;
        diag.function = cfg.function().name;
        diag.loc = e.loc;
        diag.message = "field '" + e.text + "' of '" + e.args[0]->text +
                       "' is read before any assignment; it still holds its default value";
        out.push_back(std::move(diag));
      });
    };
    if (node.stmt != nullptr && node.stmt->kind == Stmt::Kind::kAssign) {
      // The lvalue's top-level field is being written, not read.
      if (node.stmt->expr2) check(*node.stmt->expr2);
      const Expr& lvalue = *node.stmt->expr;
      if (lvalue.kind == Expr::Kind::kIndex || lvalue.kind == Expr::Kind::kField)
        for (std::size_t i = lvalue.kind == Expr::Kind::kField ? 1 : 0; i < lvalue.args.size(); ++i)
          if (lvalue.args[i]) check(*lvalue.args[i]);
    } else {
      node_exprs(node, check);
    }
  }
}

// ---------------------------------------------------------------------------
// Lock state
// ---------------------------------------------------------------------------

LockStateAnalysis::State LockStateAnalysis::boundary(const Cfg& cfg) const {
  (void)cfg;
  return {};
}

bool LockStateAnalysis::join(State& into, const State& from) const {
  // "May hold" join: deeper nesting wins; ties keep the existing monitors.
  if (from.depth > into.depth) {
    into = from;
    return true;
  }
  return false;
}

void LockStateAnalysis::transfer(const CfgNode& node, State& state) const {
  if (node.kind == CfgNode::Kind::kSyncEnter) {
    ++state.depth;
    state.monitors.push_back({.sync = node.stmt});
  } else if (node.kind == CfgNode::Kind::kSyncExit) {
    if (state.depth > 0) --state.depth;
    if (!state.monitors.empty()) state.monitors.pop_back();
  }
  // Callees with a non-zero net monitor effect adjust the held count.
  // Block-structured `sync` makes the effect zero for every MiniLang
  // function today; the summary proves it instead of assuming it.
  if (summaries_ != nullptr && node.stmt != nullptr) {
    for (const Expr* call : node.calls) {
      const FunctionSummary* callee = summaries_->find(call->callee);
      if (callee == nullptr || callee->net_monitor_normal == 0) continue;
      for (int i = callee->net_monitor_normal; i > 0; --i) {
        ++state.depth;
        state.monitors.push_back({.call = call});
      }
      for (int i = callee->net_monitor_normal; i < 0 && state.depth > 0; ++i) {
        --state.depth;
        if (!state.monitors.empty()) state.monitors.pop_back();
      }
    }
  }
}

bool LockStateAnalysis::call_may_block(const Expr& call) const {
  if (summaries_ != nullptr) {
    const FunctionSummary* summary = summaries_->find(call.callee);
    if (summary != nullptr) return summary->may_block;
    return minilang::is_blocking_builtin(call.text);
  }
  return graph_->reaches_blocking(call.text);
}

void LockStateAnalysis::report(const Cfg& cfg, const std::vector<State>& in,
                               const std::vector<bool>& reached,
                               std::vector<Diagnostic>& out) const {
  if (cfg.function().has_annotation("test")) return;  // tests may block freely
  for (const CfgNode& node : cfg.nodes()) {
    if (!reached[static_cast<std::size_t>(node.id)]) continue;
    const State& state = in[static_cast<std::size_t>(node.id)];
    if (state.depth <= 0) continue;
    if (node.kind == CfgNode::Kind::kSyncEnter) continue;  // monitor expr runs unlocked
    for (const Expr* call : node.calls) {
      if (!call_may_block(*call)) continue;
      std::string monitor = "?";
      if (!state.monitors.empty()) {
        const Monitor& inner = state.monitors.back();
        monitor = inner.sync != nullptr
                      ? minilang::expr_text(*inner.sync->expr) + " (sync at line " +
                            std::to_string(inner.sync->loc.line) + ")"
                      : "monitor acquired inside " + inner.call->text + "()";
      }
      Diagnostic diag;
      diag.analysis = "lock-state";
      diag.severity = Severity::kError;
      diag.function = cfg.function().name;
      diag.loc = call->loc;
      diag.message = "call to " + call->text + " may block while holding monitor " + monitor;
      out.push_back(std::move(diag));
    }
  }
}

// ---------------------------------------------------------------------------
// Intervals
// ---------------------------------------------------------------------------

namespace {

constexpr std::int64_t kNegInf = Interval::kMin;
constexpr std::int64_t kPosInf = Interval::kMax;

Interval top() { return {}; }

/// Sum of two bounds. An infinite bound stays infinite; two finite bounds
/// whose sum leaves int64 give nullopt, because MiniLang's `+` wraps there
/// (minilang::int_add) and the result could be any value.
std::optional<std::int64_t> add_bounds(std::int64_t a, std::int64_t b) {
  if (a == kNegInf || b == kNegInf) return kNegInf;
  if (a == kPosInf || b == kPosInf) return kPosInf;
  std::int64_t sum = 0;
  if (__builtin_add_overflow(a, b, &sum)) return std::nullopt;
  return sum;
}

/// The negation of a bound: -∞ and +∞ swap.
std::int64_t negate_bound(std::int64_t v) {
  if (v == kNegInf) return kPosInf;
  if (v == kPosInf) return kNegInf;
  return -v;
}

/// [a.lo + b.lo, a.hi + b.hi], or top when a finite bound overflows.
Interval add_intervals(const Interval& a, const Interval& b) {
  const std::optional<std::int64_t> lo = add_bounds(a.lo, b.lo);
  const std::optional<std::int64_t> hi = add_bounds(a.hi, b.hi);
  if (!lo || !hi) return top();
  return {*lo, *hi};
}

}  // namespace

IntervalAnalysis::State IntervalAnalysis::boundary(const Cfg& cfg) const {
  State state;
  if (summaries_ != nullptr) {
    const FunctionSummary* summary = summaries_->find(cfg.function().name);
    if (summary != nullptr)
      for (const auto& [path, interval] : summary->boundary_intervals)
        if (!interval.unbounded() && !interval.empty()) state.emplace(path, interval);
  }
  return state;
}

bool IntervalAnalysis::join(State& into, const State& from) const {
  // Both states are sorted by path, so one merge walk finds each path's
  // counterpart.
  bool changed = false;
  auto other = from.begin();
  into.erase_if([&](State::value_type& fact) {
    while (other != from.end() && other->first < fact.first) ++other;
    if (other == from.end() || other->first != fact.first) {
      changed = true;
      return true;
    }
    const Interval hull{std::min(fact.second.lo, other->second.lo),
                        std::max(fact.second.hi, other->second.hi)};
    if (!(hull == fact.second)) {
      fact.second = hull;
      changed = true;
    }
    return fact.second.unbounded();  // top carries no information; keep the map sparse
  });
  return changed;
}

Interval IntervalAnalysis::eval(const Expr& expr, const State& state) const {
  switch (expr.kind) {
    case Expr::Kind::kIntLit:
      return Interval::constant(expr.int_value);
    case Expr::Kind::kCall: {
      // Clamp by the callee's summarized return interval. An *empty*
      // interval (recursive fixpoint still climbing) acts as the hull
      // identity through joins; outside summary computation it never
      // survives to a stored fact.
      if (summaries_ == nullptr) return top();
      const FunctionSummary* callee = summaries_->find(expr.callee);
      return callee == nullptr ? top() : callee->return_interval;
    }
    case Expr::Kind::kVar: {
      const auto it = state.find(expr.text);  // a variable's path is its name
      return it == state.end() ? top() : it->second;
    }
    case Expr::Kind::kField: {
      const std::string path = access_path(expr);
      if (path.empty()) return top();
      const auto it = state.find(path);
      return it == state.end() ? top() : it->second;
    }
    case Expr::Kind::kUnary: {
      if (expr.un_op != UnOp::kNeg) return top();
      const Interval v = eval(*expr.args[0], state);
      if (v.is_constant()) return Interval::constant(minilang::int_neg(v.lo));
      if (v.unbounded()) return top();
      return {negate_bound(v.hi), negate_bound(v.lo)};
    }
    case Expr::Kind::kBinary: {
      // Constant operands fold to the value the run computes, wrapped on
      // overflow. Other operands add bound by bound.
      const Interval a = eval(*expr.args[0], state);
      const Interval b = eval(*expr.args[1], state);
      const bool constants = a.is_constant() && b.is_constant();
      switch (expr.bin_op) {
        case BinOp::kAdd:
          if (constants) return Interval::constant(minilang::int_add(a.lo, b.lo));
          return add_intervals(a, b);
        case BinOp::kSub:
          if (constants) return Interval::constant(minilang::int_sub(a.lo, b.lo));
          return add_intervals(a, {negate_bound(b.hi), negate_bound(b.lo)});
        case BinOp::kMul:
          if (constants) return Interval::constant(minilang::int_mul(a.lo, b.lo));
          return top();
        case BinOp::kDiv:
          if (constants && b.lo != 0) return Interval::constant(minilang::int_div(a.lo, b.lo));
          return top();
        case BinOp::kMod:
          if (constants && b.lo != 0)
            return Interval::constant(minilang::int_mod(a.lo, b.lo));
          return top();
        default:
          return top();
      }
    }
    default:
      return top();
  }
}

int IntervalAnalysis::decide(const Expr& guard, const State& state) const {
  switch (guard.kind) {
    case Expr::Kind::kBoolLit:
      return guard.bool_value ? 1 : 0;
    case Expr::Kind::kUnary: {
      if (guard.un_op != UnOp::kNot) return -1;
      const int inner = decide(*guard.args[0], state);
      return inner < 0 ? -1 : 1 - inner;
    }
    case Expr::Kind::kBinary:
      break;
    default:
      return -1;
  }
  if (guard.bin_op == BinOp::kAnd || guard.bin_op == BinOp::kOr) {
    const int a = decide(*guard.args[0], state);
    const int b = decide(*guard.args[1], state);
    if (guard.bin_op == BinOp::kAnd) {
      if (a == 0 || b == 0) return 0;
      if (a == 1 && b == 1) return 1;
    } else {
      if (a == 1 || b == 1) return 1;
      if (a == 0 && b == 0) return 0;
    }
    return -1;
  }
  const Interval a = eval(*guard.args[0], state);
  const Interval b = eval(*guard.args[1], state);
  if (a.unbounded() && b.unbounded()) return -1;
  switch (guard.bin_op) {
    case BinOp::kLt:
      if (a.hi < b.lo) return 1;
      if (a.lo >= b.hi) return 0;
      return -1;
    case BinOp::kLe:
      if (a.hi <= b.lo) return 1;
      if (a.lo > b.hi) return 0;
      return -1;
    case BinOp::kGt:
      if (a.lo > b.hi) return 1;
      if (a.hi <= b.lo) return 0;
      return -1;
    case BinOp::kGe:
      if (a.lo >= b.hi) return 1;
      if (a.hi < b.lo) return 0;
      return -1;
    case BinOp::kEq:
      if (a.is_constant() && b.is_constant()) return a.lo == b.lo ? 1 : 0;
      if (a.hi < b.lo || a.lo > b.hi) return 0;  // disjoint ranges
      return -1;
    case BinOp::kNe:
      if (a.is_constant() && b.is_constant()) return a.lo != b.lo ? 1 : 0;
      if (a.hi < b.lo || a.lo > b.hi) return 1;
      return -1;
    default:
      return -1;
  }
}

void IntervalAnalysis::apply_call_effects(const CfgNode& node, State& state) const {
  for (const Expr* call : node.calls) {
    const CallEffect effect = summaries_->effect_of(*call);
    kill_call_facts(effect, state);
    if (effect.havoc_all) return;  // nothing heap-rooted is left to kill
  }
}

void IntervalAnalysis::transfer(const CfgNode& node, State& state) const {
  if (node.stmt == nullptr) return;
  if (!node.calls.empty()) {
    if (summaries_ != nullptr)
      apply_call_effects(node, state);
    else
      kill_all_heap_facts(state);
  }
  const Expr* rhs = nullptr;
  switch (node.stmt->kind) {
    case Stmt::Kind::kLet:
      rhs = node.stmt->expr.get();
      break;
    case Stmt::Kind::kAssign:
      rhs = node.stmt->expr2.get();
      break;
    default:
      return;
  }
  const std::string& written = node.written;
  if (written.empty()) return;
  const Interval value = rhs != nullptr ? eval(*rhs, state) : top();
  state.erase_if([&](const State::value_type& fact) { return write_kills(written, fact.first); });
  if (!value.unbounded()) state[written] = value;
}

void IntervalAnalysis::refine(const Expr& guard, bool taken, State& state) const {
  switch (guard.kind) {
    case Expr::Kind::kUnary:
      if (guard.un_op == UnOp::kNot) refine(*guard.args[0], !taken, state);
      return;
    case Expr::Kind::kBinary:
      break;
    default:
      return;
  }
  if (guard.bin_op == BinOp::kAnd) {
    if (taken) {
      refine(*guard.args[0], true, state);
      refine(*guard.args[1], true, state);
    }
    return;
  }
  if (guard.bin_op == BinOp::kOr) {
    if (!taken) {
      refine(*guard.args[0], false, state);
      refine(*guard.args[1], false, state);
    }
    return;
  }
  // Normalize to `path OP interval` and clamp.
  const auto clamp = [&](const Expr& side, BinOp op, const Interval& bound) {
    const std::string path = access_path(side);
    if (path.empty() || bound.unbounded()) return;
    Interval current = top();
    const auto it = state.find(path);
    if (it != state.end()) current = it->second;
    switch (op) {
      case BinOp::kLt:
        if (bound.hi != kPosInf) current.hi = std::min(current.hi, bound.hi - 1);
        break;
      case BinOp::kLe:
        current.hi = std::min(current.hi, bound.hi);
        break;
      case BinOp::kGt:
        if (bound.lo != kNegInf) current.lo = std::max(current.lo, bound.lo + 1);
        break;
      case BinOp::kGe:
        current.lo = std::max(current.lo, bound.lo);
        break;
      case BinOp::kEq:
        current.lo = std::max(current.lo, bound.lo);
        current.hi = std::min(current.hi, bound.hi);
        break;
      default:
        return;
    }
    if (current.empty() || current.unbounded()) {
      state.erase(path);  // contradiction (dead edge) or no information
      return;
    }
    state[path] = current;
  };
  BinOp op = guard.bin_op;
  if (!taken) {
    switch (op) {
      case BinOp::kLt: op = BinOp::kGe; break;
      case BinOp::kLe: op = BinOp::kGt; break;
      case BinOp::kGt: op = BinOp::kLe; break;
      case BinOp::kGe: op = BinOp::kLt; break;
      case BinOp::kEq: op = BinOp::kNe; break;
      case BinOp::kNe: op = BinOp::kEq; break;
      default: return;
    }
  }
  if (op == BinOp::kNe) return;  // holes are not representable
  const Expr& lhs = *guard.args[0];
  const Expr& rhs = *guard.args[1];
  clamp(lhs, op, eval(rhs, state));
  // Mirror the comparison for the right operand: `a < b` also means `b > a`.
  BinOp mirrored = op;
  switch (op) {
    case BinOp::kLt: mirrored = BinOp::kGt; break;
    case BinOp::kLe: mirrored = BinOp::kGe; break;
    case BinOp::kGt: mirrored = BinOp::kLt; break;
    case BinOp::kGe: mirrored = BinOp::kLe; break;
    default: break;
  }
  clamp(rhs, mirrored, eval(lhs, state));
}

void IntervalAnalysis::report(const Cfg& cfg, const std::vector<State>& in,
                              const std::vector<bool>& reached,
                              std::vector<Diagnostic>& out) const {
  for (const CfgNode& node : cfg.nodes()) {
    if (node.kind != CfgNode::Kind::kBranch || node.loop_head) continue;
    if (!reached[static_cast<std::size_t>(node.id)]) continue;
    if (node.stmt == nullptr || !node.stmt->expr) continue;
    if (!node.calls.empty()) continue;
    const int verdict = decide(*node.stmt->expr, in[static_cast<std::size_t>(node.id)]);
    if (verdict < 0) continue;
    Diagnostic diag;
    diag.analysis = "intervals";
    diag.severity = Severity::kWarning;
    diag.function = cfg.function().name;
    diag.loc = node.stmt->expr->loc;
    diag.message = std::string("condition '") + minilang::expr_text(*node.stmt->expr) +
                   "' is always " + (verdict == 1 ? "true" : "false") +
                   "; the other branch is dead";
    out.push_back(std::move(diag));
  }
}

// ---------------------------------------------------------------------------
// Whole-program lint
// ---------------------------------------------------------------------------

std::vector<Diagnostic> lint_program(const Program& program, bool include_tests,
                                     bool use_summaries) {
  const analysis::CallGraph graph = analysis::CallGraph::build(program);
  const SummaryMap summary_map =
      use_summaries ? SummaryMap::compute(program, graph) : SummaryMap();
  const SummaryMap* summaries = use_summaries ? &summary_map : nullptr;
  std::vector<Diagnostic> out;
  for (const FuncDecl& fn : program.functions) {
    if (!include_tests && fn.has_annotation("test")) continue;
    const Cfg& cfg = graph.cfg(fn);

    NullnessAnalysis nullness(program, summaries);
    const auto null_result = run_forward(cfg, nullness);
    nullness.report(cfg, null_result.in, null_result.reached, out);

    DefiniteAssignmentAnalysis assignment(program, summaries);
    const auto assign_result = run_forward(cfg, assignment);
    assignment.report(cfg, assign_result.in, assign_result.reached, out);

    LockStateAnalysis locks(program, graph, summaries);
    const auto lock_result = run_forward(cfg, locks);
    locks.report(cfg, lock_result.in, lock_result.reached, out);

    IntervalAnalysis intervals(program, summaries);
    const auto interval_result = run_forward(cfg, intervals);
    intervals.report(cfg, interval_result.in, interval_result.reached, out);

    // Dead stores / unused definitions: free byproducts of the reaching-
    // definition chains (depgraph.hpp). Local-only, so a degraded graph
    // (summaries off) reports the same findings.
    const FuncDepGraph dep = FuncDepGraph::build(cfg, summaries);
    report_dead_defs(dep, out);
  }
  // Whole-program concurrency checks (deadlock cycles, inconsistent-lockset
  // races) need the interprocedural summaries and only fire on programs
  // that use monitors at all — sync-free programs keep byte-identical
  // output with and without this pass.
  if (summaries != nullptr) {
    bool has_sync = false;
    program.for_each_stmt([&](const FuncDecl&, const minilang::Stmt& stmt) {
      if (stmt.kind == minilang::Stmt::Kind::kSync) has_sync = true;
    });
    if (has_sync) {
      const LockGraph lock_graph = LockGraph::build(program, graph, *summaries);
      for (Diagnostic& diag : deadlock_diagnostics(lock_graph))
        out.push_back(std::move(diag));
      for (Diagnostic& diag : race_diagnostics(program, graph, *summaries))
        out.push_back(std::move(diag));
    }
  }
  // Deterministic output: one program is one file, so (line, column) is a
  // global position; break ties by function, analysis, then message, and
  // drop diagnostics that are identical in every field.
  const auto key = [](const Diagnostic& d) {
    return std::tie(d.loc.line, d.loc.column, d.function, d.analysis, d.message);
  };
  std::sort(out.begin(), out.end(),
            [&](const Diagnostic& a, const Diagnostic& b) { return key(a) < key(b); });
  out.erase(std::unique(out.begin(), out.end(),
                        [&](const Diagnostic& a, const Diagnostic& b) {
                          return key(a) == key(b) && a.severity == b.severity;
                        }),
            out.end());
  return out;
}

}  // namespace lisa::staticcheck
