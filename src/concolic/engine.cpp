#include "concolic/engine.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "concolic/shadow.hpp"
#include "minilang/interp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "smt/minilang_bridge.hpp"
#include "smt/solver.hpp"
#include "support/strings.hpp"

namespace lisa::concolic {

using minilang::FuncDecl;
using minilang::InterpError;
using minilang::kNoShadow;
using minilang::MiniThrow;
using minilang::Object;
using minilang::PathResolution;
using minilang::Program;
using minilang::resolve_path;
using minilang::ShadowId;
using minilang::StateAccess;
using minilang::Stmt;
using minilang::Value;
using smt::Atom;
using smt::CmpOp;
using smt::Formula;
using smt::FormulaPtr;

namespace {

/// Fuel per replay, counted per statement, expression and loop iteration.
constexpr std::int64_t kFuel = 4'000'000;

}  // namespace

/// The shadow layer over minilang::Interp. Interp runs the test and carries
/// opaque ShadowIds on locals and arguments; this observer owns what the
/// ids stand for (SymShadow), records relevant guards into the path
/// condition, and checks the contract at every target hit.
class Engine::Impl final : public minilang::ExecObserver {
 public:
  explicit Impl(const Program& program) : program_(program) {}

  RunResult run(const std::string& test_name, const CheckConfig& config) {
    config_ = &config;
    result_ = RunResult{};
    path_condition_.clear();
    shadows_.clear();
    interned_.clear();
    solver_.set_budget(config.budget);
    obs::PhasedSmtCapture smt_capture(config.capture.ledger, config.capture.capture,
                                      "concolic");
    solver_.set_capture(config.capture.active() ? &smt_capture : nullptr);

    // The contract's relevant field names.
    relevant_fields_.clear();
    contract_has_null_ = false;
    if (config.contract) {
      for (const std::string& var : config.contract->variables()) {
        if (support::ends_with(var, "#null")) {
          contract_has_null_ = true;
          continue;
        }
        const std::size_t dot = var.find_last_of('.');
        relevant_fields_.insert(dot == std::string::npos ? var : var.substr(dot + 1));
      }
    }

    try {
      if (program_.find_function(test_name) == nullptr)
        throw InterpError("unknown test: " + test_name);
      // A fresh interpreter per run: object ids and the clock restart.
      minilang::Interp interp(program_);
      interp.set_fuel(kFuel);
      interp.set_observer(this);
      interp.call(test_name, {});
      result_.test_passed = true;
    } catch (const MiniThrow& thrown) {
      result_.failure = thrown.value().to_display();
    } catch (const support::BudgetExhausted& exhausted) {
      // Structured resource outcome: the run is cut off, not broken.
      result_.budget_exhausted = true;
      result_.degraded_reason = exhausted.what();
    } catch (const minilang::StepLimitExceeded& limit) {
      result_.step_limit_hit = true;
      result_.degraded_reason = limit.what();
    } catch (const InterpError& error) {
      result_.failure = error.what();
    }
    // The capture sink is stack-local to this call; detach before returning.
    solver_.set_capture(nullptr);
    return std::move(result_);
  }

  // -- Statements and fuel ----------------------------------------------------

  [[nodiscard]] bool wants_state() override { return true; }

  void on_state(const FuncDecl& fn, const Stmt& stmt, StateAccess& state) override {
    (void)fn;
    const std::vector<int>& targets = config_->target_stmt_ids;
    if (std::find(targets.begin(), targets.end(), stmt.id) != targets.end())
      on_target_hit(stmt, state);
  }

  void on_fuel() override {
    // Interp reports fuel in strides, which amortizes the budget poll: one
    // relaxed-atomic add per kFuelStride steps.
    if (config_->budget != nullptr && !config_->budget->charge_steps(minilang::kFuelStride))
      throw support::BudgetExhausted(config_->budget->exhausted_reason());
  }

  // -- Shadow rules -----------------------------------------------------------

  [[nodiscard]] bool wants_shadows() override { return true; }

  ShadowId shadow_field_read(const Object& object, const std::string& field,
                             const Value& value) override {
    // Object identity, not the variable spelling, names the location.
    std::string var = field_var(object, field);
    if (value.is_int()) return intern("i" + var, [&] { return SymShadow::of_int(var); });
    if (!value.is_bool()) return kNoShadow;
    return intern("b" + var,
                  [&] { return SymShadow::of_bool(Formula::make_atom(Atom::bool_var(var))); });
  }

  ShadowId shadow_not(ShadowId operand) override {
    const FormulaPtr& f = formula(operand);
    if (f == nullptr) return kNoShadow;
    return intern("!" + std::to_string(operand),
                  [&] { return SymShadow::of_bool(Formula::negate(f)); });
  }

  ShadowId shadow_logic(bool is_and, ShadowId lhs, ShadowId rhs) override {
    const FormulaPtr& l = formula(lhs);
    const FormulaPtr& r = formula(rhs);
    if (l != nullptr && r != nullptr)
      return intern((is_and ? "&" : "|") + std::to_string(lhs) + "," + std::to_string(rhs), [&] {
        return SymShadow::of_bool(is_and ? Formula::conj2(l, r) : Formula::disj2(l, r));
      });
    // Only the rhs tracked: the lhs was the neutral element (true for &&,
    // false for ||). Only the lhs tracked: the result is untracked.
    return r != nullptr ? rhs : kNoShadow;
  }

  ShadowId shadow_equality(bool eq, const Value& lhs, ShadowId lhs_shadow, const Value& rhs,
                           ShadowId rhs_shadow) override {
    // Null against an object: identity-named nullness atom. Null against
    // null is concrete.
    if (lhs.is_null() && (rhs.is_object() || rhs.is_null())) return null_shadow(rhs, eq);
    if (rhs.is_null() && (lhs.is_object() || lhs.is_null())) return null_shadow(lhs, eq);
    if (lhs.is_bool() && rhs.is_bool()) {
      // Boolean equality folds into the tracked side; var == var is skipped.
      const bool lhs_tracked = formula(lhs_shadow) != nullptr;
      if (lhs_tracked == (formula(rhs_shadow) != nullptr)) return kNoShadow;
      const ShadowId tracked = lhs_tracked ? lhs_shadow : rhs_shadow;
      const bool other = (lhs_tracked ? rhs : lhs).as_bool();
      return other == eq ? tracked : shadow_not(tracked);
    }
    if (lhs.is_int() && rhs.is_int())
      return compare(eq ? CmpOp::kEq : CmpOp::kNe, lhs.as_int(), lhs_shadow, rhs.as_int(),
                     rhs_shadow);
    return kNoShadow;
  }

  ShadowId shadow_compare(minilang::BinOp op, std::int64_t lhs, ShadowId lhs_shadow,
                          std::int64_t rhs, ShadowId rhs_shadow) override {
    return compare(*smt::to_cmp(op), lhs, lhs_shadow, rhs, rhs_shadow);
  }

  void on_branch(ShadowId guard, bool taken) override {
    ++result_.branches_total;
    const FormulaPtr& f = formula(guard);
    if (f == nullptr || !relevant(f)) return;
    if (config_->budget != nullptr && !config_->budget->charge_fork_point())
      throw support::BudgetExhausted(config_->budget->exhausted_reason());
    path_condition_.push_back(taken ? f : Formula::negate(f));
    ++result_.branches_recorded;
  }

 private:
  /// The id interned under `key`, made by `make` on first use. A guard
  /// re-evaluated on every loop iteration reuses its id, so the table grows
  /// with the distinct shadows of a run, not with its steps.
  template <typename Make>
  ShadowId intern(std::string key, const Make& make) {
    const auto [it, inserted] = interned_.try_emplace(std::move(key), kNoShadow);
    if (inserted) {
      shadows_.push_back(make());
      it->second = static_cast<ShadowId>(shadows_.size());
    }
    return it->second;
  }

  [[nodiscard]] const SymShadow& shadow(ShadowId id) const {
    static const SymShadow kUntracked;
    return id == kNoShadow ? kUntracked : shadows_[id - 1];
  }
  [[nodiscard]] const FormulaPtr& formula(ShadowId id) const { return shadow(id).bool_formula; }

  ShadowId null_shadow(const Value& other, bool eq) {
    if (!other.is_object()) return kNoShadow;
    std::string var = null_var(*other.as_object());
    return intern((eq ? "=" : "~") + var, [&] {
      FormulaPtr atom = Formula::make_atom(Atom::bool_var(var));
      return SymShadow::of_bool(eq ? std::move(atom) : Formula::negate(atom));
    });
  }

  /// Compare atom over the int-tracked sides; untracked when neither is.
  ShadowId compare(CmpOp op, std::int64_t lhs, ShadowId lhs_shadow, std::int64_t rhs,
                   ShadowId rhs_shadow) {
    const std::string& l = shadow(lhs_shadow).int_var;
    const std::string& r = shadow(rhs_shadow).int_var;
    const std::string op_text = smt::cmp_op_text(op);
    if (!l.empty() && !r.empty())
      return intern(l + op_text + "@" + r, [&] {
        return SymShadow::of_bool(Formula::make_atom(Atom::cmp_var(l, op, r)));
      });
    if (!l.empty())
      return intern(l + op_text + std::to_string(rhs), [&] {
        return SymShadow::of_bool(Formula::make_atom(Atom::cmp_const(l, op, rhs)));
      });
    if (r.empty()) return kNoShadow;
    const CmpOp swapped = smt::cmp_swap(op);
    return intern(r + smt::cmp_op_text(swapped) + std::to_string(lhs), [&] {
      return SymShadow::of_bool(Formula::make_atom(Atom::cmp_const(r, swapped, lhs)));
    });
  }

  // -- Relevance filter -----------------------------------------------------

  [[nodiscard]] bool relevant(const FormulaPtr& f) const {
    if (!config_->prune_irrelevant) return true;
    for (const std::string& var : f->variables()) {
      if (contract_has_null_ && support::ends_with(var, "#null")) return true;
      const std::size_t dot = var.find_last_of('.');
      const std::string field = dot == std::string::npos ? var : var.substr(dot + 1);
      if (relevant_fields_.count(field) > 0) return true;
    }
    return false;
  }

  // -- Contract instantiation at a target hit --------------------------------

  /// The contract at a hit: instantiated over object-named atoms and
  /// evaluated on the concrete state.
  struct Instance {
    FormulaPtr formula;
    bool holds = true;
  };

  /// One atom at the hit. `formula` is null when the atom's paths do not
  /// resolve to checkable locations; `holds` is empty when they cannot be
  /// read. A path that ends at a bare local substitutes its concrete value
  /// (the paper's constant normalization).
  struct AtomInstance {
    FormulaPtr formula;
    std::optional<bool> holds;
  };

  static AtomInstance instantiate_atom(const Atom& atom, StateAccess& state) {
    const auto location = [](const PathResolution& res) {
      return field_var(*res.parent, res.leaf);
    };
    if (atom.kind == Atom::Kind::kBoolVar && support::ends_with(atom.lhs, "#null")) {
      const PathResolution res = resolve_path(state, atom.lhs.substr(0, atom.lhs.size() - 5));
      if (!res.ok) return {};
      if (res.value.is_null()) return {Formula::truth(true), true};
      if (!res.value.is_object()) return {nullptr, false};
      return {Formula::make_atom(Atom::bool_var(null_var(*res.value.as_object()))), false};
    }
    const PathResolution lhs = resolve_path(state, atom.lhs);
    if (atom.kind == Atom::Kind::kBoolVar) {
      if (!lhs.ok || !lhs.value.is_bool()) return {};
      const bool value = lhs.value.as_bool();
      if (lhs.parent == nullptr) return {Formula::truth(value), value};
      return {Formula::make_atom(Atom::bool_var(location(lhs))), value};
    }
    if (!lhs.ok || !lhs.value.is_int()) return {};
    if (atom.kind == Atom::Kind::kCmpConst) {
      const bool holds = smt::cmp_holds(lhs.value.as_int(), atom.op, atom.rhs_const);
      if (lhs.parent == nullptr) return {Formula::truth(holds), holds};
      return {Formula::make_atom(Atom::cmp_const(location(lhs), atom.op, atom.rhs_const)), holds};
    }
    const PathResolution rhs = resolve_path(state, atom.rhs_var);
    if (!rhs.ok || !rhs.value.is_int()) return {};
    const bool holds = smt::cmp_holds(lhs.value.as_int(), atom.op, rhs.value.as_int());
    if (lhs.parent != nullptr && rhs.parent != nullptr)
      return {Formula::make_atom(Atom::cmp_var(location(lhs), atom.op, location(rhs))), holds};
    if (lhs.parent != nullptr)
      return {Formula::make_atom(Atom::cmp_const(location(lhs), atom.op, rhs.value.as_int())),
              holds};
    if (rhs.parent != nullptr)
      return {Formula::make_atom(
                  Atom::cmp_const(location(rhs), smt::cmp_swap(atom.op), lhs.value.as_int())),
              holds};
    return {Formula::truth(holds), holds};
  }

  /// Instantiates `f` at the hit. An atom that does not resolve becomes an
  /// opaque placeholder and clears *instantiable; one that cannot be read
  /// counts as holding and clears *readable.
  static Instance instantiate(const FormulaPtr& f, StateAccess& state, bool* instantiable,
                              bool* readable) {
    switch (f->kind) {
      case Formula::Kind::kTrue:
      case Formula::Kind::kFalse:
        return {f, f->kind == Formula::Kind::kTrue};
      case Formula::Kind::kAtom: {
        AtomInstance atom = instantiate_atom(f->atom, state);
        if (atom.formula == nullptr) {
          *instantiable = false;
          atom.formula = Formula::make_atom(Atom::bool_var("opaque:" + f->atom.key()));
        }
        if (!atom.holds.has_value()) *readable = false;
        return {std::move(atom.formula), atom.holds.value_or(true)};
      }
      case Formula::Kind::kNot: {
        const Instance inner = instantiate(f->children[0], state, instantiable, readable);
        return {Formula::negate(inner.formula), !inner.holds};
      }
      case Formula::Kind::kAnd:
      case Formula::Kind::kOr: {
        const bool is_and = f->kind == Formula::Kind::kAnd;
        std::vector<FormulaPtr> children;
        children.reserve(f->children.size());
        bool holds = is_and;
        for (const FormulaPtr& child : f->children) {
          Instance instance = instantiate(child, state, instantiable, readable);
          holds = is_and ? holds && instance.holds : holds || instance.holds;
          children.push_back(std::move(instance.formula));
        }
        return {is_and ? Formula::conj(std::move(children)) : Formula::disj(std::move(children)),
                holds};
      }
    }
    return {f, true};
  }

  void on_target_hit(const Stmt& stmt, StateAccess& state) {
    TargetHit hit;
    hit.stmt_id = stmt.id;
    for (const FuncDecl* fn : state.call_stack()) hit.call_chain.push_back(fn->name);
    hit.function = hit.call_chain.back();
    hit.trace_condition = Formula::conj(path_condition_);
    if (config_->contract) {
      bool instantiable = true;
      bool readable = true;
      const Instance instance = instantiate(config_->contract, state, &instantiable, &readable);
      hit.instantiated_contract = instance.formula;
      hit.instantiable = instantiable;
      hit.concrete_violation = readable && !instance.holds;
      if (instantiable) {
        const smt::SolveResult check = solver_.solve(Formula::conj2(
            hit.trace_condition, Formula::negate(hit.instantiated_contract)));
        hit.symbolic_violation = check.sat();
        hit.inconclusive = check.unknown();
        if (check.sat()) {
          hit.witness = check.model.to_string();
          hit.witness_bools = check.model.bools;
          hit.witness_ints = check.model.ints;
        }
      }
    } else {
      hit.instantiated_contract = Formula::truth(true);
    }
    result_.hits.push_back(std::move(hit));
  }

  const Program& program_;
  const CheckConfig* config_ = nullptr;
  RunResult result_;
  smt::Solver solver_;
  std::vector<FormulaPtr> path_condition_;
  std::vector<SymShadow> shadows_;  // ShadowId i names shadows_[i - 1]
  std::unordered_map<std::string, ShadowId> interned_;
  std::unordered_set<std::string> relevant_fields_;
  bool contract_has_null_ = false;
};

Engine::Engine(const Program& program) : impl_(std::make_unique<Impl>(program)) {}
Engine::~Engine() = default;

RunResult Engine::run_test(const std::string& test_name, const CheckConfig& config) {
  obs::ScopedSpan span("concolic.run_test");
  span.attr("test", test_name);
  const RunResult result = impl_->run(test_name, config);
  // Fork-point accounting: every executed branch is a potential fork of the
  // symbolic path; recorded ones entered the trace condition π.
  obs::MetricsRegistry& registry = obs::metrics();
  registry.counter("concolic.tests_run").add();
  registry.counter("concolic.branches_total").add(result.branches_total);
  registry.counter("concolic.branches_recorded").add(result.branches_recorded);
  registry.counter("concolic.target_hits").add(static_cast<std::int64_t>(result.hits.size()));
  if (result.degraded()) registry.counter("concolic.degraded_runs").add();
  registry.histogram("concolic.test_ms").record(span.elapsed_ms());
  span.attr("passed", result.test_passed);
  span.attr("hits", result.hits.size());
  span.attr("branches_total", result.branches_total);
  span.attr("branches_recorded", result.branches_recorded);
  return result;
}

}  // namespace lisa::concolic
