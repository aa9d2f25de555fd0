// Symbolic shadows of the concolic engine's shadow layer.
//
// minilang::Interp executes the @test concretely (per §3.2: "our tool
// utilizes existing tests to act as our input") and carries an opaque
// minilang::ShadowId beside every local and argument. The engine
// (concolic/engine.cpp) maps each id to a SymShadow:
//   * reading `obj.field` yields shadow atom "obj<id>.field" — object
//     identity, not variable spelling, names the location;
//   * boolean operators and integer comparisons combine shadows into
//     formulas;
//   * values that flow through containers, arithmetic or call returns lose
//     their shadow (objects keep identity, so their later field reads
//     re-derive one).
// Branch decisions on shadowed guards become path-condition conjuncts.
#pragma once

#include <string>

#include "minilang/value.hpp"
#include "smt/formula.hpp"

namespace lisa::concolic {

/// What one ShadowId stands for. At most one member is meaningful, matching
/// the shadowed value's dynamic type.
struct SymShadow {
  /// For bool values: formula over object-named atoms; null if untracked.
  smt::FormulaPtr bool_formula;
  /// For int values: the symbolic location name ("obj5.ttl"); empty if
  /// untracked.
  std::string int_var;

  [[nodiscard]] static SymShadow of_bool(smt::FormulaPtr formula) {
    return {std::move(formula), {}};
  }
  [[nodiscard]] static SymShadow of_int(std::string var) { return {nullptr, std::move(var)}; }
};

/// Symbolic location name for a field of `object`.
[[nodiscard]] inline std::string field_var(const minilang::Object& object,
                                           const std::string& field) {
  return "obj" + std::to_string(object.object_id) + "." + field;
}

/// Symbolic nullness-indicator name for `object`.
[[nodiscard]] inline std::string null_var(const minilang::Object& object) {
  return "obj" + std::to_string(object.object_id) + "#null";
}

}  // namespace lisa::concolic
