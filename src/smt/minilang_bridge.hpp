// Conversion between MiniLang boolean expressions and SMT formulas.
//
// Contracts are written as MiniLang condition expressions (e.g.
// `s != null && s.is_closing == false && s.ttl > 0`); branch guards collected
// by the static path walker and the concolic engine are MiniLang expressions
// too. This bridge maps both into the solver fragment:
//   * dotted access paths become variable names ("s.ttl")
//   * `p == null` / `p != null` become the nullness indicator "p#null"
//   * boolean-typed paths become boolean variables
//   * comparisons against integer literals / other paths become theory atoms
// Anything outside the fragment (calls, arithmetic over non-literals) is
// handled per OpaquePolicy.
#pragma once

#include <optional>
#include <string>

#include "minilang/ast.hpp"
#include "smt/formula.hpp"

namespace lisa::smt {

enum class OpaquePolicy {
  /// Out-of-fragment subexpressions make the whole conversion fail
  /// (returns nullopt). Used for contract conditions, which must be fully
  /// checkable.
  kReject,
  /// Out-of-fragment subexpressions become fresh boolean variables named
  /// "opaque:<canonical text>". Used for path conditions, where an opaque
  /// guard simply constrains nothing the contract talks about — matching the
  /// paper's rule that branches not involving relevant variables are skipped.
  kAbstract,
};

/// The theory operator of a MiniLang comparison; nullopt for other operators.
[[nodiscard]] std::optional<CmpOp> to_cmp(minilang::BinOp op);

/// Converts a MiniLang boolean expression into a formula.
[[nodiscard]] std::optional<FormulaPtr> to_formula(const minilang::Expr& expr,
                                                   OpaquePolicy policy);

/// Renders the access path of a Var/Field chain ("s.owner.ttl"), or empty if
/// `expr` is not a pure path.
[[nodiscard]] std::string access_path(const minilang::Expr& expr);

/// Parses `condition_text` as a MiniLang expression and converts it with
/// kReject policy. Returns nullopt if the text does not parse or falls
/// outside the fragment. This is the entry point the contract translator
/// uses on LLM-proposed condition statements.
[[nodiscard]] std::optional<FormulaPtr> parse_condition(const std::string& condition_text);

}  // namespace lisa::smt
