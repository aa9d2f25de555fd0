// Formula representation for the LISA SMT backend.
//
// The paper restricts semantic contracts to "conjunctions of
// implementation-local predicates ... such as state relations (v = c) and
// resources (handle.isOpen)". The corresponding decidable fragment is
// quantifier-free boolean structure over:
//   * boolean variables        (session.is_closing, s#null, handle.is_open)
//   * integer comparisons      (v ⋈ c  and  v ⋈ w  for ⋈ in ==,!=,<,<=,>,>=)
// This header defines immutable formula trees over that fragment; solver.hpp
// decides them.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace lisa::smt {

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

[[nodiscard]] const char* cmp_op_text(CmpOp op);
/// The operator satisfied exactly when `op` is not: !(a < b) ⇔ a >= b.
[[nodiscard]] CmpOp cmp_negate(CmpOp op);
/// The operator with swapped operands: a < b ⇔ b > a.
[[nodiscard]] CmpOp cmp_swap(CmpOp op);
/// Whether `a op b` holds on concrete integers.
[[nodiscard]] bool cmp_holds(std::int64_t a, CmpOp op, std::int64_t b);

/// One theory atom. Variables are named by dotted access paths exactly as
/// they appear in contracts ("s.ttl", "session.is_closing"); the reserved
/// "#null" suffix marks nullness indicator variables.
struct Atom {
  enum class Kind { kBoolVar, kCmpConst, kCmpVar };

  Kind kind = Kind::kBoolVar;
  std::string lhs;              // variable name
  CmpOp op = CmpOp::kEq;        // comparisons only
  std::int64_t rhs_const = 0;   // kCmpConst
  std::string rhs_var;          // kCmpVar

  [[nodiscard]] static Atom bool_var(std::string name);
  [[nodiscard]] static Atom cmp_const(std::string lhs, CmpOp op, std::int64_t rhs);
  [[nodiscard]] static Atom cmp_var(std::string lhs, CmpOp op, std::string rhs);

  /// Canonical text, e.g. "s.ttl > 0"; equal atoms render equally.
  [[nodiscard]] std::string key() const;

  friend bool operator==(const Atom& a, const Atom& b) {
    return a.kind == b.kind && a.lhs == b.lhs && a.op == b.op &&
           a.rhs_const == b.rhs_const && a.rhs_var == b.rhs_var;
  }
};

struct Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

/// Immutable formula node. Construct through the static factories, which
/// perform light simplification (constant folding, flattening of nested
/// conjunctions/disjunctions, double-negation elimination).
struct Formula {
  enum class Kind { kTrue, kFalse, kAtom, kNot, kAnd, kOr };

  Kind kind = Kind::kTrue;
  Atom atom;                        // kAtom
  std::vector<FormulaPtr> children; // kNot (1), kAnd/kOr (>=2 after flattening)

  [[nodiscard]] static FormulaPtr truth(bool value);
  [[nodiscard]] static FormulaPtr make_atom(Atom atom);
  [[nodiscard]] static FormulaPtr negate(FormulaPtr f);
  [[nodiscard]] static FormulaPtr conj(std::vector<FormulaPtr> fs);
  [[nodiscard]] static FormulaPtr disj(std::vector<FormulaPtr> fs);
  [[nodiscard]] static FormulaPtr conj2(FormulaPtr a, FormulaPtr b);
  [[nodiscard]] static FormulaPtr disj2(FormulaPtr a, FormulaPtr b);

  /// Infix rendering, fully parenthesized.
  [[nodiscard]] std::string to_string() const;

  /// All variable names mentioned by the formula.
  [[nodiscard]] std::set<std::string> variables() const;

  /// Structural equality.
  [[nodiscard]] bool equals(const Formula& other) const;
};

/// Negation-normal form: negations pushed to atoms, with comparison atoms
/// negated in place (e.g. ¬(x < 3) becomes x >= 3) so only boolean variables
/// keep explicit polarity.
[[nodiscard]] FormulaPtr to_nnf(const FormulaPtr& f);

}  // namespace lisa::smt
