#include "smt/minilang_bridge.hpp"

#include "minilang/parser.hpp"
#include "minilang/printer.hpp"

namespace lisa::smt {

using minilang::BinOp;
using minilang::Expr;
using minilang::UnOp;

std::string access_path(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kVar:
      return expr.text;
    case Expr::Kind::kField: {
      const std::string base = access_path(*expr.args[0]);
      if (base.empty()) return "";
      return base + "." + expr.text;
    }
    default:
      return "";
  }
}

std::optional<CmpOp> to_cmp(BinOp op) {
  switch (op) {
    case BinOp::kEq: return CmpOp::kEq;
    case BinOp::kNe: return CmpOp::kNe;
    case BinOp::kLt: return CmpOp::kLt;
    case BinOp::kLe: return CmpOp::kLe;
    case BinOp::kGt: return CmpOp::kGt;
    case BinOp::kGe: return CmpOp::kGe;
    default: return std::nullopt;
  }
}

namespace {

std::optional<FormulaPtr> opaque(const Expr& expr, OpaquePolicy policy) {
  if (policy == OpaquePolicy::kReject) return std::nullopt;
  return Formula::make_atom(Atom::bool_var("opaque:" + minilang::expr_text(expr)));
}

std::optional<FormulaPtr> convert(const Expr& expr, OpaquePolicy policy) {
  switch (expr.kind) {
    case Expr::Kind::kBoolLit:
      return Formula::truth(expr.bool_value);
    case Expr::Kind::kVar:
    case Expr::Kind::kField: {
      const std::string path = access_path(expr);
      if (path.empty()) return opaque(expr, policy);
      return Formula::make_atom(Atom::bool_var(path));
    }
    case Expr::Kind::kUnary: {
      if (expr.un_op != UnOp::kNot) return opaque(expr, policy);
      auto inner = convert(*expr.args[0], policy);
      if (!inner.has_value()) return std::nullopt;
      return Formula::negate(std::move(*inner));
    }
    case Expr::Kind::kBinary: {
      const Expr& lhs = *expr.args[0];
      const Expr& rhs = *expr.args[1];
      if (expr.bin_op == BinOp::kAnd || expr.bin_op == BinOp::kOr) {
        auto a = convert(lhs, policy);
        auto b = convert(rhs, policy);
        if (!a.has_value() || !b.has_value()) return std::nullopt;
        return expr.bin_op == BinOp::kAnd ? Formula::conj2(std::move(*a), std::move(*b))
                                          : Formula::disj2(std::move(*a), std::move(*b));
      }
      const std::optional<CmpOp> cmp = to_cmp(expr.bin_op);
      if (!cmp.has_value()) return opaque(expr, policy);

      // Null tests: `p == null`, `null != p`.
      const bool lhs_null = lhs.kind == Expr::Kind::kNullLit;
      const bool rhs_null = rhs.kind == Expr::Kind::kNullLit;
      if (lhs_null || rhs_null) {
        const Expr& target = lhs_null ? rhs : lhs;
        const std::string path = access_path(target);
        if (path.empty() || (*cmp != CmpOp::kEq && *cmp != CmpOp::kNe))
          return opaque(expr, policy);
        FormulaPtr is_null = Formula::make_atom(Atom::bool_var(path + "#null"));
        return *cmp == CmpOp::kEq ? is_null : Formula::negate(std::move(is_null));
      }

      // Boolean equality against literals: `p.is_closing == false`.
      const bool lhs_bool = lhs.kind == Expr::Kind::kBoolLit;
      const bool rhs_bool = rhs.kind == Expr::Kind::kBoolLit;
      if (lhs_bool || rhs_bool) {
        if (*cmp != CmpOp::kEq && *cmp != CmpOp::kNe) return opaque(expr, policy);
        const Expr& literal = lhs_bool ? lhs : rhs;
        const Expr& target = lhs_bool ? rhs : lhs;
        auto inner = convert(target, policy);
        if (!inner.has_value()) return std::nullopt;
        const bool want = literal.bool_value == (*cmp == CmpOp::kEq);
        return want ? *inner : Formula::negate(std::move(*inner));
      }

      // Integer comparisons: path ⋈ literal, literal ⋈ path, path ⋈ path.
      const bool lhs_int = lhs.kind == Expr::Kind::kIntLit;
      const bool rhs_int = rhs.kind == Expr::Kind::kIntLit;
      if (lhs_int && rhs_int) {
        // Constant-fold.
        const std::int64_t a = lhs.int_value;
        const std::int64_t b = rhs.int_value;
        bool value = false;
        switch (*cmp) {
          case CmpOp::kEq: value = a == b; break;
          case CmpOp::kNe: value = a != b; break;
          case CmpOp::kLt: value = a < b; break;
          case CmpOp::kLe: value = a <= b; break;
          case CmpOp::kGt: value = a > b; break;
          case CmpOp::kGe: value = a >= b; break;
        }
        return Formula::truth(value);
      }
      if (rhs_int) {
        const std::string path = access_path(lhs);
        if (path.empty()) return opaque(expr, policy);
        return Formula::make_atom(Atom::cmp_const(path, *cmp, rhs.int_value));
      }
      if (lhs_int) {
        const std::string path = access_path(rhs);
        if (path.empty()) return opaque(expr, policy);
        return Formula::make_atom(Atom::cmp_const(path, cmp_swap(*cmp), lhs.int_value));
      }
      {
        const std::string lhs_path = access_path(lhs);
        const std::string rhs_path = access_path(rhs);
        if (lhs_path.empty() || rhs_path.empty()) return opaque(expr, policy);
        if (*cmp == CmpOp::kEq || *cmp == CmpOp::kNe) {
          // Ambiguous: could be bool==bool or int==int. Model as integer
          // equality, which is also sound for booleans encoded as 0/1 — the
          // normalization step in src/inference resolves typed variables.
          return Formula::make_atom(Atom::cmp_var(lhs_path, *cmp, rhs_path));
        }
        return Formula::make_atom(Atom::cmp_var(lhs_path, *cmp, rhs_path));
      }
    }
    default:
      return opaque(expr, policy);
  }
}

}  // namespace

std::optional<FormulaPtr> to_formula(const Expr& expr, OpaquePolicy policy) {
  return convert(expr, policy);
}

std::optional<FormulaPtr> parse_condition(const std::string& condition_text) {
  try {
    const minilang::ExprPtr expr = minilang::parse_expression(condition_text);
    return convert(*expr, OpaquePolicy::kReject);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace lisa::smt
