#include "smt/formula.hpp"

#include <algorithm>

namespace lisa::smt {

const char* cmp_op_text(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "==";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

CmpOp cmp_negate(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return CmpOp::kNe;
    case CmpOp::kNe: return CmpOp::kEq;
    case CmpOp::kLt: return CmpOp::kGe;
    case CmpOp::kLe: return CmpOp::kGt;
    case CmpOp::kGt: return CmpOp::kLe;
    case CmpOp::kGe: return CmpOp::kLt;
  }
  return op;
}

CmpOp cmp_swap(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return CmpOp::kEq;
    case CmpOp::kNe: return CmpOp::kNe;
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
  }
  return op;
}

bool cmp_holds(std::int64_t a, CmpOp op, std::int64_t b) {
  switch (op) {
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
  }
  return false;
}

Atom Atom::bool_var(std::string name) {
  Atom atom;
  atom.kind = Kind::kBoolVar;
  atom.lhs = std::move(name);
  return atom;
}

Atom Atom::cmp_const(std::string lhs, CmpOp op, std::int64_t rhs) {
  Atom atom;
  atom.kind = Kind::kCmpConst;
  atom.lhs = std::move(lhs);
  atom.op = op;
  atom.rhs_const = rhs;
  return atom;
}

Atom Atom::cmp_var(std::string lhs, CmpOp op, std::string rhs) {
  Atom atom;
  atom.kind = Kind::kCmpVar;
  atom.lhs = std::move(lhs);
  atom.op = op;
  atom.rhs_var = std::move(rhs);
  return atom;
}

std::string Atom::key() const {
  switch (kind) {
    case Kind::kBoolVar: return lhs;
    case Kind::kCmpConst:
      return lhs + " " + cmp_op_text(op) + " " + std::to_string(rhs_const);
    case Kind::kCmpVar: return lhs + " " + cmp_op_text(op) + " " + rhs_var;
  }
  return "?";
}

namespace {
FormulaPtr make_node(Formula::Kind kind, std::vector<FormulaPtr> children) {
  auto f = std::make_shared<Formula>();
  f->kind = kind;
  f->children = std::move(children);
  return f;
}
}  // namespace

FormulaPtr Formula::truth(bool value) {
  static const FormulaPtr t = make_node(Kind::kTrue, {});
  static const FormulaPtr f = make_node(Kind::kFalse, {});
  return value ? t : f;
}

FormulaPtr Formula::make_atom(Atom atom) {
  auto f = std::make_shared<Formula>();
  f->kind = Kind::kAtom;
  f->atom = std::move(atom);
  return f;
}

FormulaPtr Formula::negate(FormulaPtr f) {
  switch (f->kind) {
    case Kind::kTrue: return truth(false);
    case Kind::kFalse: return truth(true);
    case Kind::kNot: return f->children[0];
    default: return make_node(Kind::kNot, {std::move(f)});
  }
}

FormulaPtr Formula::conj(std::vector<FormulaPtr> fs) {
  std::vector<FormulaPtr> flat;
  for (FormulaPtr& f : fs) {
    if (!f || f->kind == Kind::kTrue) continue;
    if (f->kind == Kind::kFalse) return truth(false);
    if (f->kind == Kind::kAnd) {
      for (const FormulaPtr& child : f->children) flat.push_back(child);
    } else {
      flat.push_back(std::move(f));
    }
  }
  // Dedup structurally identical conjuncts (common after path collection).
  std::vector<FormulaPtr> unique;
  for (const FormulaPtr& f : flat) {
    const bool seen = std::any_of(unique.begin(), unique.end(),
                                  [&](const FormulaPtr& g) { return g->equals(*f); });
    if (!seen) unique.push_back(f);
  }
  if (unique.empty()) return truth(true);
  if (unique.size() == 1) return unique[0];
  return make_node(Kind::kAnd, std::move(unique));
}

FormulaPtr Formula::disj(std::vector<FormulaPtr> fs) {
  std::vector<FormulaPtr> flat;
  for (FormulaPtr& f : fs) {
    if (!f || f->kind == Kind::kFalse) continue;
    if (f->kind == Kind::kTrue) return truth(true);
    if (f->kind == Kind::kOr) {
      for (const FormulaPtr& child : f->children) flat.push_back(child);
    } else {
      flat.push_back(std::move(f));
    }
  }
  std::vector<FormulaPtr> unique;
  for (const FormulaPtr& f : flat) {
    const bool seen = std::any_of(unique.begin(), unique.end(),
                                  [&](const FormulaPtr& g) { return g->equals(*f); });
    if (!seen) unique.push_back(f);
  }
  if (unique.empty()) return truth(false);
  if (unique.size() == 1) return unique[0];
  return make_node(Kind::kOr, std::move(unique));
}

FormulaPtr Formula::conj2(FormulaPtr a, FormulaPtr b) {
  std::vector<FormulaPtr> fs;
  fs.push_back(std::move(a));
  fs.push_back(std::move(b));
  return conj(std::move(fs));
}

FormulaPtr Formula::disj2(FormulaPtr a, FormulaPtr b) {
  std::vector<FormulaPtr> fs;
  fs.push_back(std::move(a));
  fs.push_back(std::move(b));
  return disj(std::move(fs));
}

std::string Formula::to_string() const {
  switch (kind) {
    case Kind::kTrue: return "true";
    case Kind::kFalse: return "false";
    case Kind::kAtom: return atom.key();
    case Kind::kNot: return "!(" + children[0]->to_string() + ")";
    case Kind::kAnd:
    case Kind::kOr: {
      const char* sep = kind == Kind::kAnd ? " && " : " || ";
      std::string out = "(";
      for (std::size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += sep;
        out += children[i]->to_string();
      }
      return out + ")";
    }
  }
  return "?";
}

std::set<std::string> Formula::variables() const {
  std::set<std::string> out;
  if (kind == Kind::kAtom) {
    out.insert(atom.lhs);
    if (atom.kind == Atom::Kind::kCmpVar) out.insert(atom.rhs_var);
  }
  for (const FormulaPtr& child : children) {
    const std::set<std::string> sub = child->variables();
    out.insert(sub.begin(), sub.end());
  }
  return out;
}

bool Formula::equals(const Formula& other) const {
  if (kind != other.kind) return false;
  if (kind == Kind::kAtom) return atom == other.atom;
  if (children.size() != other.children.size()) return false;
  for (std::size_t i = 0; i < children.size(); ++i)
    if (!children[i]->equals(*other.children[i])) return false;
  return true;
}

namespace {
FormulaPtr nnf(const FormulaPtr& f, bool negated) {
  switch (f->kind) {
    case Formula::Kind::kTrue: return Formula::truth(!negated);
    case Formula::Kind::kFalse: return Formula::truth(negated);
    case Formula::Kind::kAtom: {
      if (!negated) return f;
      if (f->atom.kind == Atom::Kind::kBoolVar)
        return Formula::negate(f);  // keep polarity on boolean vars
      Atom flipped = f->atom;
      flipped.op = cmp_negate(flipped.op);
      return Formula::make_atom(std::move(flipped));
    }
    case Formula::Kind::kNot: return nnf(f->children[0], !negated);
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr: {
      std::vector<FormulaPtr> children;
      children.reserve(f->children.size());
      for (const FormulaPtr& child : f->children) children.push_back(nnf(child, negated));
      const bool is_and = (f->kind == Formula::Kind::kAnd) != negated;
      return is_and ? Formula::conj(std::move(children)) : Formula::disj(std::move(children));
    }
  }
  return f;
}
}  // namespace

FormulaPtr to_nnf(const FormulaPtr& f) { return nnf(f, /*negated=*/false); }

}  // namespace lisa::smt
