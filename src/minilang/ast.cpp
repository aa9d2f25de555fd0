#include "minilang/ast.hpp"

#include <algorithm>

namespace lisa::minilang {

namespace {
TypePtr make_simple(Type::Kind kind) {
  auto type = std::make_shared<Type>();
  type->kind = kind;
  return type;
}
}  // namespace

TypePtr Type::make_int() {
  static const TypePtr instance = make_simple(Kind::kInt);
  return instance;
}
TypePtr Type::make_bool() {
  static const TypePtr instance = make_simple(Kind::kBool);
  return instance;
}
TypePtr Type::make_string() {
  static const TypePtr instance = make_simple(Kind::kString);
  return instance;
}
TypePtr Type::make_void() {
  static const TypePtr instance = make_simple(Kind::kVoid);
  return instance;
}
TypePtr Type::make_any() {
  static const TypePtr instance = make_simple(Kind::kAny);
  return instance;
}

TypePtr Type::make_struct(std::string name, bool nullable) {
  auto type = std::make_shared<Type>();
  type->kind = Kind::kStruct;
  type->struct_name = std::move(name);
  type->nullable = nullable;
  return type;
}

TypePtr Type::make_list(TypePtr elem) {
  auto type = std::make_shared<Type>();
  type->kind = Kind::kList;
  type->elem = std::move(elem);
  return type;
}

TypePtr Type::make_map(TypePtr key, TypePtr value) {
  auto type = std::make_shared<Type>();
  type->kind = Kind::kMap;
  type->key = std::move(key);
  type->elem = std::move(value);
  return type;
}

TypePtr Type::as_nullable(const TypePtr& base) {
  auto type = std::make_shared<Type>(*base);
  type->nullable = true;
  return type;
}

std::string Type::to_string() const {
  std::string out;
  switch (kind) {
    case Kind::kInt: out = "int"; break;
    case Kind::kBool: out = "bool"; break;
    case Kind::kString: out = "string"; break;
    case Kind::kVoid: out = "void"; break;
    case Kind::kAny: out = "any"; break;
    case Kind::kStruct: out = struct_name; break;
    case Kind::kList: out = "list<" + (elem ? elem->to_string() : "any") + ">"; break;
    case Kind::kMap:
      out = "map<" + (key ? key->to_string() : "any") + "," +
            (elem ? elem->to_string() : "any") + ">";
      break;
  }
  if (nullable) out.push_back('?');
  return out;
}

const char* bin_op_text(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kEq: return "==";
    case BinOp::kNe: return "!=";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kAnd: return "&&";
    case BinOp::kOr: return "||";
  }
  return "?";
}

const FieldDecl* StructDecl::find_field(const std::string& field_name) const {
  const auto it = std::find_if(fields.begin(), fields.end(),
                               [&](const FieldDecl& f) { return f.name == field_name; });
  return it == fields.end() ? nullptr : &*it;
}

bool FuncDecl::has_annotation(std::string_view annotation) const {
  return std::find(annotations.begin(), annotations.end(), annotation) != annotations.end();
}

namespace {

using NameIndex = std::vector<std::pair<std::string_view, std::size_t>>;

/// Shorter names first, then by bytes, so most steps of a lookup compare
/// only lengths.
bool name_before(std::string_view a, std::string_view b) {
  return a.size() != b.size() ? a.size() < b.size() : a < b;
}

template <class Decl>
NameIndex index_by_name(const std::vector<Decl>& decls) {
  NameIndex index;
  index.reserve(decls.size());
  for (std::size_t i = 0; i < decls.size(); ++i) index.emplace_back(decls[i].name, i);
  std::stable_sort(index.begin(), index.end(),
                   [](const auto& a, const auto& b) { return name_before(a.first, b.first); });
  return index;
}

template <class Decl>
const Decl* find_by_name(const NameIndex& index, const std::vector<Decl>& decls,
                         std::string_view name) {
  const auto it = std::lower_bound(
      index.begin(), index.end(), name,
      [](const auto& entry, std::string_view key) { return name_before(entry.first, key); });
  return it != index.end() && it->first == name ? &decls[it->second] : nullptr;
}

}  // namespace

const StructDecl* Program::find_struct(std::string_view name) const {
  return find_by_name(struct_index_, structs, name);
}

const FuncDecl* Program::find_function(std::string_view name) const {
  return find_by_name(function_index_, functions, name);
}

void Program::index_declarations() {
  struct_index_ = index_by_name(structs);
  function_index_ = index_by_name(functions);
}

std::vector<const FuncDecl*> Program::functions_with(std::string_view annotation) const {
  std::vector<const FuncDecl*> out;
  for (const FuncDecl& fn : functions)
    if (fn.has_annotation(annotation)) out.push_back(&fn);
  return out;
}

namespace {
void visit_stmts(const FuncDecl& fn, const std::vector<StmtPtr>& stmts,
                 const std::function<void(const FuncDecl&, const Stmt&)>& visit) {
  for (const StmtPtr& stmt : stmts) {
    visit(fn, *stmt);
    visit_stmts(fn, stmt->body, visit);
    visit_stmts(fn, stmt->else_body, visit);
  }
}
}  // namespace

void Program::for_each_stmt(
    const std::function<void(const FuncDecl&, const Stmt&)>& visit) const {
  for (const FuncDecl& fn : functions) visit_stmts(fn, fn.body, visit);
}

}  // namespace lisa::minilang
