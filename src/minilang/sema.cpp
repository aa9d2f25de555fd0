#include "minilang/sema.hpp"

#include <string_view>
#include <unordered_set>

#include "minilang/builtins.hpp"
#include "minilang/parser.hpp"
#include "obs/trace.hpp"

namespace lisa::minilang {
namespace {

class Checker {
 public:
  explicit Checker(const Program& program) : program_(program) {}

  std::vector<Diagnostic> run() {
    check_structs();
    for (const FuncDecl& fn : program_.functions) check_function(fn);
    return std::move(diags_);
  }

 private:
  void report(SourceLoc loc, std::string message) {
    diags_.push_back(Diagnostic{loc, std::move(message), std::string(current_function_)});
  }

  void check_type(const TypePtr& type, SourceLoc loc) {
    if (!type) return;
    switch (type->kind) {
      case Type::Kind::kStruct:
        if (program_.find_struct(type->struct_name) == nullptr)
          report(loc, "unknown struct type: " + type->struct_name);
        return;
      case Type::Kind::kList:
        check_type(type->elem, loc);
        return;
      case Type::Kind::kMap:
        check_type(type->key, loc);
        check_type(type->elem, loc);
        return;
      default:
        return;
    }
  }

  void check_structs() {
    std::unordered_set<std::string_view> seen;
    for (const StructDecl& decl : program_.structs) {
      if (!seen.insert(decl.name).second)
        report(decl.loc, "duplicate struct: " + decl.name);
      std::unordered_set<std::string_view> fields;
      for (const FieldDecl& field : decl.fields) {
        if (!fields.insert(field.name).second)
          report(decl.loc, "duplicate field " + field.name + " in struct " + decl.name);
        check_type(field.type, decl.loc);
      }
    }
  }

  void check_function(const FuncDecl& fn) {
    current_function_ = fn.name;
    scopes_.clear();
    scopes_.emplace_back();
    for (const Param& param : fn.params) {
      if (!scopes_.back().insert(param.name).second)
        report(fn.loc, "duplicate parameter " + param.name + " in " + fn.name);
      check_type(param.type, fn.loc);
    }
    check_type(fn.return_type, fn.loc);
    check_block(fn.body);
    current_function_ = {};
  }

  void check_block(const std::vector<StmtPtr>& stmts) {
    scopes_.emplace_back();
    for (const StmtPtr& stmt : stmts) check_stmt(*stmt);
    scopes_.pop_back();
  }

  [[nodiscard]] bool declared(std::string_view name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it)
      if (it->count(name) > 0) return true;
    return false;
  }

  void check_stmt(const Stmt& stmt) {
    switch (stmt.kind) {
      case Stmt::Kind::kLet:
        check_type(stmt.declared_type, stmt.loc);
        check_expr(*stmt.expr);
        scopes_.back().insert(stmt.name);
        return;
      case Stmt::Kind::kAssign:
        check_expr(*stmt.expr);
        check_expr(*stmt.expr2);
        return;
      case Stmt::Kind::kIf:
        check_expr(*stmt.expr);
        check_block(stmt.body);
        check_block(stmt.else_body);
        return;
      case Stmt::Kind::kWhile:
      case Stmt::Kind::kSync:
        check_expr(*stmt.expr);
        check_block(stmt.body);
        return;
      case Stmt::Kind::kReturn:
        if (stmt.expr) check_expr(*stmt.expr);
        return;
      case Stmt::Kind::kThrow:
      case Stmt::Kind::kExpr:
        check_expr(*stmt.expr);
        return;
      case Stmt::Kind::kSpawn:
        // The parser guarantees expr is a call; the thread root must be a
        // declared function (builtins have no body to schedule).
        if (program_.find_function(stmt.expr->text) == nullptr)
          report(stmt.loc, "spawn target must be a declared function: " + stmt.expr->text);
        check_expr(*stmt.expr);
        return;
      case Stmt::Kind::kBlock:
        check_block(stmt.body);
        return;
      case Stmt::Kind::kTry: {
        check_block(stmt.body);
        scopes_.emplace_back();
        scopes_.back().insert(stmt.catch_var);
        for (const StmtPtr& handler_stmt : stmt.else_body) check_stmt(*handler_stmt);
        scopes_.pop_back();
        return;
      }
      case Stmt::Kind::kBreak:
      case Stmt::Kind::kContinue:
        return;
    }
  }

  void check_expr(const Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kVar:
        if (!declared(expr.text)) report(expr.loc, "unknown variable: " + expr.text);
        return;
      case Expr::Kind::kCall: {
        const FuncDecl* fn = program_.find_function(expr.text);
        if (fn == nullptr && find_builtin(expr.text) == nullptr)
          report(expr.loc, "unknown function: " + expr.text);
        if (fn != nullptr && fn->params.size() != expr.args.size())
          report(expr.loc, "arity mismatch calling " + expr.text + ": expected " +
                               std::to_string(fn->params.size()) + ", got " +
                               std::to_string(expr.args.size()));
        for (const ExprPtr& arg : expr.args) check_expr(*arg);
        return;
      }
      case Expr::Kind::kNew: {
        const StructDecl* decl = program_.find_struct(expr.text);
        if (decl == nullptr) {
          report(expr.loc, "unknown struct: " + expr.text);
        } else {
          for (const std::string& field : expr.field_names)
            if (decl->find_field(field) == nullptr)
              report(expr.loc, "struct " + expr.text + " has no field " + field);
        }
        for (const ExprPtr& arg : expr.args) check_expr(*arg);
        return;
      }
      default:
        for (const ExprPtr& arg : expr.args) check_expr(*arg);
        return;
    }
  }

  const Program& program_;
  std::vector<Diagnostic> diags_;
  std::vector<std::unordered_set<std::string_view>> scopes_;  // views of the program
  std::string_view current_function_;
};

}  // namespace

std::vector<Diagnostic> check(const Program& program) { return Checker(program).run(); }

Program parse_checked(std::string_view source) {
  obs::ScopedSpan span("minilang.parse");
  span.attr("bytes", source.size());
  std::size_t tokens = 0;
  Program program = parse(source, tokens);
  span.attr("tokens", tokens);
  const std::vector<Diagnostic> diags = check(program);
  if (!diags.empty()) {
    const Diagnostic& first = diags.front();
    throw std::runtime_error("MiniLang check failed in " +
                             (first.function.empty() ? std::string("<top>") : first.function) +
                             " at line " + std::to_string(first.loc.line) + ": " +
                             first.message + " (" + std::to_string(diags.size()) +
                             " diagnostics total)");
  }
  return program;
}

}  // namespace lisa::minilang
