// Abstract syntax tree for MiniLang.
//
// The AST is deliberately a pair of tagged structs (Expr / Stmt) rather than a
// class hierarchy: every consumer in this repository (interpreter, concolic
// engine, call-graph builder, diff engine, printer) walks the whole tree, so
// a closed tag set with direct field access is simpler and faster than
// virtual dispatch.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "minilang/token.hpp"

namespace lisa::minilang {

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

struct Type;
using TypePtr = std::shared_ptr<const Type>;

struct Type {
  enum class Kind { kInt, kBool, kString, kVoid, kStruct, kList, kMap, kAny };

  Kind kind = Kind::kAny;
  std::string struct_name;  // kStruct only
  bool nullable = false;    // `T?`
  TypePtr elem;             // kList: element; kMap: value
  TypePtr key;              // kMap: key

  [[nodiscard]] static TypePtr make_int();
  [[nodiscard]] static TypePtr make_bool();
  [[nodiscard]] static TypePtr make_string();
  [[nodiscard]] static TypePtr make_void();
  [[nodiscard]] static TypePtr make_any();
  [[nodiscard]] static TypePtr make_struct(std::string name, bool nullable);
  [[nodiscard]] static TypePtr make_list(TypePtr elem);
  [[nodiscard]] static TypePtr make_map(TypePtr key, TypePtr value);
  /// Copy of `base` with the nullable flag set.
  [[nodiscard]] static TypePtr as_nullable(const TypePtr& base);

  /// Canonical source rendering, e.g. "Session?", "list<int>".
  [[nodiscard]] std::string to_string() const;
};

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;
struct FuncDecl;
struct StructDecl;

/// Binary operator spellings reuse the token kinds of their operators.
enum class BinOp { kAdd, kSub, kMul, kDiv, kMod, kEq, kNe, kLt, kLe, kGt, kGe, kAnd, kOr };
enum class UnOp { kNot, kNeg };

[[nodiscard]] const char* bin_op_text(BinOp op);

struct Expr {
  enum class Kind {
    kIntLit,
    kBoolLit,
    kStrLit,
    kNullLit,
    kVar,       // text = name
    kField,     // args[0] = base, text = field name
    kIndex,     // args[0] = base, args[1] = index
    kUnary,     // args[0]
    kBinary,    // args[0], args[1]
    kCall,      // text = callee, args = arguments
    kNew,       // text = struct name, field_names[i] paired with args[i]
  };

  Kind kind;
  SourceLoc loc;
  std::int64_t int_value = 0;
  bool bool_value = false;
  std::string text;  // meaning depends on kind (see above); string literal body
  BinOp bin_op = BinOp::kAdd;
  UnOp un_op = UnOp::kNot;
  std::vector<ExprPtr> args;
  std::vector<std::string> field_names;  // kNew only
  /// What Program::index_declarations() resolved `text` to: for kCall the
  /// function find_function returns (null for builtins), for kNew the
  /// struct find_struct returns. Both point into the owning Program.
  const FuncDecl* callee = nullptr;
  const StructDecl* struct_decl = nullptr;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Stmt {
  enum class Kind {
    kLet,       // name, declared_type (optional), expr = initializer
    kAssign,    // lvalue = expr, rhs = expr2
    kIf,        // expr = condition, body / else_body
    kWhile,     // expr = condition, body
    kReturn,    // expr optional
    kThrow,     // expr
    kExpr,      // expr
    kSync,      // expr = monitor, body
    kSpawn,     // expr = kCall naming the thread root (scheduler: new thread;
                // serial engines: the call runs inline to completion)
    kBlock,     // body
    kTry,       // body, catch_var, else_body = catch handler
    kBreak,
    kContinue,
  };

  Kind kind;
  SourceLoc loc;
  int id = -1;  // unique within a Program, assigned by the parser

  std::string name;       // kLet variable name
  TypePtr declared_type;  // kLet annotation (may be null)
  ExprPtr expr;           // condition / initializer / lvalue / thrown value
  ExprPtr expr2;          // kAssign rhs
  std::vector<StmtPtr> body;
  std::vector<StmtPtr> else_body;  // kIf else branch; kTry catch handler
  std::string catch_var;           // kTry
};

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

struct FieldDecl {
  std::string name;
  TypePtr type;
};

struct StructDecl {
  std::string name;
  std::vector<FieldDecl> fields;
  SourceLoc loc;

  [[nodiscard]] const FieldDecl* find_field(const std::string& field_name) const;
};

struct Param {
  std::string name;
  TypePtr type;
};

struct FuncDecl {
  std::string name;
  std::vector<Param> params;
  TypePtr return_type;  // null means void
  std::vector<StmtPtr> body;
  SourceLoc loc;
  // Annotations preceding the declaration: @entry (public API surface the
  // execution-tree builder roots searches at), @test (runnable test; used as
  // concolic input), @blocking (performs blocking I/O; feeds the
  // no-blocking-in-sync structural rule).
  std::vector<std::string> annotations;

  [[nodiscard]] bool has_annotation(std::string_view annotation) const;
};

/// A parsed MiniLang compilation unit. Owns all AST nodes.
struct Program {
  std::vector<StructDecl> structs;
  std::vector<FuncDecl> functions;
  std::string source;   // original text, kept for diffs and reports
  int next_stmt_id = 0;

  /// Declaration named `name` (the first one, if several share it), or
  /// nullptr, by binary search in the index of index_declarations().
  [[nodiscard]] const StructDecl* find_struct(std::string_view name) const;
  [[nodiscard]] const FuncDecl* find_function(std::string_view name) const;

  /// Indexes structs and functions by name and resolves every call and
  /// `new` expression against the index (Expr::callee, Expr::struct_decl).
  /// The parser calls it once the program is complete. The index and the
  /// resolved pointers view the declarations, so neither list may change
  /// afterwards; moving the Program keeps them valid.
  void index_declarations();

  /// All functions carrying `annotation` (e.g. "test", "entry").
  [[nodiscard]] std::vector<const FuncDecl*> functions_with(std::string_view annotation) const;

  /// Depth-first visit of every statement in every function.
  /// The visitor receives the owning function and the statement.
  void for_each_stmt(
      const std::function<void(const FuncDecl&, const Stmt&)>& visit) const;

 private:
  // (name, position) pairs in sorted order, so equal names keep
  // declaration order.
  std::vector<std::pair<std::string_view, std::size_t>> struct_index_;
  std::vector<std::pair<std::string_view, std::size_t>> function_index_;
};

}  // namespace lisa::minilang
