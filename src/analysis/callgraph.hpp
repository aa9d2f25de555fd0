// Call-graph construction over MiniLang programs — the reproduction's Soot.
//
// Nodes are functions; edges are syntactic call sites. Blocking builtins
// (write_record, fsync_log, ...) appear as leaf pseudo-nodes so that
// transitive "does this function ever block?" queries (needed by the
// no-blocking-in-sync structural rule) are simple reachability.
//
// The graph is the program's one structural index, built once per
// evaluation: it also holds every function's CFG and every non-@test
// statement's canonical header, and `targets` is the one rule that binds a
// contract's target fragment to statements. Analyses borrow from it.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/cfg.hpp"
#include "minilang/ast.hpp"

namespace lisa::analysis {

/// One syntactic call site: `call` appears somewhere inside `stmt` of
/// `caller`. Pointers borrow from the Program, which must outlive the graph.
struct CallSite {
  const minilang::FuncDecl* caller = nullptr;
  const minilang::Stmt* stmt = nullptr;
  const minilang::Expr* call = nullptr;  // Expr::Kind::kCall

  [[nodiscard]] const std::string& callee() const { return call->text; }
};

/// A statement outside the @test functions and its canonical header
/// (minilang::stmt_header_text), the text target fragments match.
struct StatementHeader {
  const minilang::FuncDecl* function = nullptr;
  const minilang::Stmt* stmt = nullptr;
  std::string text;
};

/// The strongly-connected-component condensation of the call graph,
/// restricted to user-defined functions (builtins are effect leaves, not
/// nodes). Components are emitted in *reverse topological* order: every
/// callee's component precedes its callers', so a bottom-up summary pass
/// can simply iterate `components` front to back. Where several functions
/// share a name, the first one (Program::find_function's) stands for all.
struct Condensation {
  struct Component {
    std::vector<const minilang::FuncDecl*> members;  // discovery order
    /// True when the component is a cycle: more than one member, or a
    /// single member that calls itself. Summary inference must iterate
    /// such components to a (widened) fixpoint instead of a single pass.
    bool recursive = false;
  };

  const minilang::Program* program = nullptr;
  std::vector<Component> components;  // reverse topological order
  std::vector<int> component_of;      // function position → component index

  [[nodiscard]] std::size_t size() const { return components.size(); }
  /// Component index of `fn`, a function of `program`.
  [[nodiscard]] int component_index(const minilang::FuncDecl& fn) const {
    return component_of[static_cast<std::size_t>(&fn - program->functions.data())];
  }
  /// Component index of the function named `name`, or -1 for unknown
  /// (builtin) names.
  [[nodiscard]] int component_index(std::string_view name) const {
    const minilang::FuncDecl* fn = program->find_function(name);
    return fn == nullptr ? -1 : component_index(*fn);
  }
};

class CallGraph {
 public:
  /// Builds the graph, every function's CFG, every statement header
  /// (counted in the `analysis.statement_headers` metric), the entry
  /// functions and the condensation under a `callgraph.build` span;
  /// `program` must outlive the result.
  [[nodiscard]] static CallGraph build(const minilang::Program& program);

  /// All call sites whose callee is `name`, in program order.
  [[nodiscard]] const std::vector<CallSite>& sites_calling(const std::string& name) const;

  /// The CFG of `fn`, a function of this graph's program.
  [[nodiscard]] const Cfg& cfg(const minilang::FuncDecl& fn) const;

  /// Statements outside the @test functions whose header contains
  /// `fragment`: functions in declaration order, statements depth-first.
  [[nodiscard]] std::vector<const StatementHeader*> targets(std::string_view fragment) const;

  /// Direct callees of `name` (user functions only).
  [[nodiscard]] const std::set<std::string>& callees_of(const std::string& name) const;

  /// Direct callers of `name`.
  [[nodiscard]] const std::set<std::string>& callers_of(const std::string& name) const;

  /// Functions with no callers inside the program, plus @entry-annotated
  /// ones, in declaration order. @test functions are excluded: they are
  /// inputs, not API surface.
  [[nodiscard]] const std::vector<const minilang::FuncDecl*>& entry_functions() const {
    return entries_;
  }

  /// All acyclic call chains `entry → ... → target` (each element a function
  /// name), capped at `max_chains`. If `target` is itself an entry, the
  /// one-element chain is included.
  [[nodiscard]] std::vector<std::vector<std::string>> chains_to(
      const std::string& target, std::size_t max_chains = 256) const;

  /// True if `name` (transitively) performs a blocking call — reaches a
  /// blocking builtin or an @blocking function.
  [[nodiscard]] bool reaches_blocking(const std::string& name) const;

  /// Tarjan SCC condensation over user-defined functions, components in
  /// reverse topological (callees-first) order. Edges to builtins are
  /// dropped; they have no bodies to summarize.
  [[nodiscard]] const Condensation& condensation() const { return condensation_; }

  /// Position in the program's function list of the function that stands
  /// for `fn`'s name: the first one declared with it, which is `fn` unless
  /// an earlier function shares its name.
  [[nodiscard]] std::size_t function_index(const minilang::FuncDecl& fn) const {
    return first_of_name_[static_cast<std::size_t>(&fn - program_->functions.data())];
  }

 private:
  const minilang::Program* program_ = nullptr;
  std::unordered_map<std::string_view, std::vector<CallSite>> sites_by_callee_;
  std::vector<Cfg> cfgs_;                 // one per function, declaration order
  std::vector<StatementHeader> headers_;  // program order, @test functions skipped
  std::map<std::string, std::set<std::string>> callees_;
  std::map<std::string, std::set<std::string>> callers_;
  mutable std::map<std::string, bool> blocking_cache_;
  std::vector<std::size_t> first_of_name_;  // by position; see function_index
  std::vector<const minilang::FuncDecl*> entries_;
  Condensation condensation_;
};

}  // namespace lisa::analysis
