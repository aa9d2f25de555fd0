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
/// can simply iterate `components` front to back.
struct Condensation {
  struct Component {
    std::vector<std::string> members;  // function names, discovery order
    /// True when the component is a cycle: more than one member, or a
    /// single member that calls itself. Summary inference must iterate
    /// such components to a (widened) fixpoint instead of a single pass.
    bool recursive = false;
  };

  std::vector<Component> components;        // reverse topological order
  std::map<std::string, int> component_of;  // function name → index

  [[nodiscard]] std::size_t size() const { return components.size(); }
  /// Component index of `name`, or -1 for unknown (builtin) names.
  [[nodiscard]] int component_index(const std::string& name) const {
    const auto it = component_of.find(name);
    return it == component_of.end() ? -1 : it->second;
  }
};

class CallGraph {
 public:
  /// Builds the graph, every function's CFG and every statement header
  /// (counted in the `analysis.statement_headers` metric) under a
  /// `callgraph.build` span; `program` must outlive the result.
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
  /// ones. @test functions are excluded: they are inputs, not API surface.
  [[nodiscard]] std::vector<const minilang::FuncDecl*> entry_functions() const;

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
  [[nodiscard]] Condensation condensation() const;

 private:
  const minilang::Program* program_ = nullptr;
  std::unordered_map<std::string_view, std::vector<CallSite>> sites_by_callee_;
  std::vector<Cfg> cfgs_;                 // one per function, declaration order
  std::vector<StatementHeader> headers_;  // program order, @test functions skipped
  std::map<std::string, std::set<std::string>> callees_;
  std::map<std::string, std::set<std::string>> callers_;
  mutable std::map<std::string, bool> blocking_cache_;
};

}  // namespace lisa::analysis
