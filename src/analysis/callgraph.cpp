#include "analysis/callgraph.hpp"

#include <algorithm>
#include <functional>

#include "minilang/builtins.hpp"
#include "minilang/printer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lisa::analysis {

using minilang::Expr;
using minilang::FuncDecl;
using minilang::Program;
using minilang::Stmt;

namespace {

/// Calls `on_call(stmt, call)` for every call expression in `expr`'s tree,
/// in pre-order.
template <class OnCall>
void collect_calls(const Stmt& stmt, const Expr& expr, OnCall& on_call) {
  if (expr.kind == Expr::Kind::kCall) on_call(stmt, expr);
  for (const minilang::ExprPtr& arg : expr.args) collect_calls(stmt, *arg, on_call);
}

/// Calls `on_call(stmt, call)` for every call in `stmts`, dead statements
/// after a return included, depth-first.
template <class OnCall>
void walk_stmts(const std::vector<minilang::StmtPtr>& stmts, OnCall& on_call) {
  for (const minilang::StmtPtr& stmt : stmts) {
    if (stmt->expr) collect_calls(*stmt, *stmt->expr, on_call);
    if (stmt->expr2) collect_calls(*stmt, *stmt->expr2, on_call);
    walk_stmts(stmt->body, on_call);
    walk_stmts(stmt->else_body, on_call);
  }
}

/// Tarjan's SCC algorithm over function positions. Visits callees in name
/// order; Tarjan pops each SCC only after every component reachable from it,
/// so the emission order is already reverse topological (callees first).
struct Tarjan {
  Tarjan(const std::vector<std::vector<std::size_t>>& callees_by_position,
         const std::vector<FuncDecl>& program_functions, Condensation& condensation)
      : callees(callees_by_position),
        functions(program_functions),
        out(condensation),
        index(functions.size(), -1),
        lowlink(functions.size(), -1),
        on_stack(functions.size(), 0) {}

  const std::vector<std::vector<std::size_t>>& callees;  // user callees by position
  const std::vector<FuncDecl>& functions;
  Condensation& out;
  std::vector<int> index;
  std::vector<int> lowlink;
  std::vector<char> on_stack;
  std::vector<std::size_t> stack;
  int next_index = 0;

  void strongconnect(std::size_t v) {
    index[v] = lowlink[v] = next_index++;
    on_stack[v] = 1;
    stack.push_back(v);
    for (const std::size_t w : callees[v]) {
      if (index[w] < 0) {
        strongconnect(w);
        lowlink[v] = std::min(lowlink[v], lowlink[w]);
      } else if (on_stack[w] != 0) {
        lowlink[v] = std::min(lowlink[v], index[w]);
      }
    }
    if (lowlink[v] != index[v]) return;
    Condensation::Component component;
    while (true) {
      const std::size_t w = stack.back();
      stack.pop_back();
      on_stack[w] = 0;
      out.component_of[w] = static_cast<int>(out.components.size());
      component.members.push_back(&functions[w]);
      if (w == v) break;
    }
    component.recursive =
        component.members.size() > 1 ||
        std::find(callees[v].begin(), callees[v].end(), v) != callees[v].end();
    out.components.push_back(std::move(component));
  }
};

/// Functions that are @entry-annotated or called by no function outside
/// the @test ones, in declaration order; @test functions are never entries.
std::vector<const FuncDecl*> find_entries(const Program& program, const CallGraph& graph) {
  std::vector<const FuncDecl*> entries;
  for (const FuncDecl& fn : program.functions) {
    if (fn.has_annotation("test")) continue;
    bool has_real_caller = false;
    for (const std::string& caller : graph.callers_of(fn.name)) {
      const FuncDecl* caller_fn = program.find_function(caller);
      if (caller_fn != nullptr && !caller_fn->has_annotation("test")) {
        has_real_caller = true;
        break;
      }
    }
    if (fn.has_annotation("entry") || !has_real_caller) entries.push_back(&fn);
  }
  return entries;
}

/// The condensation over each name's first function (`first_of_name` maps
/// every position to it); a node's callees are those of every function
/// with its name, in name order.
Condensation condense(const Program& program, const CallGraph& graph,
                      const std::vector<std::size_t>& first_of_name) {
  const std::size_t n = program.functions.size();
  std::vector<std::vector<std::size_t>> user_callees(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (first_of_name[i] != i) continue;
    for (const std::string& callee : graph.callees_of(program.functions[i].name))
      if (const FuncDecl* fn = program.find_function(callee))
        user_callees[i].push_back(static_cast<std::size_t>(fn - program.functions.data()));
  }
  Condensation condensation;
  condensation.program = &program;
  condensation.component_of.assign(n, -1);
  Tarjan tarjan(user_callees, program.functions, condensation);
  for (const std::size_t first : first_of_name)
    if (tarjan.index[first] < 0) tarjan.strongconnect(first);
  for (std::size_t i = 0; i < n; ++i)
    condensation.component_of[i] = condensation.component_of[first_of_name[i]];
  return condensation;
}

}  // namespace

CallGraph CallGraph::build(const Program& program) {
  obs::ScopedSpan span("callgraph.build");
  static obs::Counter& headers = obs::metrics().counter("analysis.statement_headers");
  CallGraph graph;
  graph.program_ = &program;
  graph.cfgs_.reserve(program.functions.size());
  for (const FuncDecl& fn : program.functions) {
    graph.callees_[fn.name];  // ensure node exists
    graph.callers_[fn.name];
    auto add_site = [&](const Stmt& stmt, const Expr& call) {
      graph.sites_by_callee_[call.text].push_back({&fn, &stmt, &call});
      graph.callees_[fn.name].insert(call.text);
      graph.callers_[call.text].insert(fn.name);
    };
    walk_stmts(fn.body, add_site);
    graph.cfgs_.push_back(Cfg::build(fn));
  }
  program.for_each_stmt([&](const FuncDecl& fn, const Stmt& stmt) {
    if (!fn.has_annotation("test"))
      graph.headers_.push_back({&fn, &stmt, minilang::stmt_header_text(stmt)});
  });
  headers.add(static_cast<std::int64_t>(graph.headers_.size()));

  graph.first_of_name_.reserve(program.functions.size());
  for (const FuncDecl& fn : program.functions)
    graph.first_of_name_.push_back(
        static_cast<std::size_t>(program.find_function(fn.name) - program.functions.data()));
  graph.entries_ = find_entries(program, graph);
  graph.condensation_ = condense(program, graph, graph.first_of_name_);
  span.attr("functions", program.functions.size());
  span.attr("statements", graph.headers_.size());
  return graph;
}

const std::vector<CallSite>& CallGraph::sites_calling(const std::string& name) const {
  static const std::vector<CallSite> none;
  const auto it = sites_by_callee_.find(name);
  return it == sites_by_callee_.end() ? none : it->second;
}

const Cfg& CallGraph::cfg(const FuncDecl& fn) const {
  return cfgs_.at(static_cast<std::size_t>(&fn - program_->functions.data()));
}

std::vector<const StatementHeader*> CallGraph::targets(std::string_view fragment) const {
  std::vector<const StatementHeader*> out;
  for (const StatementHeader& header : headers_)
    if (header.text.find(fragment) != std::string::npos) out.push_back(&header);
  return out;
}

const std::set<std::string>& CallGraph::callees_of(const std::string& name) const {
  static const std::set<std::string> empty;
  const auto it = callees_.find(name);
  return it == callees_.end() ? empty : it->second;
}

const std::set<std::string>& CallGraph::callers_of(const std::string& name) const {
  static const std::set<std::string> empty;
  const auto it = callers_.find(name);
  return it == callers_.end() ? empty : it->second;
}

std::vector<std::vector<std::string>> CallGraph::chains_to(const std::string& target,
                                                           std::size_t max_chains) const {
  std::vector<std::vector<std::string>> chains;
  std::set<std::string> entry_names;
  for (const FuncDecl* fn : entries_) entry_names.insert(fn->name);

  // DFS backwards from target to entries, avoiding cycles.
  std::vector<std::string> stack{target};
  std::set<std::string> on_stack{target};
  const std::function<void()> dfs = [&] {
    if (chains.size() >= max_chains) return;
    const std::string& current = stack.back();
    if (entry_names.count(current) > 0) {
      chains.emplace_back(stack.rbegin(), stack.rend());
      // An entry can itself be called by another entry; keep exploring.
    }
    for (const std::string& caller : callers_of(current)) {
      if (on_stack.count(caller) > 0) continue;
      const FuncDecl* caller_fn = program_->find_function(caller);
      if (caller_fn == nullptr || caller_fn->has_annotation("test")) continue;
      stack.push_back(caller);
      on_stack.insert(caller);
      dfs();
      on_stack.erase(caller);
      stack.pop_back();
    }
  };
  dfs();
  return chains;
}

bool CallGraph::reaches_blocking(const std::string& name) const {
  const auto cached = blocking_cache_.find(name);
  if (cached != blocking_cache_.end()) return cached->second;
  blocking_cache_[name] = false;  // cycle guard: assume non-blocking on cycles
  bool result = false;
  if (minilang::is_blocking_builtin(name)) {
    result = true;
  } else {
    const FuncDecl* fn = program_->find_function(name);
    if (fn != nullptr && fn->has_annotation("blocking")) {
      result = true;
    } else if (fn != nullptr) {
      for (const std::string& callee : callees_of(name)) {
        if (reaches_blocking(callee)) {
          result = true;
          break;
        }
      }
    }
  }
  blocking_cache_[name] = result;
  return result;
}

}  // namespace lisa::analysis
