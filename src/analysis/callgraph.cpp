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

void collect_calls(const Expr& expr, const std::function<void(const Expr&)>& on_call) {
  if (expr.kind == Expr::Kind::kCall) on_call(expr);
  for (const minilang::ExprPtr& arg : expr.args) collect_calls(*arg, on_call);
}

void walk_stmts(const std::vector<minilang::StmtPtr>& stmts,
                const std::function<void(const Stmt&, const Expr&)>& on_call) {
  for (const minilang::StmtPtr& stmt : stmts) {
    const auto visit_expr = [&](const minilang::ExprPtr& expr) {
      if (expr) collect_calls(*expr, [&](const Expr& call) { on_call(*stmt, call); });
    };
    visit_expr(stmt->expr);
    visit_expr(stmt->expr2);
    walk_stmts(stmt->body, on_call);
    walk_stmts(stmt->else_body, on_call);
  }
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
    walk_stmts(fn.body, [&](const Stmt& stmt, const Expr& call) {
      graph.sites_by_callee_[call.text].push_back({&fn, &stmt, &call});
      graph.callees_[fn.name].insert(call.text);
      graph.callers_[call.text].insert(fn.name);
    });
    graph.cfgs_.push_back(Cfg::build(fn));
  }
  program.for_each_stmt([&](const FuncDecl& fn, const Stmt& stmt) {
    if (!fn.has_annotation("test"))
      graph.headers_.push_back({&fn, &stmt, minilang::stmt_header_text(stmt)});
  });
  headers.add(static_cast<std::int64_t>(graph.headers_.size()));
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

std::vector<const FuncDecl*> CallGraph::entry_functions() const {
  std::vector<const FuncDecl*> out;
  for (const FuncDecl& fn : program_->functions) {
    if (fn.has_annotation("test")) continue;
    const bool annotated = fn.has_annotation("entry");
    // A function is a root if annotated, or if no non-test function calls it.
    bool has_real_caller = false;
    for (const std::string& caller : callers_of(fn.name)) {
      const FuncDecl* caller_fn = program_->find_function(caller);
      if (caller_fn != nullptr && !caller_fn->has_annotation("test")) {
        has_real_caller = true;
        break;
      }
    }
    if (annotated || !has_real_caller) out.push_back(&fn);
  }
  return out;
}

std::vector<std::vector<std::string>> CallGraph::chains_to(const std::string& target,
                                                           std::size_t max_chains) const {
  std::vector<std::vector<std::string>> chains;
  const std::vector<const FuncDecl*> entries = entry_functions();
  std::set<std::string> entry_names;
  for (const FuncDecl* fn : entries) entry_names.insert(fn->name);

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

Condensation CallGraph::condensation() const {
  // Iterative Tarjan over user functions in declaration order. Tarjan pops
  // each SCC only after all components reachable from it are popped, so the
  // emission order is already reverse topological (callees before callers).
  struct NodeState {
    int index = -1;
    int lowlink = -1;
    bool on_stack = false;
  };
  Condensation result;
  std::map<std::string, NodeState> state;
  std::vector<std::string> stack;
  int next_index = 0;

  const std::function<void(const std::string&)> strongconnect = [&](const std::string& v) {
    NodeState& vs = state[v];
    vs.index = vs.lowlink = next_index++;
    vs.on_stack = true;
    stack.push_back(v);

    for (const std::string& callee : callees_of(v)) {
      if (program_->find_function(callee) == nullptr) continue;  // builtin leaf
      NodeState& ws = state[callee];
      if (ws.index < 0) {
        strongconnect(callee);
        vs.lowlink = std::min(vs.lowlink, state[callee].lowlink);
      } else if (ws.on_stack) {
        vs.lowlink = std::min(vs.lowlink, ws.index);
      }
    }

    if (vs.lowlink == vs.index) {
      Condensation::Component component;
      while (true) {
        const std::string w = stack.back();
        stack.pop_back();
        state[w].on_stack = false;
        result.component_of[w] = static_cast<int>(result.components.size());
        component.members.push_back(w);
        if (w == v) break;
      }
      component.recursive = component.members.size() > 1 ||
                            callees_of(component.members.front()).count(component.members.front()) > 0;
      result.components.push_back(std::move(component));
    }
  };

  for (const FuncDecl& fn : program_->functions)
    if (state[fn.name].index < 0) strongconnect(fn.name);
  return result;
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
