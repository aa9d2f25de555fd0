#include "staticcheck/concurrency.hpp"

#include <algorithm>
#include <functional>
#include <ranges>

#include "minilang/printer.hpp"
#include "smt/minilang_bridge.hpp"
#include "staticcheck/analyses.hpp"
#include "staticcheck/dataflow.hpp"
#include "support/strings.hpp"

namespace lisa::staticcheck {

using minilang::Expr;
using minilang::FuncDecl;
using minilang::Program;
using minilang::Stmt;

namespace {

/// Per-field cap on recorded access sites: keeps summaries cheap to compare
/// in the fixpoint. Dropped sites set `truncated`, so no consumer proves
/// safety from an incomplete set.
constexpr std::size_t kMaxFieldSites = 16;

/// Every field read reachable from `expr`: (base path, field name) pairs.
void collect_field_reads(const Expr& expr,
                         std::vector<std::pair<std::string, std::string>>& out) {
  if (expr.kind == Expr::Kind::kField && expr.args.size() == 1 && expr.args[0]) {
    const std::string base = smt::access_path(*expr.args[0]);
    if (!base.empty()) out.emplace_back(base, expr.text);
  }
  for (const auto& arg : expr.args)
    if (arg) collect_field_reads(*arg, out);
}

/// Rewrites a callee-namespace path into the caller's namespace: a path
/// rooted at callee parameter i becomes the caller's argument i access
/// path; anything else (callee locals, unrepresentable arguments) keeps
/// the callee's name under a `callee::` prefix.
std::string rewrite_path(const std::string& path, const Expr& call,
                         const FuncDecl* callee_decl) {
  const std::size_t dot = path.find('.');
  const std::string root = dot == std::string::npos ? path : path.substr(0, dot);
  const std::string rest = dot == std::string::npos ? "" : path.substr(dot);
  if (callee_decl != nullptr) {
    for (std::size_t i = 0;
         i < callee_decl->params.size() && i < call.args.size(); ++i) {
      if (callee_decl->params[i].name != root || !call.args[i]) continue;
      const std::string arg = smt::access_path(*call.args[i]);
      if (arg.empty()) break;  // computed argument: fall through to prefix
      return arg + rest;
    }
  }
  if (path.find("::") != std::string::npos) return path;  // already namespaced
  return call.text + "::" + path;
}

/// Inserts a field access, enforcing the deterministic per-field site cap.
void insert_site(FieldLockSummary& fls, FieldAccessSite site) {
  fls.sites.insert(std::move(site));
  while (fls.sites.size() > kMaxFieldSites) {
    fls.sites.erase(std::prev(fls.sites.end()));
    fls.truncated = true;
  }
}

std::string locate(const std::string& function, int line, int column) {
  return function + ":" + std::to_string(line) + ":" + std::to_string(column);
}

std::string render_edge(const LockOrderEdge& edge) {
  std::string text = "'" + edge.second + "' acquired at " +
                     locate(edge.function, edge.line, edge.column) +
                     " while holding '" + edge.first + "'";
  if (!edge.via.empty()) text += " (via " + edge.via + ")";
  return text;
}

/// Tarjan SCC over the monitor-name graph. Small and recursive: the node
/// count is bounded by the number of distinct monitors in the program.
struct MonitorScc {
  std::map<std::string, std::vector<std::string>> succs;
  std::map<std::string, int> index, low;
  std::map<std::string, bool> on_stack;
  std::vector<std::string> stack;
  int next_index = 0;
  std::vector<std::vector<std::string>> components;

  void visit(const std::string& node) {
    index[node] = low[node] = next_index++;
    stack.push_back(node);
    on_stack[node] = true;
    for (const std::string& succ : succs[node]) {
      if (index.find(succ) == index.end()) {
        visit(succ);
        low[node] = std::min(low[node], low[succ]);
      } else if (on_stack[succ]) {
        low[node] = std::min(low[node], index[succ]);
      }
    }
    if (low[node] != index[node]) return;
    std::vector<std::string> component;
    while (true) {
      const std::string member = stack.back();
      stack.pop_back();
      on_stack[member] = false;
      component.push_back(member);
      if (member == node) break;
    }
    components.push_back(std::move(component));
  }
};

/// Thread roots in deterministic (name) order: the functions concurrent
/// threads enter — @entry functions plus uncalled non-test functions.
std::vector<const FuncDecl*> thread_roots(const analysis::CallGraph& graph) {
  std::vector<const FuncDecl*> roots = graph.entry_functions();
  std::sort(roots.begin(), roots.end(),
            [](const FuncDecl* a, const FuncDecl* b) { return a->name < b->name; });
  return roots;
}

}  // namespace

std::string monitor_path(const Expr& expr) {
  const std::string path = smt::access_path(expr);
  return path.empty() ? minilang::expr_text(expr) : path;
}

bool LocksetAnalysis::join(State& into, const State& from) const {
  std::size_t common = 0;
  while (common < into.held.size() && common < from.held.size() &&
         into.held[common] == from.held[common])
    ++common;
  if (common == into.held.size()) return false;
  into.held.resize(common);
  return true;
}

void LocksetAnalysis::transfer(const CfgNode& node, State& state) const {
  if (node.kind == CfgNode::Kind::kSyncEnter && node.stmt != nullptr &&
      node.stmt->expr) {
    state.held.push_back(monitor_path(*node.stmt->expr));
  } else if (node.kind == CfgNode::Kind::kSyncExit && !state.held.empty()) {
    state.held.pop_back();
  }
}

void summarize_concurrency(const Program& program, const analysis::CallGraph& graph,
                           const analysis::Condensation& condensation, const SummaryMap& map,
                           const FuncDecl& fn, FunctionSummary* out) {
  const Cfg& cfg = graph.cfg(fn);
  LocksetAnalysis locksets(program, graph, &map);
  const DataflowResult<LocksetAnalysis> result = run_forward(cfg, locksets);
  const int own_component = condensation.component_index(fn.name);

  const auto record_access = [&](const std::string& base, const std::string& field,
                                 bool is_write, const minilang::SourceLoc& loc,
                                 const std::vector<std::string>& held) {
    FieldAccessSite site;
    site.function = fn.name;
    site.line = loc.line;
    site.column = loc.column;
    site.is_write = is_write;
    site.base = base;
    site.lockset.insert(held.begin(), held.end());
    insert_site(out->field_locks[field], std::move(site));
  };

  for (const CfgNode& node : cfg.nodes()) {
    if (!result.reached[static_cast<std::size_t>(node.id)]) continue;
    const std::vector<std::string>& held =
        result.in[static_cast<std::size_t>(node.id)].held;

    // Direct acquisition: `sync (m)` acquires m while `held` is in force.
    if (node.kind == CfgNode::Kind::kSyncEnter && node.stmt != nullptr &&
        node.stmt->expr) {
      const std::string inner = monitor_path(*node.stmt->expr);
      out->acquired_locks.emplace(
          inner, SummarySite{fn.name, node.loc.line, node.loc.column});
      for (const std::string& outer : held) {
        if (outer == inner) continue;  // re-entrant by name: not an ordering
        out->lock_order_edges.insert(
            {outer, inner, fn.name, node.loc.line, node.loc.column, ""});
      }
    }

    // Field accesses under the must-held lockset.
    if (node.stmt != nullptr && node.stmt->kind == Stmt::Kind::kAssign) {
      const std::string path = smt::access_path(*node.stmt->expr);
      const std::size_t dot = path.rfind('.');
      if (dot != std::string::npos)
        record_access(path.substr(0, dot), path.substr(dot + 1), /*is_write=*/true,
                      node.stmt->loc, held);
      std::vector<std::pair<std::string, std::string>> reads;
      if (node.stmt->expr2) collect_field_reads(*node.stmt->expr2, reads);
      // The lvalue's base chain is read to reach the written field.
      if (node.stmt->expr->kind == Expr::Kind::kField && node.stmt->expr->args.size() == 1 &&
          node.stmt->expr->args[0])
        collect_field_reads(*node.stmt->expr->args[0], reads);
      for (const auto& [base, field] : reads)
        record_access(base, field, /*is_write=*/false, node.stmt->loc, held);
    } else if (node.stmt != nullptr && node.kind != CfgNode::Kind::kSyncExit) {
      std::vector<std::pair<std::string, std::string>> reads;
      for_each_node_expr(node, [&](const Expr& e) { collect_field_reads(e, reads); });
      for (const auto& [base, field] : reads)
        record_access(base, field, /*is_write=*/false, node.stmt->loc, held);
    }

    // Calls: import the callee's concurrency facts into this namespace.
    // Same-SCC imports stay verbatim — argument rewriting on a recursive
    // cycle would grow paths forever ("x" -> "x.next" -> "x.next.next").
    std::vector<const Expr*> calls;
    for_each_node_expr(node, [&](const Expr& e) { collect_calls(e, calls); });
    for (const Expr* call : calls) {
      const FunctionSummary* callee = map.find(call->text);
      if (callee == nullptr) continue;
      if (callee->concurrency_degraded) out->concurrency_degraded = true;
      const FuncDecl* decl = program.find_function(call->text);
      const bool same_scc =
          condensation.component_index(call->text) == own_component;
      const auto import = [&](const std::string& path) {
        return same_scc ? path : rewrite_path(path, *call, decl);
      };

      for (const auto& [lock, site] : callee->acquired_locks) {
        const std::string imported = import(lock);
        out->acquired_locks.emplace(imported, site);
        for (const std::string& outer : held) {
          if (outer == imported) continue;
          out->lock_order_edges.insert({outer, imported, site.function, site.line,
                                        site.column, call->text});
        }
      }
      for (const LockOrderEdge& edge : callee->lock_order_edges) {
        LockOrderEdge imported = edge;
        imported.first = import(edge.first);
        imported.second = import(edge.second);
        if (imported.via.empty()) imported.via = call->text;
        if (imported.first != imported.second)
          out->lock_order_edges.insert(std::move(imported));
      }
      for (const auto& [field, fls] : callee->field_locks) {
        FieldLockSummary& mine = out->field_locks[field];
        mine.truncated = mine.truncated || fls.truncated;
        for (const FieldAccessSite& site : fls.sites) {
          FieldAccessSite imported = site;
          imported.base = import(site.base);
          std::set<std::string> lockset;
          for (const std::string& lock : site.lockset) lockset.insert(import(lock));
          lockset.insert(held.begin(), held.end());
          imported.lockset = std::move(lockset);
          insert_site(mine, std::move(imported));
        }
      }
    }
  }
}

std::string LockCycle::render() const {
  return support::join(edges | std::views::transform(render_edge), "; ");
}

LockGraph LockGraph::build(const Program& program, const analysis::CallGraph& graph,
                           const SummaryMap& summaries) {
  (void)program;
  LockGraph lock_graph;
  for (const FuncDecl* root : thread_roots(graph)) {
    const FunctionSummary* summary = summaries.find(root->name);
    if (summary == nullptr) continue;
    if (summary->concurrency_degraded) lock_graph.degraded = true;
    for (const LockOrderEdge& edge : summary->lock_order_edges)
      if (edge.first != edge.second) lock_graph.edges.insert(edge);
  }

  MonitorScc scc;
  for (const LockOrderEdge& edge : lock_graph.edges) {
    scc.succs[edge.first].push_back(edge.second);
    scc.succs[edge.second];  // ensure the node exists
  }
  for (const auto& [node, _] : scc.succs)
    if (scc.index.find(node) == scc.index.end()) scc.visit(node);

  for (std::vector<std::string>& component : scc.components) {
    if (component.size() < 2) continue;  // self-loops were excluded above
    LockCycle cycle;
    std::sort(component.begin(), component.end());
    const std::set<std::string> members(component.begin(), component.end());
    cycle.monitors = std::move(component);
    for (const LockOrderEdge& edge : lock_graph.edges)
      if (members.count(edge.first) > 0 && members.count(edge.second) > 0)
        cycle.edges.push_back(edge);
    lock_graph.cycles.push_back(std::move(cycle));
  }
  // Deterministic cycle order: by first monitor name.
  std::sort(lock_graph.cycles.begin(), lock_graph.cycles.end(),
            [](const LockCycle& a, const LockCycle& b) { return a.monitors < b.monitors; });
  return lock_graph;
}

std::map<std::string, FieldAccesses> shared_field_accesses(
    const Program& program, const analysis::CallGraph& graph,
    const SummaryMap& summaries) {
  (void)program;
  std::map<std::string, FieldAccesses> index;
  for (const FuncDecl* root : thread_roots(graph)) {
    const FunctionSummary* summary = summaries.find(root->name);
    if (summary == nullptr) continue;
    for (const auto& [field, fls] : summary->field_locks) {
      FieldAccesses& accesses = index[field];
      accesses.truncated =
          accesses.truncated || fls.truncated || summary->concurrency_degraded;
      for (const FieldAccessSite& site : fls.sites)
        accesses.sites.emplace_back(root->name, site);
    }
  }
  return index;
}

bool lockset_guards(const std::set<std::string>& lockset, const std::string& base) {
  const std::string base_tail = support::name_tail(base);
  for (const std::string& monitor : lockset) {
    const std::string tail = support::name_tail(monitor);
    if (tail == base_tail || base_tail.rfind(tail + ".", 0) == 0) return true;
  }
  return false;
}

bool lockset_covers(const std::set<std::string>& lockset, const std::string& guard) {
  for (const std::string& monitor : lockset)
    if (monitor == guard || support::name_tail(monitor) == guard) return true;
  return false;
}

std::string guard_monitor(const std::string& condition_text) {
  const std::size_t open = condition_text.find("holds(");
  const std::size_t close = condition_text.rfind(')');
  if (open == std::string::npos || close == std::string::npos || close <= open + 6) return "";
  return condition_text.substr(open + 6, close - open - 6);
}

std::vector<Diagnostic> deadlock_diagnostics(const LockGraph& graph) {
  std::vector<Diagnostic> out;
  for (const LockCycle& cycle : graph.cycles) {
    if (cycle.edges.empty()) continue;
    std::string monitors;
    for (const std::string& monitor : cycle.monitors) {
      if (!monitors.empty()) monitors += ", ";
      monitors += "'" + monitor + "'";
    }
    Diagnostic diag;
    diag.analysis = "deadlock";
    diag.severity = Severity::kError;
    diag.function = cycle.edges.front().function;
    diag.loc = {cycle.edges.front().line, cycle.edges.front().column};
    diag.message = "potential deadlock: lock-order cycle between " + monitors + ": " +
                   cycle.render();
    out.push_back(std::move(diag));
  }
  return out;
}

std::vector<Diagnostic> race_diagnostics(const Program& program,
                                         const analysis::CallGraph& graph,
                                         const SummaryMap& summaries) {
  std::vector<Diagnostic> out;
  const std::map<std::string, FieldAccesses> index =
      shared_field_accesses(program, graph, summaries);
  for (const auto& [field, accesses] : index) {
    std::set<std::string> roots;
    for (const auto& [root, site] : accesses.sites) roots.insert(root);
    if (roots.size() < 2) continue;

    const FieldAccessSite* guarded = nullptr;
    bool any_write = false;
    for (const auto& [root, site] : accesses.sites) {
      if (site.is_write) any_write = true;
      if (guarded == nullptr && lockset_guards(site.lockset, site.base))
        guarded = &site;
    }
    if (!any_write || guarded == nullptr) continue;
    std::string guard_monitor;
    for (const std::string& monitor : guarded->lockset)
      if (lockset_guards({monitor}, guarded->base)) {
        guard_monitor = support::name_tail(monitor);
        break;
      }

    const std::string root_list = support::join(roots, ", ");

    std::set<std::string> reported;
    for (const auto& [root, site] : accesses.sites) {
      if (!site.is_write || lockset_guards(site.lockset, site.base)) continue;
      const std::string key = locate(site.function, site.line, site.column);
      if (!reported.insert(key).second) continue;
      Diagnostic diag;
      diag.analysis = "race";
      diag.severity = Severity::kError;
      diag.function = site.function;
      diag.loc = {site.line, site.column};
      diag.message = "possible race: field '" + field + "' of '" +
                     support::name_tail(site.base) + "' written without monitor '" +
                     guard_monitor + "' held, but guarded at " +
                     locate(guarded->function, guarded->line, guarded->column) +
                     " (thread roots: " + root_list + ")";
      out.push_back(std::move(diag));
    }
  }
  return out;
}

}  // namespace lisa::staticcheck
