#include "staticcheck/depgraph.hpp"

#include <algorithm>

#include "smt/minilang_bridge.hpp"
#include "staticcheck/analyses.hpp"
#include "staticcheck/dataflow.hpp"
#include "staticcheck/summaries.hpp"

namespace lisa::staticcheck {

using minilang::Expr;
using minilang::FuncDecl;
using minilang::Stmt;

// ---------------------------------------------------------------------------
// Post-dominator tree
// ---------------------------------------------------------------------------

PostDomTree PostDomTree::build(const Cfg& cfg) {
  PostDomTree tree;
  const std::size_t n = cfg.nodes().size();
  tree.pdom_.assign(n, {});
  tree.ipdom_.assign(n, -1);
  tree.cdeps_.assign(n, {});
  if (n == 0) return tree;

  std::set<int> all;
  for (std::size_t i = 0; i < n; ++i) all.insert(static_cast<int>(i));
  const int exit = cfg.exit();
  for (std::size_t i = 0; i < n; ++i)
    tree.pdom_[i] = static_cast<int>(i) == exit ? std::set<int>{exit} : all;

  // Iterative set intersection over the reversed CFG. Function CFGs have
  // tens of nodes, so the quadratic simplicity beats Lengauer–Tarjan here.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      const int id = static_cast<int>(i);
      if (id == exit) continue;
      const CfgNode& node = cfg.node(id);
      std::set<int> meet;
      bool first = true;
      for (const CfgEdge& edge : node.succs) {
        const std::set<int>& succ = tree.pdom_[static_cast<std::size_t>(edge.to)];
        if (first) {
          meet = succ;
          first = false;
        } else {
          std::set<int> narrowed;
          std::set_intersection(meet.begin(), meet.end(), succ.begin(), succ.end(),
                                std::inserter(narrowed, narrowed.begin()));
          meet = std::move(narrowed);
        }
      }
      // Successor-free non-exit nodes post-dominate only themselves.
      meet.insert(id);
      if (meet != tree.pdom_[i]) {
        tree.pdom_[i] = std::move(meet);
        changed = true;
      }
    }
  }

  // Immediate post-dominator: the strict post-dominator closest to the
  // node. Strict post-dominators form a chain, so the closest one's pdom
  // set has exactly the size of the strict set.
  for (std::size_t i = 0; i < n; ++i) {
    const int id = static_cast<int>(i);
    for (const int candidate : tree.pdom_[i]) {
      if (candidate == id) continue;
      if (tree.pdom_[static_cast<std::size_t>(candidate)].size() == tree.pdom_[i].size() - 1) {
        tree.ipdom_[i] = candidate;
        break;
      }
    }
  }

  // Ferrante–Ottenstein–Warren: for each branch edge b→s, everything on the
  // post-dominator chain from s up to (excluding) ipdom(b) is
  // control-dependent on b.
  for (std::size_t i = 0; i < n; ++i) {
    const CfgNode& node = cfg.node(static_cast<int>(i));
    if (node.succs.size() < 2) continue;
    const int stop = tree.ipdom_[i];
    for (const CfgEdge& edge : node.succs) {
      int walk = edge.to;
      while (walk != -1 && walk != stop) {
        tree.cdeps_[static_cast<std::size_t>(walk)].push_back(static_cast<int>(i));
        walk = tree.ipdom_[static_cast<std::size_t>(walk)];
      }
    }
  }
  for (auto& deps : tree.cdeps_) {
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  }
  return tree;
}

// ---------------------------------------------------------------------------
// Definitions
// ---------------------------------------------------------------------------

bool Definition::may_write(const std::string& use_path) const {
  if (path == "*") return use_path.find('.') != std::string::npos;
  if (path.size() > 2 && path.compare(0, 2, "*.") == 0)
    return mentions_field(use_path, path.substr(2));
  if (path.size() > 2 && path.compare(path.size() - 2, 2, ".*") == 0) {
    const std::string base = path.substr(0, path.size() - 2);
    return use_path.size() > base.size() + 1 &&
           use_path.compare(0, base.size(), base) == 0 && use_path[base.size()] == '.';
  }
  return write_kills(path, use_path);
}

namespace {

/// Collects the maximal access paths `expr` reads. Recursion stops at a
/// var/field chain (reading "a.f" records "a.f", not also "a" — prefix
/// definitions still match through `write_kills`' extension rule).
void collect_read_paths(const Expr& expr, std::set<std::string>& out) {
  const std::string path = smt::access_path(expr);
  if (!path.empty()) {
    out.insert(path);
    return;
  }
  for (const auto& arg : expr.args)
    if (arg) collect_read_paths(*arg, out);
}

/// Access paths a node reads. For assignments the lvalue itself is not a
/// read, but a dotted lvalue reads its base ("a.f = x" reads "a").
std::set<std::string> node_read_paths(const CfgNode& node) {
  std::set<std::string> reads;
  if (node.stmt == nullptr) return reads;
  const Stmt& stmt = *node.stmt;
  if (stmt.kind == Stmt::Kind::kAssign) {
    if (stmt.expr2) collect_read_paths(*stmt.expr2, reads);
    if (stmt.expr) {
      const std::string lvalue = smt::access_path(*stmt.expr);
      if (!lvalue.empty()) {
        const std::size_t dot = lvalue.rfind('.');
        if (dot != std::string::npos) reads.insert(lvalue.substr(0, dot));
      } else {
        // Non-path lvalue (m[k] = v): everything in it is a read.
        collect_read_paths(*stmt.expr, reads);
      }
    }
    return reads;
  }
  for_each_node_expr(node, [&](const Expr& expr) { collect_read_paths(expr, reads); });
  return reads;
}

/// Reaching-definitions lattice: the set of definition indices that may
/// reach a node, unioned at joins.
struct ReachingDefsAnalysis {
  using State = std::set<std::size_t>;

  const std::vector<Definition>* defs = nullptr;
  /// Definition indices generated per node id.
  const std::vector<std::vector<std::size_t>>* gen = nullptr;

  [[nodiscard]] State boundary(const Cfg& cfg) const {
    // Parameter pseudo-definitions live on the entry node.
    State state;
    for (std::size_t i = 0; i < defs->size(); ++i)
      if ((*defs)[i].kind == Definition::Kind::kParam) state.insert(i);
    (void)cfg;
    return state;
  }

  bool join(State& into, const State& from) const {
    const std::size_t before = into.size();
    into.insert(from.begin(), from.end());
    return into.size() != before;
  }

  void transfer(const CfgNode& node, State& state) const {
    for (const std::size_t index : (*gen)[static_cast<std::size_t>(node.id)]) {
      const Definition& def = (*defs)[index];
      // Strong update only for dot-free paths written by let/assign: a
      // MiniLang local's name is its identity (no address-of, callees
      // cannot rebind caller locals). Field writes stay weak — aliases.
      if ((def.kind == Definition::Kind::kLet || def.kind == Definition::Kind::kAssign) &&
          def.path.find('.') == std::string::npos) {
        for (auto it = state.begin(); it != state.end();) {
          const Definition& old = (*defs)[*it];
          it = (old.path == def.path) ? state.erase(it) : std::next(it);
        }
      }
      state.insert(index);
    }
  }

  void refine(const Expr& guard, bool taken, State& state) const {
    (void)guard;
    (void)taken;
    (void)state;
  }
  void edge_effect(const CfgEdge& edge, State& state) const {
    (void)edge;
    (void)state;
  }
  void widen(State& state) const { (void)state; }
};

}  // namespace

FuncDepGraph FuncDepGraph::build(const Cfg& cfg, const SummaryMap* summaries) {
  const FuncDecl& fn = cfg.function();
  FuncDepGraph graph;
  graph.cfg = &cfg;
  graph.pdoms = PostDomTree::build(cfg);
  if (summaries == nullptr) graph.degraded = true;

  const std::size_t n = cfg.nodes().size();
  std::vector<std::vector<std::size_t>> gen(n);

  // Parameter pseudo-definitions (boundary of the reaching analysis).
  for (const auto& param : fn.params) {
    Definition def;
    def.kind = Definition::Kind::kParam;
    def.node = cfg.entry();
    def.path = param.name;
    def.loc = fn.loc;
    graph.defs.push_back(std::move(def));
  }

  // Statement and call-effect definitions, per node.
  for (const CfgNode& node : cfg.nodes()) {
    const auto add_def = [&](Definition def) {
      def.node = node.id;
      def.stmt = node.stmt;
      if (node.stmt != nullptr) def.loc = node.stmt->loc;
      gen[static_cast<std::size_t>(node.id)].push_back(graph.defs.size());
      graph.defs.push_back(std::move(def));
    };

    if (node.stmt != nullptr) {
      const Stmt& stmt = *node.stmt;
      if (node.kind == CfgNode::Kind::kStmt && stmt.kind == Stmt::Kind::kLet) {
        Definition def;
        def.kind = Definition::Kind::kLet;
        def.path = stmt.name;
        add_def(std::move(def));
      } else if (node.kind == CfgNode::Kind::kStmt && stmt.kind == Stmt::Kind::kAssign &&
                 stmt.expr) {
        const std::string lvalue = smt::access_path(*stmt.expr);
        if (!lvalue.empty()) {
          Definition def;
          def.kind = Definition::Kind::kAssign;
          def.path = lvalue;
          add_def(std::move(def));
        }
      }
    }

    // Call MOD effects: what the callee may write in the caller's frame.
    for (const Expr* call : node.calls) {
      if (summaries == nullptr) {
        Definition def;
        def.kind = Definition::Kind::kCallMod;
        def.path = "*";
        def.callee = call->text;
        add_def(std::move(def));
        continue;
      }
      const CallEffect effect = summaries->effect_of(*call);
      if (effect.havoc_all) {
        graph.degraded = true;
        Definition def;
        def.kind = Definition::Kind::kCallMod;
        def.path = "*";
        def.callee = call->text;
        add_def(std::move(def));
        continue;
      }
      if (effect.mod_fields != nullptr) {
        for (const std::string& field : *effect.mod_fields) {
          Definition def;
          def.kind = Definition::Kind::kCallMod;
          def.path = "*." + field;
          def.callee = call->text;
          add_def(std::move(def));
        }
      }
      for (std::size_t arg = 0; arg < call->args.size(); ++arg) {
        if (!effect.writes_param(arg)) continue;
        const std::string path =
            call->args[arg] ? smt::access_path(*call->args[arg]) : std::string();
        if (path.empty()) continue;
        Definition def;
        def.kind = Definition::Kind::kCallMod;
        def.path = path + ".*";
        def.callee = call->text;
        add_def(std::move(def));
      }
    }
  }

  ReachingDefsAnalysis analysis;
  analysis.defs = &graph.defs;
  analysis.gen = &gen;
  const auto fixpoint = run_forward(cfg, analysis);

  graph.reach_in.assign(n, {});
  graph.use_defs.assign(n, {});
  graph.reads.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) {
    if (!fixpoint.reached[i]) continue;
    graph.reach_in[i] = fixpoint.in[i];
    graph.reads[i] = node_read_paths(cfg.node(static_cast<int>(i)));
    for (const std::size_t def_index : graph.reach_in[i])
      for (const std::string& read : graph.reads[i])
        if (graph.defs[def_index].may_write(read)) {
          graph.use_defs[i].insert(def_index);
          break;
        }
  }
  return graph;
}

std::set<std::size_t> FuncDepGraph::used_defs() const {
  std::set<std::size_t> used;
  for (const auto& uses : use_defs) used.insert(uses.begin(), uses.end());
  return used;
}

void report_dead_defs(const FuncDepGraph& graph, std::vector<Diagnostic>& out) {
  const std::set<std::size_t> used = graph.used_defs();
  for (std::size_t i = 0; i < graph.defs.size(); ++i) {
    const Definition& def = graph.defs[i];
    if (def.kind != Definition::Kind::kLet && def.kind != Definition::Kind::kAssign) continue;
    if (def.path.find('.') != std::string::npos) continue;  // aliasing ambiguity
    if (used.count(i) > 0) continue;
    Diagnostic diag;
    diag.analysis = def.kind == Definition::Kind::kLet ? "unused-def" : "dead-store";
    diag.severity = def.kind == Definition::Kind::kLet ? Severity::kNote : Severity::kWarning;
    diag.function = graph.cfg->function().name;
    diag.loc = def.loc;
    diag.message = def.kind == Definition::Kind::kLet
                       ? "local '" + def.path + "' is defined but never read"
                       : "value stored to '" + def.path + "' is never read";
    out.push_back(std::move(diag));
  }
}

}  // namespace lisa::staticcheck
