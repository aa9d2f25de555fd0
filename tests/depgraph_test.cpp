// Unit tests for src/staticcheck/depgraph: the post-dominator tree checked
// against a brute-force oracle, Ferrante–Ottenstein–Warren control
// dependence, reaching-definition / def-use soundness, and the dead-store
// reporter.
#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <string>
#include <vector>

#include "analysis/callgraph.hpp"
#include "minilang/sema.hpp"
#include "analysis/cfg.hpp"
#include "staticcheck/depgraph.hpp"
#include "staticcheck/summaries.hpp"

namespace lisa::staticcheck {
namespace {

using minilang::Program;

// ---------------------------------------------------------------------------
// Post-dominator tree vs brute force
// ---------------------------------------------------------------------------

/// Oracle: b post-dominates a iff every path a→exit passes through b, i.e.
/// (reflexively) a == b, or the exit is unreachable from a when b is removed.
bool brute_postdominates(const Cfg& cfg, int b, int a) {
  if (a == b) return true;
  std::set<int> visited{a, b};  // marking b visited removes it from the graph
  std::deque<int> worklist{a};
  while (!worklist.empty()) {
    const int node = worklist.front();
    worklist.pop_front();
    if (node == cfg.exit()) return false;
    for (const CfgEdge& edge : cfg.node(node).succs)
      if (visited.insert(edge.to).second) worklist.push_back(edge.to);
  }
  return true;
}

/// Exhaustively compares PostDomTree::postdominates against the oracle over
/// every pair of exit-reaching nodes.
void expect_postdoms_match_brute_force(const std::string& source) {
  const Program program = minilang::parse_checked(source);
  for (const minilang::FuncDecl& fn : program.functions) {
    const Cfg cfg = Cfg::build(fn);
    const PostDomTree pdoms = PostDomTree::build(cfg);
    // Restrict to nodes that can reach the exit: set-intersection post-
    // dominance is defined over them (a node that cannot reach the exit
    // vacuously "post-dominates" per the oracle but carries no verdict).
    std::set<int> reaches_exit{cfg.exit()};
    bool grew = true;
    while (grew) {
      grew = false;
      for (const CfgNode& node : cfg.nodes())
        if (reaches_exit.count(node.id) == 0)
          for (const CfgEdge& edge : node.succs)
            if (reaches_exit.count(edge.to) > 0) {
              reaches_exit.insert(node.id);
              grew = true;
              break;
            }
    }
    for (const int a : reaches_exit)
      for (const int b : reaches_exit)
        EXPECT_EQ(pdoms.postdominates(b, a), brute_postdominates(cfg, b, a))
            << fn.name << ": does " << b << " postdominate " << a << "?";
  }
}

TEST(PostDomTree, MatchesBruteForceOnBranches) {
  expect_postdoms_match_brute_force(R"(
fn branchy(a: int, b: int) -> int {
  let r = 0;
  if (a > 0) {
    if (b > 0) {
      r = 1;
    } else {
      r = 2;
    }
  } else {
    r = 3;
  }
  return r;
}
)");
}

TEST(PostDomTree, MatchesBruteForceOnLoops) {
  expect_postdoms_match_brute_force(R"(
fn loopy(n: int) -> int {
  let i = 0;
  let acc = 0;
  while (i < n) {
    if (acc > 100) {
      acc = 0;
    }
    acc = acc + i;
    i = i + 1;
  }
  return acc;
}
)");
}

TEST(PostDomTree, MatchesBruteForceOnEarlyReturnsAndThrows) {
  expect_postdoms_match_brute_force(R"(
fn unwinding(n: int) -> int {
  if (n < 0) {
    throw "negative";
  }
  if (n == 0) {
    return 0;
  }
  let r = 0;
  try {
    if (n > 10) {
      throw "big";
    }
    r = n;
  } catch (e) {
    r = 10;
  }
  return r;
}
)");
}

TEST(PostDomTree, ControlDependenceFollowsBranches) {
  const Program program = minilang::parse_checked(R"(
fn f(a: int) -> int {
  let r = 0;
  if (a > 0) {
    r = 1;
  }
  return r;
}
)");
  const minilang::FuncDecl& fn = program.functions[0];
  const Cfg cfg = Cfg::build(fn);
  const PostDomTree pdoms = PostDomTree::build(cfg);
  int branch = -1, then_stmt = -1, return_stmt = -1;
  for (const CfgNode& node : cfg.nodes()) {
    if (node.kind == CfgNode::Kind::kBranch) branch = node.id;
    if (node.kind == CfgNode::Kind::kStmt && node.stmt != nullptr) {
      if (node.stmt->kind == minilang::Stmt::Kind::kAssign) then_stmt = node.id;
      if (node.stmt->kind == minilang::Stmt::Kind::kReturn) return_stmt = node.id;
    }
  }
  ASSERT_GE(branch, 0);
  ASSERT_GE(then_stmt, 0);
  ASSERT_GE(return_stmt, 0);
  // The guarded assignment is control-dependent on the branch; the return
  // after the join is not (it executes either way).
  const std::vector<int>& deps = pdoms.control_deps(then_stmt);
  EXPECT_NE(std::find(deps.begin(), deps.end(), branch), deps.end());
  EXPECT_TRUE(pdoms.control_deps(return_stmt).empty());
}

// ---------------------------------------------------------------------------
// Reaching definitions and def-use chains
// ---------------------------------------------------------------------------

/// The dependence graph of `fn_name`, over the CFG `calls` (which must
/// outlive it) built for `program`.
const FuncDepGraph build_graph(const Program& program, const analysis::CallGraph& calls,
                               const std::string& fn_name, const SummaryMap* summaries) {
  const minilang::FuncDecl* fn = program.find_function(fn_name);
  EXPECT_NE(fn, nullptr) << fn_name;
  return FuncDepGraph::build(calls.cfg(*fn), summaries);
}

/// The definitions feeding `node` (by use edges), as (kind, path) pairs.
std::set<std::pair<Definition::Kind, std::string>> defs_feeding(const FuncDepGraph& graph,
                                                                int node) {
  std::set<std::pair<Definition::Kind, std::string>> out;
  for (const std::size_t index : graph.use_defs[static_cast<std::size_t>(node)]) {
    const Definition& def = graph.defs[index];
    out.emplace(def.kind, def.path);
  }
  return out;
}

TEST(FuncDepGraph, BothBranchArmsReachTheJoinUse) {
  const Program program = minilang::parse_checked(R"(
fn f(a: int) -> int {
  let x = 1;
  if (a > 0) {
    x = 2;
  } else {
    x = 3;
  }
  return x;
}
)");
  const analysis::CallGraph calls = analysis::CallGraph::build(program);
  const FuncDepGraph graph = build_graph(program, calls, "f", nullptr);
  int return_node = -1;
  for (const CfgNode& node : graph.cfg->nodes())
    if (node.stmt != nullptr && node.stmt->kind == minilang::Stmt::Kind::kReturn)
      return_node = node.id;
  ASSERT_GE(return_node, 0);
  // Both assignments feed the return; the initial `let` is strongly killed
  // on every path.
  const auto feeding = defs_feeding(graph, return_node);
  EXPECT_EQ(feeding.count({Definition::Kind::kAssign, "x"}), 1u);
  EXPECT_EQ(feeding.count({Definition::Kind::kLet, "x"}), 0u);
  std::size_t assigns = 0;
  for (const std::size_t index : graph.use_defs[static_cast<std::size_t>(return_node)])
    if (graph.defs[index].kind == Definition::Kind::kAssign) ++assigns;
  EXPECT_EQ(assigns, 2u);
}

TEST(FuncDepGraph, FieldWritesAreWeakUpdates) {
  const Program program = minilang::parse_checked(R"(
struct Box { v: int; }
fn f(a: Box, b: Box, flag: bool) -> int {
  a.v = 1;
  if (flag) {
    b.v = 2;
  }
  return a.v;
}
)");
  const analysis::CallGraph calls = analysis::CallGraph::build(program);
  const FuncDepGraph graph = build_graph(program, calls, "f", nullptr);
  int return_node = -1;
  for (const CfgNode& node : graph.cfg->nodes())
    if (node.stmt != nullptr && node.stmt->kind == minilang::Stmt::Kind::kReturn)
      return_node = node.id;
  ASSERT_GE(return_node, 0);
  // `b.v = 2` may alias `a.v` (same field name, no points-to), so both
  // field writes and the parameter binding must reach the read of a.v.
  const auto feeding = defs_feeding(graph, return_node);
  EXPECT_EQ(feeding.count({Definition::Kind::kAssign, "a.v"}), 1u);
  EXPECT_EQ(feeding.count({Definition::Kind::kAssign, "b.v"}), 1u);
  EXPECT_EQ(feeding.count({Definition::Kind::kParam, "a"}), 1u);
}

TEST(FuncDepGraph, CallsHavocWithoutSummariesAndDegrade) {
  const Program program = minilang::parse_checked(R"(
struct Box { v: int; }
fn poke(b: Box) {
  b.v = 7;
}
fn f(a: Box) -> int {
  a.v = 1;
  poke(a);
  return a.v;
}
)");
  const analysis::CallGraph graph = analysis::CallGraph::build(program);
  const FuncDepGraph without = build_graph(program, graph, "f", nullptr);
  EXPECT_TRUE(without.degraded);
  bool saw_havoc = false;
  for (const Definition& def : without.defs)
    if (def.kind == Definition::Kind::kCallMod && def.path == "*") saw_havoc = true;
  EXPECT_TRUE(saw_havoc);

  const SummaryMap summaries = SummaryMap::compute(program, graph);
  const FuncDepGraph with = build_graph(program, graph, "f", &summaries);
  EXPECT_FALSE(with.degraded);
  // With summaries the call contributes a field-level MOD effect, not "*".
  bool saw_field_mod = false;
  for (const Definition& def : with.defs)
    if (def.kind == Definition::Kind::kCallMod && mentions_field(def.path, "v"))
      saw_field_mod = true;
  EXPECT_TRUE(saw_field_mod);
}

TEST(FuncDepGraph, MayWriteWildcardRules) {
  Definition havoc;
  havoc.path = "*";
  EXPECT_TRUE(havoc.may_write("s.closed"));
  EXPECT_FALSE(havoc.may_write("local"));  // locals survive callee havoc

  Definition field_mod;
  field_mod.path = "*.closed";
  EXPECT_TRUE(field_mod.may_write("s.closed"));
  EXPECT_FALSE(field_mod.may_write("s.open"));

  Definition through_arg;
  through_arg.path = "p.*";
  EXPECT_TRUE(through_arg.may_write("p.closed"));
  EXPECT_FALSE(through_arg.may_write("q.closed"));
}

// ---------------------------------------------------------------------------
// Dead-store / unused-definition reporting
// ---------------------------------------------------------------------------

TEST(FuncDepGraph, ReportsDeadStoresAndUnusedLets) {
  const Program program = minilang::parse_checked(R"(
fn f(a: int) -> int {
  let unused = a + 1;
  let x = a;
  x = 1;
  x = 2;
  return x;
}
)");
  const analysis::CallGraph calls = analysis::CallGraph::build(program);
  const FuncDepGraph graph = build_graph(program, calls, "f", nullptr);
  std::vector<Diagnostic> diagnostics;
  report_dead_defs(graph, diagnostics);
  bool saw_unused = false, saw_dead = false;
  for (const Diagnostic& diagnostic : diagnostics) {
    if (diagnostic.analysis == "unused-def") saw_unused = true;
    if (diagnostic.analysis == "dead-store") saw_dead = true;
  }
  EXPECT_TRUE(saw_unused) << "no unused-definition finding for `unused`";
  EXPECT_TRUE(saw_dead) << "no dead-store finding for `x = 1`";
}

TEST(FuncDepGraph, LiveDefinitionsAreNotReported) {
  const Program program = minilang::parse_checked(R"(
fn f(a: int) -> int {
  let x = a;
  let y = x + 1;
  return y;
}
)");
  const analysis::CallGraph calls = analysis::CallGraph::build(program);
  const FuncDepGraph graph = build_graph(program, calls, "f", nullptr);
  std::vector<Diagnostic> diagnostics;
  report_dead_defs(graph, diagnostics);
  EXPECT_TRUE(diagnostics.empty());
}

}  // namespace
}  // namespace lisa::staticcheck
