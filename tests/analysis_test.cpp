// Unit tests for src/analysis: call graph, execution trees, renaming, and
// the no-blocking-in-sync rule the lock-state screen builds on them.
#include <gtest/gtest.h>

#include <set>

#include "analysis/callgraph.hpp"
#include "analysis/paths.hpp"
#include "analysis/rename.hpp"
#include "minilang/printer.hpp"
#include "minilang/sema.hpp"
#include "smt/minilang_bridge.hpp"
#include "smt/solver.hpp"
#include "staticcheck/screener.hpp"
#include "support/strings.hpp"

namespace lisa::analysis {
namespace {

using minilang::Program;

const char* kSample = R"(
struct Session { is_closing: bool; ttl: int; }
struct Server { count: int; }

fn helper(server: Server, s: Session?) {
  if (s == null) {
    return;
  }
  do_create(server, s);
}

fn do_create(server: Server, s: Session) {
  server.count = server.count + 1;
}

@entry
fn entry_a(server: Server, s: Session?) {
  if (s == null) {
    throw "expired";
  }
  if (s.is_closing) {
    throw "closing";
  }
  do_create(server, s);
}

@entry
fn entry_b(server: Server, s: Session?) {
  helper(server, s);
}

@test
fn test_something() {
  let server = new Server {};
  let s = new Session { is_closing: false, ttl: 1 };
  entry_a(server, s);
}
)";

Program sample() { return minilang::parse_checked(kSample); }

TEST(CallGraph, EdgesAndSites) {
  const Program program = sample();
  const CallGraph graph = CallGraph::build(program);
  EXPECT_TRUE(graph.callees_of("entry_b").count("helper"));
  EXPECT_TRUE(graph.callers_of("do_create").count("entry_a"));
  EXPECT_TRUE(graph.callers_of("do_create").count("helper"));
  EXPECT_EQ(graph.sites_calling("do_create").size(), 2u);
}

TEST(CallGraph, EntryFunctionsExcludeTestsAndCalledFns) {
  const Program program = sample();
  const CallGraph graph = CallGraph::build(program);
  std::set<std::string> names;
  for (const auto* fn : graph.entry_functions()) names.insert(fn->name);
  EXPECT_TRUE(names.count("entry_a"));
  EXPECT_TRUE(names.count("entry_b"));
  EXPECT_FALSE(names.count("test_something"));
  EXPECT_FALSE(names.count("do_create"));  // called by non-test functions
  EXPECT_FALSE(names.count("helper"));
}

TEST(CallGraph, ChainsToTarget) {
  const Program program = sample();
  const CallGraph graph = CallGraph::build(program);
  const auto chains = graph.chains_to("do_create");
  // entry_a -> do_create and entry_b -> helper -> do_create.
  ASSERT_EQ(chains.size(), 2u);
  std::set<std::string> firsts{chains[0].front(), chains[1].front()};
  EXPECT_TRUE(firsts.count("entry_a"));
  EXPECT_TRUE(firsts.count("entry_b"));
}

TEST(CallGraph, ChainsHandleRecursionWithoutLooping) {
  const Program program = minilang::parse_checked(R"(
@entry
fn a(n: int) { b(n); }
fn b(n: int) { if (n > 0) { a(n - 1); } c(n); }
fn c(n: int) { print(n); }
)");
  const CallGraph graph = CallGraph::build(program);
  const auto chains = graph.chains_to("c");
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].front(), "a");
}

TEST(CallGraph, BlockingReachability) {
  const Program program = minilang::parse_checked(R"(
fn leaf_blocking(x: int) { fsync_log(x); }
fn mid(x: int) { leaf_blocking(x); }
fn clean(x: int) { print(x); }
@blocking
fn annotated(x: int) { print(x); }
@entry
fn top(x: int) { mid(x); clean(x); annotated(x); }
)");
  const CallGraph graph = CallGraph::build(program);
  EXPECT_TRUE(graph.reaches_blocking("leaf_blocking"));
  EXPECT_TRUE(graph.reaches_blocking("mid"));
  EXPECT_TRUE(graph.reaches_blocking("top"));
  EXPECT_TRUE(graph.reaches_blocking("annotated"));
  EXPECT_FALSE(graph.reaches_blocking("clean"));
}

TEST(CallGraph, CondensationIsReverseTopologicalAndAcyclicIsSingletons) {
  const Program program = sample();
  const CallGraph graph = CallGraph::build(program);
  const Condensation condensation = graph.condensation();
  // Every function lands in exactly one component; no recursion here.
  EXPECT_EQ(condensation.size(), program.functions.size());
  for (const auto& component : condensation.components) {
    EXPECT_EQ(component.members.size(), 1u);
    EXPECT_FALSE(component.recursive);
  }
  // Reverse topological order: every callee's component precedes its caller's.
  for (const minilang::FuncDecl& fn : program.functions)
    for (const std::string& callee : graph.callees_of(fn.name)) {
      if (program.find_function(callee) == nullptr) continue;  // builtin
      EXPECT_LT(condensation.component_index(callee), condensation.component_index(fn.name))
          << callee << " must be summarized before " << fn.name;
    }
  EXPECT_EQ(condensation.component_index("no_such_function"), -1);
}

TEST(CallGraph, CondensationGroupsRecursiveComponents) {
  const Program program = minilang::parse_checked(R"(
fn self_loop(n: int) -> int {
  if (n <= 0) {
    return 0;
  }
  return self_loop(n - 1);
}
fn even(n: int) -> bool {
  if (n == 0) {
    return true;
  }
  return odd(n - 1);
}
fn odd(n: int) -> bool {
  if (n == 0) {
    return false;
  }
  return even(n - 1);
}
@entry
fn top(n: int) { print(self_loop(n)); print(even(n)); }
)");
  const CallGraph graph = CallGraph::build(program);
  const Condensation condensation = graph.condensation();
  // self_loop is its own recursive component; even/odd share one.
  const int self_component = condensation.component_index("self_loop");
  ASSERT_GE(self_component, 0);
  EXPECT_TRUE(condensation.components[static_cast<std::size_t>(self_component)].recursive);
  EXPECT_EQ(
      condensation.components[static_cast<std::size_t>(self_component)].members.size(), 1u);
  const int even_component = condensation.component_index("even");
  EXPECT_EQ(even_component, condensation.component_index("odd"));
  ASSERT_GE(even_component, 0);
  EXPECT_TRUE(condensation.components[static_cast<std::size_t>(even_component)].recursive);
  EXPECT_EQ(
      condensation.components[static_cast<std::size_t>(even_component)].members.size(), 2u);
  // top calls both SCCs, so both precede it.
  EXPECT_LT(self_component, condensation.component_index("top"));
  EXPECT_LT(even_component, condensation.component_index("top"));
}

TEST(Rename, CanonicalVarQualifiesLocalsAndMapsParams) {
  FrameMap map;
  map.frame = "touch";
  map.roots["s"] = "entry::req.session";
  map.roots["bad"] = kOpaqueRoot;
  EXPECT_EQ(canonical_var("s.ttl", map), "entry::req.session.ttl");
  EXPECT_EQ(canonical_var("s#null", map), "entry::req.session#null");
  EXPECT_EQ(canonical_var("local_var.x", map), "touch::local_var.x");
  EXPECT_EQ(canonical_var("bad.flag", map), kOpaqueRoot);
}

TEST(Rename, OpaqueRootsCollapseToOpaqueAtoms) {
  FrameMap map;
  map.frame = "f";
  map.roots["p"] = kOpaqueRoot;
  const auto condition = smt::parse_condition("p.x > 0 && q.y");
  ASSERT_TRUE(condition.has_value());
  EXPECT_TRUE(has_opaque_root(*condition, map));
  const smt::FormulaPtr renamed = rename_formula(*condition, map);
  bool found_opaque = false;
  for (const std::string& var : renamed->variables())
    if (var.rfind("opaque:", 0) == 0) found_opaque = true;
  EXPECT_TRUE(found_opaque);
}

TEST(Paths, FindTargetStatementsMatchesFragment) {
  const Program program = sample();
  const CallGraph graph = CallGraph::build(program);
  const std::vector<const StatementHeader*> targets = graph.targets("do_create(");
  ASSERT_EQ(targets.size(), 2u);  // in entry_a and helper; test excluded
  EXPECT_EQ(targets[0]->function->name, "helper");  // declaration order
  EXPECT_EQ(targets[1]->function->name, "entry_a");
  for (const StatementHeader* target : targets)
    EXPECT_EQ(target->text, minilang::stmt_header_text(*target->stmt));
}

TEST(Paths, TreeEnumeratesGuardedPaths) {
  const Program program = sample();
  const CallGraph graph = CallGraph::build(program);
  TreeOptions options;
  options.contract_condition =
      *smt::parse_condition("!(s == null) && !(s.is_closing)");
  const ExecutionTree tree =
      build_execution_tree(program, graph, "do_create(", options);
  ASSERT_EQ(tree.paths.size(), 2u);

  smt::Solver solver;
  int violated = 0;
  int verified = 0;
  for (const ExecutionPath& path : tree.paths) {
    ASSERT_TRUE(path.mappable);
    const bool viol = solver
                          .solve(smt::Formula::conj2(
                              path.condition, smt::Formula::negate(path.renamed_contract)))
                          .sat();
    if (viol) ++violated;
    else ++verified;
  }
  // entry_a checks both predicates (verified); entry_b->helper misses
  // is_closing (violated).
  EXPECT_EQ(verified, 1);
  EXPECT_EQ(violated, 1);
}

TEST(Paths, PruningCollapsesIrrelevantBranches) {
  const Program program = minilang::parse_checked(R"(
struct S { flag: bool; }
fn act(s: S) { print(s); }
@entry
fn main_entry(s: S, a: bool, b: bool, c: bool) {
  if (a) { print(1); } else { print(2); }
  if (b) { print(3); } else { print(4); }
  if (c) { print(5); } else { print(6); }
  if (s.flag) {
    act(s);
  }
}
)");
  const CallGraph graph = CallGraph::build(program);
  TreeOptions pruned;
  pruned.contract_condition = *smt::parse_condition("s.flag");
  const ExecutionTree with_pruning = build_execution_tree(program, graph, "act(", pruned);
  EXPECT_EQ(with_pruning.paths.size(), 1u);        // 8 raw paths collapse
  EXPECT_EQ(with_pruning.enumerated_raw, 8u);

  TreeOptions unpruned = pruned;
  unpruned.prune_irrelevant = false;
  const ExecutionTree without = build_execution_tree(program, graph, "act(", unpruned);
  EXPECT_EQ(without.paths.size(), 8u);
}

TEST(Paths, WhileLoopTargetInsideBodyRecordsEntryGuard) {
  const Program program = minilang::parse_checked(R"(
struct T { go: bool; }
fn work(t: T) { print(t); }
@entry
fn loop_entry(t: T, n: int) {
  let i = 0;
  while (i < n) {
    if (t.go) {
      work(t);
    }
    i = i + 1;
  }
}
)");
  const CallGraph graph = CallGraph::build(program);
  TreeOptions options;
  options.contract_condition = *smt::parse_condition("t.go");
  const ExecutionTree tree = build_execution_tree(program, graph, "work(", options);
  ASSERT_EQ(tree.paths.size(), 1u);
  // The relevant guard t.go survives pruning; the loop bound does not.
  ASSERT_EQ(tree.paths[0].guards.size(), 1u);
  EXPECT_TRUE(tree.paths[0].guards[0].taken);
}

TEST(Paths, UnmappableWhenArgumentIsNotAPath) {
  const Program program = minilang::parse_checked(R"(
struct S { ok: bool; }
fn make() -> S { return new S { ok: true }; }
fn inner(s: S) { act2(s); }
fn act2(s: S) { print(s); }
@entry
fn main_entry() {
  inner(make());
}
)");
  const CallGraph graph = CallGraph::build(program);
  TreeOptions options;
  options.contract_condition = *smt::parse_condition("s.ok");
  const ExecutionTree tree = build_execution_tree(program, graph, "act2(", options);
  ASSERT_FALSE(tree.paths.empty());
  bool any_unmappable = false;
  for (const ExecutionPath& path : tree.paths)
    if (!path.mappable) any_unmappable = true;
  EXPECT_TRUE(any_unmappable);
}

TEST(Paths, MaxPathsTruncates) {
  // 2^10 paths through ten unguarded branches with pruning disabled.
  std::string body;
  for (int i = 0; i < 10; ++i)
    body += "  if (n > " + std::to_string(i) + ") { print(" + std::to_string(i) + "); }\n";
  const Program program = minilang::parse_checked(
      "fn act3(n: int) { print(n); }\n@entry\nfn wide(n: int) {\n" + body + "  act3(n);\n}\n");
  const CallGraph graph = CallGraph::build(program);
  TreeOptions options;
  options.prune_irrelevant = false;
  options.max_paths = 100;
  const ExecutionTree tree = build_execution_tree(program, graph, "act3(", options);
  EXPECT_TRUE(tree.truncated);
  EXPECT_LE(tree.paths.size(), 100u);
}

TEST(Patterns, DetectsBlockingInsideSyncTransitively) {
  const Program program = minilang::parse_checked(R"(
struct Node { data: string; }
fn persist(n: Node) { write_record(n, n.data); }
@entry
fn serialize(n: Node) {
  sync (n) {
    persist(n);
  }
}
@entry
fn safe(n: Node) {
  let d = "";
  sync (n) {
    d = n.data;
  }
  write_record(n, d);
}
)");
  const staticcheck::ScreenResult screen = staticcheck::Screener(program).screen_structural();
  EXPECT_EQ(screen.verdict, staticcheck::ScreenVerdict::kProvedViolated);
  ASSERT_EQ(screen.diagnostics.size(), 1u);
  EXPECT_EQ(screen.diagnostics[0].function, "serialize");
  // The site is the call to the helper that reaches write_record.
  EXPECT_TRUE(support::starts_with(screen.diagnostics[0].message, "call to persist "))
      << screen.diagnostics[0].message;
}

TEST(Patterns, ReportsEveryBlockingChainWithSyncLocation) {
  // `flush` reaches two distinct blocking leaves; the screen reports the
  // call site once, naming the enclosing sync statement.
  const Program program = minilang::parse_checked(R"(
struct Node { data: string; }
fn flush(n: Node) {
  write_record(n, n.data);
  fsync_log(n);
}
@entry
fn serialize(n: Node) {
  sync (n) {
    flush(n);
  }
}
)");
  const staticcheck::ScreenResult screen = staticcheck::Screener(program).screen_structural();
  ASSERT_EQ(screen.diagnostics.size(), 1u);
  const staticcheck::Diagnostic& diagnostic = screen.diagnostics[0];
  EXPECT_EQ(diagnostic.function, "serialize");
  EXPECT_TRUE(support::starts_with(diagnostic.message, "call to flush ")) << diagnostic.message;
  EXPECT_NE(diagnostic.message.find("(sync at line 9)"), std::string::npos)
      << diagnostic.message;
}

TEST(Patterns, SpecificRuleMissesOtherFunctions) {
  const Program program = minilang::parse_checked(R"(
struct Node { data: string; }
@entry
fn ser_a(n: Node) {
  sync (n) { write_record(n, n.data); }
}
@entry
fn ser_b(n: Node) {
  sync (n) { fsync_log(n); }
}
)");
  const staticcheck::ScreenResult screen = staticcheck::Screener(program).screen_structural();
  EXPECT_EQ(screen.diagnostics.size(), 2u);
  // The narrow rule: only diagnostics at direct write_record calls.
  int direct_write_record = 0;
  for (const staticcheck::Diagnostic& diagnostic : screen.diagnostics)
    if (support::starts_with(diagnostic.message, "call to write_record ")) ++direct_write_record;
  EXPECT_EQ(direct_write_record, 1);
}

}  // namespace
}  // namespace lisa::analysis
