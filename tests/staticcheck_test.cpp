// Unit tests for src/staticcheck: CFG construction, the dataflow lattices,
// the lint driver, and the contract screener — including the regression
// property that screener verdicts always agree with the full checker.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/callgraph.hpp"
#include "corpus/ticket.hpp"
#include "inference/mock_llm.hpp"
#include "lisa/checker.hpp"
#include "lisa/contract.hpp"
#include "minilang/sema.hpp"
#include "smt/minilang_bridge.hpp"
#include "smt/solver.hpp"
#include "staticcheck/analyses.hpp"
#include "analysis/cfg.hpp"
#include "staticcheck/concurrency.hpp"
#include "staticcheck/dataflow.hpp"
#include "staticcheck/screener.hpp"
#include "staticcheck/summaries.hpp"

namespace lisa::staticcheck {
namespace {

using minilang::Program;
using minilang::Stmt;

int count_kind(const Cfg& cfg, CfgNode::Kind kind) {
  int n = 0;
  for (const CfgNode& node : cfg.nodes())
    if (node.kind == kind) ++n;
  return n;
}

// ---------------------------------------------------------------------------
// CFG construction
// ---------------------------------------------------------------------------

TEST(Cfg, LinearFunctionChainsEntryToExit) {
  const Program program = minilang::parse_checked(R"(
@entry
fn f(n: int) {
  let x = n;
  print(x);
}
)");
  const Cfg cfg = Cfg::build(program.functions[0]);
  EXPECT_EQ(count_kind(cfg, CfgNode::Kind::kEntry), 1);
  EXPECT_EQ(count_kind(cfg, CfgNode::Kind::kExit), 1);
  EXPECT_EQ(count_kind(cfg, CfgNode::Kind::kStmt), 2);
  // entry is first in RPO; every statement node is reachable.
  const std::vector<int> rpo = cfg.reverse_post_order();
  ASSERT_FALSE(rpo.empty());
  EXPECT_EQ(rpo.front(), cfg.entry());
  // node_of resolves each top-level statement.
  for (const minilang::StmtPtr& stmt : program.functions[0].body)
    EXPECT_GE(cfg.node_of(stmt.get()), 0);
}

TEST(Cfg, IfProducesGuardedEdgesAndJoin) {
  const Program program = minilang::parse_checked(R"(
@entry
fn f(n: int) {
  if (n > 0) {
    print(1);
  } else {
    print(2);
  }
  print(3);
}
)");
  const Cfg cfg = Cfg::build(program.functions[0]);
  const int cond = cfg.node_of(program.functions[0].body[0].get());
  ASSERT_GE(cond, 0);
  const CfgNode& branch = cfg.node(cond);
  EXPECT_EQ(branch.kind, CfgNode::Kind::kBranch);
  EXPECT_FALSE(branch.loop_head);
  // One taken and one not-taken edge, both guarded by the condition.
  std::set<bool> polarities;
  for (const CfgEdge& edge : branch.succs) {
    ASSERT_NE(edge.guard, nullptr);
    EXPECT_FALSE(edge.suppress_refine);
    polarities.insert(edge.taken);
  }
  EXPECT_EQ(polarities, (std::set<bool>{false, true}));
}

TEST(Cfg, WhileLoopHeadAndSuppressedExitGuard) {
  const Program program = minilang::parse_checked(R"(
@entry
fn f(n: int) {
  let i = 0;
  while (i < n) {
    i = i + 1;
  }
  print(i);
}
)");
  const Cfg cfg = Cfg::build(program.functions[0]);
  const int head = cfg.node_of(program.functions[0].body[1].get());
  ASSERT_GE(head, 0);
  const CfgNode& loop = cfg.node(head);
  EXPECT_TRUE(loop.loop_head);
  bool saw_taken = false;
  bool saw_exit = false;
  for (const CfgEdge& edge : loop.succs) {
    if (edge.taken) {
      saw_taken = true;
      EXPECT_FALSE(edge.suppress_refine);
    } else {
      saw_exit = true;
      // Falling past a loop records no exit guard (mirrors analysis/paths).
      EXPECT_TRUE(edge.suppress_refine);
    }
  }
  EXPECT_TRUE(saw_taken);
  EXPECT_TRUE(saw_exit);
  // The back edge makes the loop head one of its own transitive predecessors.
  EXPECT_GE(loop.preds.size(), 2u);
}

TEST(Cfg, BreakExitsLoopAndContinueReturnsToHead) {
  const Program program = minilang::parse_checked(R"(
@entry
fn f(n: int) {
  let i = 0;
  while (i < n) {
    i = i + 1;
    if (i > 3) {
      break;
    }
    if (i > 1) {
      continue;
    }
    print(i);
  }
  print(i);
}
)");
  const Cfg cfg = Cfg::build(program.functions[0]);
  // Every node is wired somewhere sane: the graph has exactly one exit and
  // the final print is reachable (break edges land past the loop).
  const std::vector<int> rpo = cfg.reverse_post_order();
  std::set<int> reachable;
  // Depth-first from entry using succ edges only.
  std::vector<int> stack{cfg.entry()};
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (!reachable.insert(id).second) continue;
    for (const CfgEdge& edge : cfg.node(id).succs) stack.push_back(edge.to);
  }
  const int last_print = cfg.node_of(program.functions[0].body.back().get());
  ASSERT_GE(last_print, 0);
  EXPECT_TRUE(reachable.count(last_print) > 0);
  EXPECT_TRUE(reachable.count(cfg.exit()) > 0);
}

TEST(Cfg, SyncBlocksGetEnterAndExitNodes) {
  const Program program = minilang::parse_checked(R"(
struct Node { data: string; }
@entry
fn f(n: Node) {
  sync (n) {
    print(1);
  }
  print(2);
}
)");
  const Cfg cfg = Cfg::build(program.functions[0]);
  EXPECT_EQ(count_kind(cfg, CfgNode::Kind::kSyncEnter), 1);
  EXPECT_EQ(count_kind(cfg, CfgNode::Kind::kSyncExit), 1);
}

TEST(Cfg, ExceptionEdgeOutOfSyncRecordsUnwindCount) {
  const Program program = minilang::parse_checked(R"(
struct Node { data: string; }
@entry
fn f(n: Node) {
  try {
    sync (n) {
      print(1);
    }
  } catch (e) {
    print(2);
  }
}
)");
  const Cfg cfg = Cfg::build(program.functions[0]);
  // The statement inside the sync body may throw; its exception edge must
  // release exactly the one monitor acquired since the try was entered.
  bool saw_unwind = false;
  for (const CfgNode& node : cfg.nodes())
    for (const CfgEdge& edge : node.succs)
      if (edge.sync_unwind > 0) {
        saw_unwind = true;
        EXPECT_EQ(edge.sync_unwind, 1);
      }
  EXPECT_TRUE(saw_unwind);
}

TEST(Cfg, TopLevelThrowUnwindsAllMonitorsToExit) {
  const Program program = minilang::parse_checked(R"(
struct Node { data: string; }
@entry
fn f(n: Node) {
  sync (n) {
    throw "boom";
  }
}
)");
  const Cfg cfg = Cfg::build(program.functions[0]);
  bool saw = false;
  for (const CfgNode& node : cfg.nodes())
    for (const CfgEdge& edge : node.succs)
      if (edge.to == cfg.exit() && edge.sync_unwind == 1) saw = true;
  EXPECT_TRUE(saw);
}

// ---------------------------------------------------------------------------
// Dataflow engine + lattices
// ---------------------------------------------------------------------------

TEST(Dataflow, NullnessRefinesGuardsPerBranchArm) {
  const Program program = minilang::parse_checked(R"(
struct Session { ok: bool; }
@entry
fn f(s: Session?) {
  if (s == null) {
    print(1);
  } else {
    print(2);
  }
}
)");
  const minilang::FuncDecl& fn = program.functions[0];
  const Cfg cfg = Cfg::build(fn);
  NullnessAnalysis analysis(program);
  const DataflowResult<NullnessAnalysis> result = run_forward(cfg, analysis);
  const Stmt* then_stmt = fn.body[0]->body[0].get();
  const Stmt* else_stmt = fn.body[0]->else_body[0].get();
  const int then_node = cfg.node_of(then_stmt);
  const int else_node = cfg.node_of(else_stmt);
  ASSERT_GE(then_node, 0);
  ASSERT_GE(else_node, 0);
  const auto& then_state = result.in[static_cast<std::size_t>(then_node)];
  const auto& else_state = result.in[static_cast<std::size_t>(else_node)];
  ASSERT_TRUE(then_state.count("s") > 0);
  EXPECT_EQ(then_state.at("s"), NullFact::kNull);
  ASSERT_TRUE(else_state.count("s") > 0);
  EXPECT_EQ(else_state.at("s"), NullFact::kNonNull);
}

TEST(Dataflow, NullnessJoinKeepsOnlyAgreeingFacts) {
  NullnessAnalysis analysis(Program{});
  NullnessAnalysis::State a{{"p", NullFact::kNull}, {"q", NullFact::kNonNull}};
  const NullnessAnalysis::State b{{"p", NullFact::kNonNull}, {"q", NullFact::kNonNull}};
  EXPECT_TRUE(analysis.join(a, b));  // p dropped -> state changed
  EXPECT_EQ(a.count("p"), 0u);      // disagreement -> unknown
  ASSERT_EQ(a.count("q"), 1u);      // agreement survives
  EXPECT_EQ(a.at("q"), NullFact::kNonNull);
  EXPECT_FALSE(analysis.join(a, a));  // join is idempotent
}

TEST(Dataflow, DefiniteAssignmentWarnsOnUnassignedFieldRead) {
  const Program program = minilang::parse_checked(R"(
struct Pair { a: int; b: int; }
@entry
fn f() {
  let p = new Pair { a: 1 };
  print(p.b);
}
)");
  const std::vector<Diagnostic> diagnostics = lint_program(program);
  bool saw = false;
  for (const Diagnostic& diagnostic : diagnostics)
    if (diagnostic.analysis == "definite-assignment" &&
        diagnostic.message.find("'b'") != std::string::npos)
      saw = true;
  EXPECT_TRUE(saw);
}

TEST(Dataflow, DefiniteAssignmentCleanWhenAssignedOnAllPaths) {
  const Program program = minilang::parse_checked(R"(
struct Pair { a: int; b: int; }
@entry
fn f(n: int) {
  let p = new Pair { a: 1 };
  if (n > 0) {
    p.b = 2;
  } else {
    p.b = 3;
  }
  print(p.b);
}
)");
  for (const Diagnostic& diagnostic : lint_program(program))
    EXPECT_NE(diagnostic.analysis, "definite-assignment") << diagnostic.render();
}

TEST(Dataflow, LockStateFlagsBlockingCallUnderMonitor) {
  const Program program = minilang::parse_checked(R"(
struct Node { data: string; }
@entry
fn f(n: Node) {
  sync (n) {
    write_record(n, n.data);
  }
}
)");
  const std::vector<Diagnostic> diagnostics = lint_program(program);
  bool saw = false;
  for (const Diagnostic& diagnostic : diagnostics)
    if (diagnostic.analysis == "lock-state" && diagnostic.severity == Severity::kError)
      saw = true;
  EXPECT_TRUE(saw);
}

TEST(Dataflow, LockStateReleasesMonitorOnExceptionUnwind) {
  // The blocking call sits in the catch handler: the monitor acquired in
  // the try body was released during unwinding, so there is no violation.
  // A lexical walk of sync blocks cannot see this; the path-sensitive
  // lattice behind the lock-state screen can.
  const Program program = minilang::parse_checked(R"(
struct Node { data: string; }
@entry
fn f(n: Node) {
  try {
    sync (n) {
      throw "boom";
    }
  } catch (e) {
    write_record(n, "recovered");
  }
}
)");
  for (const Diagnostic& diagnostic : lint_program(program))
    EXPECT_NE(diagnostic.analysis, "lock-state") << diagnostic.render();
}

TEST(Dataflow, IntervalConstantConditionIsReported) {
  const Program program = minilang::parse_checked(R"(
@entry
fn f(n: int) {
  let x = 1;
  if (x < 2) {
    print(1);
  }
}
)");
  const std::vector<Diagnostic> diagnostics = lint_program(program);
  bool saw = false;
  for (const Diagnostic& diagnostic : diagnostics)
    if (diagnostic.analysis == "intervals" &&
        diagnostic.message.find("always true") != std::string::npos)
      saw = true;
  EXPECT_TRUE(saw);
}

TEST(Dataflow, IntervalFoldWrapsLikeExecution) {
  // INT64_MAX + 1 wraps to INT64_MIN at run time, so `> 0` is always
  // false there. A fold that saturated to +inf would call it always true.
  const Program program = minilang::parse_checked(R"(
@entry
fn f(n: int) {
  let x = 9223372036854775807;
  if (x + 1 > 0) {
    print(1);
  }
}
)");
  bool always_false = false;
  for (const Diagnostic& diagnostic : lint_program(program)) {
    if (diagnostic.analysis != "intervals") continue;
    EXPECT_EQ(diagnostic.message.find("always true"), std::string::npos) << diagnostic.render();
    if (diagnostic.message.find("always false") != std::string::npos) always_false = true;
  }
  EXPECT_TRUE(always_false);

  // Bounds whose sum leaves int64 may wrap anywhere: nothing is decided.
  const Program ranged = minilang::parse_checked(R"(
@entry
fn g(n: int) {
  if (n > 0 && n < 10) {
    let y = n + 9223372036854775800;
    if (y > 0) {
      print(1);
    }
  }
}
)");
  for (const Diagnostic& diagnostic : lint_program(ranged))
    EXPECT_NE(diagnostic.analysis, "intervals") << diagnostic.render();
}

TEST(Dataflow, IntervalFixpointTerminatesOnLoops) {
  // An incrementing loop has an infinite ascending chain without widening;
  // the engine must still reach a fixpoint well under the visit cap.
  const Program program = minilang::parse_checked(R"(
@entry
fn f(n: int) {
  let i = 0;
  while (i < n) {
    i = i + 1;
  }
  print(i);
}
)");
  const Cfg cfg = Cfg::build(program.functions[0]);
  IntervalAnalysis analysis(program);
  const DataflowResult<IntervalAnalysis> result = run_forward(cfg, analysis);
  EXPECT_LT(result.iterations,
            static_cast<int>(cfg.nodes().size()) * kMaxVisitsPerNode);
  // No dead-branch diagnostic: the loop guard is genuinely two-sided.
  for (const Diagnostic& diagnostic : lint_program(program))
    EXPECT_NE(diagnostic.analysis, "intervals") << diagnostic.render();
}

TEST(Dataflow, IntervalRefinementClampsGuardedRanges) {
  const Program program = minilang::parse_checked(R"(
@entry
fn f(n: int) {
  if (n > 10) {
    if (n > 5) {
      print(1);
    }
  }
}
)");
  // Inside `n > 10`, the nested `n > 5` is decided: always true.
  bool saw = false;
  for (const Diagnostic& diagnostic : lint_program(program))
    if (diagnostic.analysis == "intervals" &&
        diagnostic.message.find("always true") != std::string::npos)
      saw = true;
  EXPECT_TRUE(saw);
}

// ---------------------------------------------------------------------------
// Screener
// ---------------------------------------------------------------------------

TEST(Screener, FactsAtExposeConstantsAsFormulas) {
  const Program program = minilang::parse_checked(R"(
@entry
fn f() {
  let x = 5;
  print(x);
}
)");
  const minilang::FuncDecl& fn = program.functions[0];
  const Screener screener(program);
  const smt::FormulaPtr facts = screener.facts_at(fn, fn.body[1].get());
  ASSERT_NE(facts, nullptr);
  smt::Solver solver;
  // x is exactly 5 at the print: facts ∧ (x < 5) is unsatisfiable...
  const auto lt = smt::parse_condition("x < 5");
  ASSERT_TRUE(lt.has_value());
  EXPECT_FALSE(solver.solve(smt::Formula::conj2(facts, *lt)).sat());
  // ...while facts ∧ (x > 4) is satisfiable.
  const auto gt = smt::parse_condition("x > 4");
  ASSERT_TRUE(gt.has_value());
  EXPECT_TRUE(solver.solve(smt::Formula::conj2(facts, *gt)).sat());
}

TEST(Screener, ProvesGuardedContractSafe) {
  const Program program = minilang::parse_checked(R"(
struct Session { ok: bool; }
fn do_commit(s: Session) {
  if (s.ok) {
    print(1);
  }
}
fn act(s: Session) {
  do_commit(s);
}
@entry
fn handler(s: Session) {
  if (s.ok) {
    act(s);
  }
}
)");
  const Screener screener(program);
  const auto condition = smt::parse_condition("s.ok");
  ASSERT_TRUE(condition.has_value());
  const ScreenResult result = screener.screen_state_predicate("do_commit(", *condition);
  EXPECT_EQ(result.verdict, ScreenVerdict::kProvedSafe);
  EXPECT_GT(result.paths_checked, 0u);
}

TEST(Screener, RefutesUnguardedContractWithWitness) {
  const Program program = minilang::parse_checked(R"(
struct Session { ok: bool; }
fn do_commit(s: Session) {
  if (s.ok) {
    print(1);
  }
}
fn act(s: Session) {
  do_commit(s);
}
@entry
fn handler(s: Session) {
  act(s);
}
)");
  const Screener screener(program);
  const auto condition = smt::parse_condition("s.ok");
  ASSERT_TRUE(condition.has_value());
  const ScreenResult result = screener.screen_state_predicate("do_commit(", *condition);
  EXPECT_EQ(result.verdict, ScreenVerdict::kProvedViolated);
  EXPECT_FALSE(result.witness.empty());
}

TEST(Screener, MissingTargetIsUnknown) {
  const Program program = minilang::parse_checked(R"(
@entry
fn f(n: int) {
  print(n);
}
)");
  const Screener screener(program);
  const auto condition = smt::parse_condition("n > 0");
  ASSERT_TRUE(condition.has_value());
  const ScreenResult result =
      screener.screen_state_predicate("no_such_call(", *condition);
  EXPECT_EQ(result.verdict, ScreenVerdict::kUnknown);
}

TEST(Screener, StructuralVerdictMatchesLockState) {
  const Program clean = minilang::parse_checked(R"(
struct Node { data: string; }
@entry
fn f(n: Node) {
  let d = "";
  sync (n) {
    d = n.data;
  }
  write_record(n, d);
}
)");
  EXPECT_EQ(Screener(clean).screen_structural().verdict, ScreenVerdict::kProvedSafe);

  const Program dirty = minilang::parse_checked(R"(
struct Node { data: string; }
@entry
fn f(n: Node) {
  sync (n) {
    write_record(n, n.data);
  }
}
)");
  const ScreenResult result = Screener(dirty).screen_structural();
  EXPECT_EQ(result.verdict, ScreenVerdict::kProvedViolated);
  ASSERT_FALSE(result.diagnostics.empty());
  EXPECT_FALSE(result.witness.empty());
}

TEST(Screener, ProvedSafeSkipsConcolicInChecker) {
  const Program program = minilang::parse_checked(R"(
struct Session { ok: bool; }
fn do_commit(s: Session) {
  if (s.ok) {
    print(1);
  }
}
fn act(s: Session) {
  do_commit(s);
}
@entry
fn handler(s: Session) {
  if (s.ok) {
    act(s);
  }
}
@test
fn test_handler() {
  let s = new Session { ok: true };
  handler(s);
}
)");
  core::SemanticContract contract;
  contract.id = "synthetic#0";
  contract.kind = corpus::SemanticsKind::kStatePredicate;
  contract.target_fragment = "do_commit(";
  contract.condition_text = "s.ok";
  contract.condition = *smt::parse_condition("s.ok");
  const core::Checker checker;
  const Screener analysis(program);
  core::CheckOptions options;  // static_screen defaults on
  const core::ContractCheckReport report = checker.check(analysis, contract, options);
  EXPECT_EQ(report.screen_verdict, "proved-safe");
  EXPECT_TRUE(report.screen_skipped_concolic);
  EXPECT_EQ(report.dynamic.tests_run, 0);
  EXPECT_TRUE(report.passed());

  // Screening off: the concolic replay runs and reaches the same verdict.
  core::CheckOptions no_screen = options;
  no_screen.static_screen = false;
  const core::ContractCheckReport full = checker.check(analysis, contract, no_screen);
  EXPECT_GT(full.dynamic.tests_run, 0);
  EXPECT_TRUE(full.passed());
  EXPECT_TRUE(full.screen_verdict.empty());
}

TEST(Screener, ForcedTestsAlwaysRunDespiteVerdict) {
  const Program program = minilang::parse_checked(R"(
struct Session { ok: bool; }
fn do_commit(s: Session) {
  if (s.ok) {
    print(1);
  }
}
fn act(s: Session) {
  do_commit(s);
}
@entry
fn handler(s: Session) {
  if (s.ok) {
    act(s);
  }
}
@test
fn test_handler() {
  let s = new Session { ok: true };
  handler(s);
}
)");
  core::SemanticContract contract;
  contract.id = "synthetic#0";
  contract.kind = corpus::SemanticsKind::kStatePredicate;
  contract.target_fragment = "do_commit(";
  contract.condition_text = "s.ok";
  contract.condition = *smt::parse_condition("s.ok");
  core::CheckOptions options;
  options.forced_tests = {"test_handler"};
  const core::ContractCheckReport report =
      core::Checker().check(Screener(program), contract, options);
  EXPECT_EQ(report.screen_verdict, "proved-safe");
  EXPECT_FALSE(report.screen_skipped_concolic);
  EXPECT_EQ(report.dynamic.tests_run, 1);
}

// ---------------------------------------------------------------------------
// Interprocedural summaries
// ---------------------------------------------------------------------------

SummaryMap summarize_program(const Program& program) {
  return SummaryMap::compute(program, analysis::CallGraph::build(program));
}

TEST(Summaries, ModRefEffectsPropagateTransitively) {
  const Program program = minilang::parse_checked(R"(
struct S { a: int; b: int; }
fn write_a(s: S) {
  s.a = 1;
}
fn read_b(s: S) -> int {
  return s.b;
}
@entry
fn top(s: S) {
  write_a(s);
  print(read_b(s));
}
)");
  const SummaryMap map = summarize_program(program);

  const FunctionSummary* writer = map.find("write_a");
  ASSERT_NE(writer, nullptr);
  EXPECT_EQ(writer->mod_fields, (std::set<std::string>{"a"}));
  EXPECT_EQ(writer->mod_params, (std::set<std::size_t>{0}));
  EXPECT_FALSE(writer->may_throw);
  EXPECT_FALSE(writer->opaque_effects);

  const FunctionSummary* reader = map.find("read_b");
  ASSERT_NE(reader, nullptr);
  EXPECT_TRUE(reader->mod_fields.empty());
  EXPECT_TRUE(reader->mod_params.empty());
  EXPECT_EQ(reader->ref_fields, (std::set<std::string>{"b"}));

  // Effects flow bottom-up: the caller's MOD/REF sets include the callees'.
  const FunctionSummary* caller = map.find("top");
  ASSERT_NE(caller, nullptr);
  EXPECT_EQ(caller->mod_fields.count("a"), 1u);
  EXPECT_EQ(caller->ref_fields.count("b"), 1u);

  // Call-site effects: only what the callee can touch is killed.
  EXPECT_FALSE(map.effect_of("read_b").kills_field("a"));
  EXPECT_TRUE(map.effect_of("write_a").kills_field("a"));
  EXPECT_FALSE(map.effect_of("write_a").kills_field("b"));
  EXPECT_TRUE(map.effect_of("write_a").writes_param(0));
  // Builtins: container mutators write params but no struct fields; pure
  // builtins touch nothing; unknown names havoc everything.
  EXPECT_TRUE(map.effect_of("put").writes_param(0));
  EXPECT_FALSE(map.effect_of("put").kills_field("a"));
  EXPECT_FALSE(map.effect_of("print").writes_param(0));
  EXPECT_TRUE(map.effect_of("no_such_function").havoc_all);
}

TEST(Summaries, RecursiveReturnIntervalWidensToFixpoint) {
  const Program program = minilang::parse_checked(R"(
fn depth(n: int) -> int {
  if (n <= 0) { return 0; }
  return depth(n - 1) + 1;
}
@entry
fn drive(n: int) {
  print(depth(n));
}
)");
  const SummaryMap map = summarize_program(program);
  const FunctionSummary* summary = map.find("depth");
  ASSERT_NE(summary, nullptr);
  // Rounds climb [0,0] -> [0,1] -> [0,2], then widening pins the moving
  // upper bound; the fixpoint is [0, +inf), never empty and never top.
  EXPECT_EQ(summary->return_interval.lo, 0);
  EXPECT_EQ(summary->return_interval.hi, Interval::kMax);
  EXPECT_EQ(map.stats().recursive_components, 1);
  EXPECT_GT(map.stats().fixpoint_iterations, 0);
}

TEST(Summaries, MutualRecursionReachesFixpoint) {
  const Program program = minilang::parse_checked(R"(
fn even(n: int) -> bool {
  if (n == 0) { return true; }
  return odd(n - 1);
}
fn odd(n: int) -> bool {
  if (n == 0) { return false; }
  return even(n - 1);
}
@entry
fn drive(n: int) {
  print(even(n));
}
)");
  const SummaryMap map = summarize_program(program);
  const FunctionSummary* even = map.find("even");
  const FunctionSummary* odd = map.find("odd");
  ASSERT_NE(even, nullptr);
  ASSERT_NE(odd, nullptr);
  // even/odd form one two-member SCC; the fixpoint converges without
  // smuggling in spurious effects.
  EXPECT_EQ(map.stats().recursive_components, 1);
  EXPECT_FALSE(even->may_throw);
  EXPECT_FALSE(odd->may_throw);
  EXPECT_TRUE(even->mod_fields.empty());
  EXPECT_TRUE(odd->mod_params.empty());
}

TEST(Summaries, SyncBlocksProveZeroNetMonitorEffect) {
  const Program program = minilang::parse_checked(R"(
struct Node { value: int; }
fn bump_locked(node: Node) {
  sync (node) {
    node.value = node.value + 1;
  }
}
fn throw_under_sync(node: Node) {
  sync (node) {
    throw "boom";
  }
}
@entry
fn drive(node: Node) {
  bump_locked(node);
  throw_under_sync(node);
}
)");
  const SummaryMap map = summarize_program(program);
  const FunctionSummary* balanced = map.find("bump_locked");
  ASSERT_NE(balanced, nullptr);
  EXPECT_EQ(balanced->net_monitor_normal, 0);
  EXPECT_FALSE(balanced->may_throw);
  // Block-structured sync releases the monitor on the unwind edge too.
  const FunctionSummary* thrower = map.find("throw_under_sync");
  ASSERT_NE(thrower, nullptr);
  EXPECT_TRUE(thrower->may_throw);
  EXPECT_EQ(thrower->net_monitor_throw, 0);
}

TEST(Summaries, MayBlockRequiresCfgReachableBlockingCall) {
  const Program program = minilang::parse_checked(R"(
fn dead_block(path: string) {
  return;
  write_record(path, path);
}
fn live_block(path: string) {
  write_record(path, path);
}
@entry
fn drive(path: string) {
  dead_block(path);
  live_block(path);
}
)");
  // The syntactic call-graph bit says both reach a blocking builtin…
  const analysis::CallGraph graph = analysis::CallGraph::build(program);
  EXPECT_TRUE(graph.reaches_blocking("dead_block"));
  EXPECT_TRUE(graph.reaches_blocking("live_block"));
  // …but the summary is CFG-precise: the call after `return` is dead.
  const SummaryMap map = summarize_program(program);
  ASSERT_NE(map.find("dead_block"), nullptr);
  EXPECT_FALSE(map.find("dead_block")->may_block);
  ASSERT_NE(map.find("live_block"), nullptr);
  EXPECT_TRUE(map.find("live_block")->may_block);
}

TEST(Summaries, NullCheckTransfersThroughReturn) {
  const Program program = minilang::parse_checked(R"(
struct Conn { id: int; }
fn require(conn: Conn?) -> Conn {
  if (conn == null) { throw "null connection"; }
  return conn;
}
@entry
fn drive(conn: Conn?) {
  print(require(conn).id);
}
)");
  const SummaryMap map = summarize_program(program);
  const FunctionSummary* summary = map.find("require");
  ASSERT_NE(summary, nullptr);
  // The guard dominates every normal return, so both the returned value and
  // the caller's argument are known non-null after the call.
  EXPECT_EQ(summary->return_nullness, FunctionSummary::Nullability::kNonNull);
  const auto fact = summary->nullness_on_return.find("conn");
  ASSERT_NE(fact, summary->nullness_on_return.end());
  EXPECT_EQ(fact->second, NullFact::kNonNull);
  EXPECT_TRUE(summary->may_throw);
}

TEST(Summaries, TrackedObjectSurvivesReadOnlyCall) {
  // Definite-assignment ablation: without summaries a call escapes the
  // tracked object and the never-assigned-field read goes unreported; with
  // summaries the read-only callee keeps the tracking alive.
  const Program program = minilang::parse_checked(R"(
struct Gauge { count: int; }
fn inspect(g: Gauge) -> int {
  return g.count;
}
@entry
fn drive() {
  let g = new Gauge {};
  print(inspect(g));
  print(g.count);
}
)");
  const auto count_defassign = [](const std::vector<Diagnostic>& diags) {
    int n = 0;
    for (const Diagnostic& d : diags)
      if (d.analysis == "definite-assignment") ++n;
    return n;
  };
  EXPECT_EQ(count_defassign(lint_program(program, true, /*use_summaries=*/false)), 0);
  EXPECT_GE(count_defassign(lint_program(program, true, /*use_summaries=*/true)), 1);
}

TEST(Screener, FactClosureSettlesUnmappablePathOnlyWithSummaries) {
  // The only entry->target path passes the argument as a call expression, so
  // the path condition cannot be mapped onto the contract variables and the
  // havoc-mode screener must stay Unknown. With summaries, the callee's
  // return nullability becomes a boundary fact for the helper, and the
  // dataflow facts refute the contract's complement at the target: the
  // fact-closure rule settles the contract ProvedSafe.
  const Program program = minilang::parse_checked(R"(
struct Entry { rc: int; }
struct Table { entries: map<string, Entry>; }
fn checked(t: Table, id: string) -> Entry {
  let e = get(t.entries, id);
  if (e == null) { throw "missing entry"; }
  return e;
}
fn bump(e: Entry) {
  e.rc = e.rc + 1;
}
fn touch(t: Table, e: Entry?) {
  bump(e);
}
@entry
fn drive(t: Table, id: string) {
  touch(t, checked(t, id));
}
)");
  const auto condition = smt::parse_condition("!(e == null)");
  ASSERT_TRUE(condition.has_value());
  const Screener havoc(program, /*use_summaries=*/false);
  EXPECT_EQ(havoc.screen_state_predicate("bump(", *condition).verdict,
            ScreenVerdict::kUnknown);
  const Screener summarized(program, /*use_summaries=*/true);
  const ScreenResult result = summarized.screen_state_predicate("bump(", *condition);
  EXPECT_EQ(result.verdict, ScreenVerdict::kProvedSafe);
}

// The acceptance property for the whole subsystem: on every corpus program
// and contract, a settled screening verdict must agree with the full
// static + concolic checker — in both ablation modes. Screening may say
// Unknown, never the wrong thing; summaries must settle strictly more.
TEST(Screener, VerdictsAgreeWithFullCheckerAcrossCorpus) {
  int settled_havoc = 0;
  int settled_summaries = 0;
  for (const corpus::FailureTicket& ticket : corpus::Corpus::all()) {
    const inference::SemanticsProposal proposal = inference::MockLlm().infer(ticket);
    const core::TranslationResult translation =
        core::translate(proposal, ticket.system);
    for (const std::string* source :
         {&ticket.buggy_source, &ticket.patched_source, &ticket.latest_source}) {
      if (source->empty()) continue;
      const Program program = minilang::parse_checked(*source);
      for (const core::SemanticContract& contract : translation.contracts) {
        core::CheckOptions truth_options;
        truth_options.static_screen = false;
        const core::ContractCheckReport truth =
            core::Checker().check(Screener(program), contract, truth_options);
        for (const bool use_summaries : {false, true}) {
          // Default options: screening on.
          const core::ContractCheckReport screened =
              core::Checker().check(Screener(program, use_summaries), contract);
          int& settled = use_summaries ? settled_summaries : settled_havoc;
          if (screened.screen_verdict == "proved-safe") {
            ++settled;
            EXPECT_TRUE(truth.passed())
                << ticket.case_id << " " << contract.id
                << (use_summaries ? " [summaries]" : " [havoc]")
                << ": screener said safe, checker found violations";
          } else if (screened.screen_verdict == "proved-violated") {
            ++settled;
            EXPECT_FALSE(truth.passed())
                << ticket.case_id << " " << contract.id
                << (use_summaries ? " [summaries]" : " [havoc]")
                << ": screener said violated, checker found none";
          }
        }
      }
    }
  }
  // The subsystem must actually settle a useful share of the corpus
  // (the bench measures the exact fraction; this is the smoke floor), and
  // interprocedural summaries must settle strictly more than call-site
  // havoc — the corpus keeps at least one contract only they can close.
  EXPECT_GT(settled_havoc, 0);
  EXPECT_GT(settled_summaries, settled_havoc);
}

// Pins the specific corpus case the summary ablation is built around: the
// hdfs-safemode replay-bookkeeping contract flows through a call-expression
// argument (an unmappable path), so havoc mode stays Unknown while the
// summary fact-closure rule proves it safe on both program versions.
TEST(Screener, SummaryClosureSettlesHdfsSafemodeBookkeeping) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("hdfs-safemode-allocation");
  ASSERT_NE(ticket, nullptr);
  const core::TranslationResult translation =
      core::translate(inference::MockLlm().infer(*ticket), ticket->system);
  const core::SemanticContract* contract = nullptr;
  for (const core::SemanticContract& candidate : translation.contracts)
    if (candidate.target_fragment == "record_allocation(") contract = &candidate;
  ASSERT_NE(contract, nullptr);
  ASSERT_NE(contract->condition, nullptr);
  for (const std::string* source : {&ticket->buggy_source, &ticket->patched_source}) {
    const Program program = minilang::parse_checked(*source);
    const Screener havoc(program, /*use_summaries=*/false);
    EXPECT_EQ(havoc.screen_state_predicate(contract->target_fragment, contract->condition)
                  .verdict,
              ScreenVerdict::kUnknown);
    const Screener summarized(program, /*use_summaries=*/true);
    EXPECT_EQ(
        summarized.screen_state_predicate(contract->target_fragment, contract->condition)
            .verdict,
        ScreenVerdict::kProvedSafe);
  }
}

// ---------------------------------------------------------------------------
// Concurrency: locksets, the lock-order graph, and the race rule
// ---------------------------------------------------------------------------

SummaryMap summarize(const Program& program) {
  return SummaryMap::compute(program, analysis::CallGraph::build(program));
}

// A throw inside nested sync blocks unwinds through the monitors in LIFO
// order: the catch body holds nothing, and a later sync re-acquires cleanly.
TEST(Lockset, ThrowUnwindReleasesMonitorsLifo) {
  const Program program = minilang::parse_checked(R"(
struct A { x: int; }
struct B { y: int; }
@entry
fn f(a: A, b: B) {
  try {
    sync (a) {
      sync (b) {
        throw "E";
      }
    }
  } catch (e) {
    print(e);
  }
  sync (b) {
    b.y = 1;
  }
}
)");
  const analysis::CallGraph graph = analysis::CallGraph::build(program);
  const Cfg cfg = Cfg::build(program.functions[0]);
  LocksetAnalysis analysis_(program, graph);
  const auto result = run_forward(cfg, analysis_);
  const Stmt* catch_print = nullptr;
  const Stmt* guarded_write = nullptr;
  program.for_each_stmt([&](const minilang::FuncDecl&, const Stmt& stmt) {
    if (stmt.kind == Stmt::Kind::kExpr) catch_print = &stmt;
    if (stmt.kind == Stmt::Kind::kAssign) guarded_write = &stmt;
  });
  ASSERT_NE(catch_print, nullptr);
  ASSERT_NE(guarded_write, nullptr);
  const int catch_node = cfg.node_of(catch_print);
  const int write_node = cfg.node_of(guarded_write);
  ASSERT_GE(catch_node, 0);
  ASSERT_GE(write_node, 0);
  // Both monitors released on the unwind path into the catch.
  EXPECT_TRUE(result.in[catch_node].held.empty());
  // The later sync re-acquires exactly its own monitor.
  EXPECT_EQ(result.in[write_node].held, (std::vector<std::string>{"b"}));
}

// The unwind path must not trip the deadlock or race rules: two roots with
// a consistent acquisition order stay clean even when one throws mid-sync.
TEST(Lockset, UnwindPathProducesNoFalseConcurrencyPositives) {
  const Program program = minilang::parse_checked(R"(
struct Pool { active: int; }
struct Conn { open: bool; sends: int; }

@entry
fn send_guarded(pool: Pool, conn: Conn) {
  sync (pool) {
    sync (conn) {
      if (conn.open == false) {
        throw "ConnectionClosedException";
      }
      conn.sends = conn.sends + 1;
    }
    pool.active = pool.active + 1;
  }
}

@entry
fn close_conn(pool: Pool, conn: Conn) {
  sync (pool) {
    sync (conn) {
      conn.open = false;
    }
    pool.active = pool.active - 1;
  }
}
)");
  for (const Diagnostic& diagnostic : lint_program(program)) {
    EXPECT_NE(diagnostic.analysis, "deadlock") << diagnostic.render();
    EXPECT_NE(diagnostic.analysis, "race") << diagnostic.render();
  }
}

// Satellite acceptance: a recursive SCC whose functions acquire monitors
// must reach the summary fixpoint in bounded rounds without degrading.
TEST(Summaries, RecursiveSccWithMonitorEffectsConverges) {
  const Program program = minilang::parse_checked(R"(
struct Node { next: Node?; count: int; }

fn walk(n: Node) {
  sync (n) {
    n.count = n.count + 1;
    if (n.next != null) {
      walk(n.next);
    }
  }
}

@entry
fn start(n: Node) {
  walk(n);
}
)");
  const analysis::CallGraph graph = analysis::CallGraph::build(program);
  const SummaryMap summaries = SummaryMap::compute(program, graph);
  EXPECT_GE(summaries.stats().recursive_components, 1);
  EXPECT_GT(summaries.stats().fixpoint_iterations, 0);
  // Well under the divergence safety net (16 rounds): the same-SCC verbatim
  // import keeps the monitor name set finite, so phase A settles fast.
  EXPECT_LT(summaries.stats().fixpoint_iterations, 8);
  const FunctionSummary* walk = summaries.find("walk");
  ASSERT_NE(walk, nullptr);
  EXPECT_FALSE(walk->concurrency_degraded);
  EXPECT_EQ(walk->acquired_locks.count("n"), 1u);
  // Self-acquisition on recursion is not a cycle: the graph stays acyclic.
  EXPECT_TRUE(LockGraph::build(program, graph, summaries).acyclic());
}

TEST(LockGraph, InterproceduralInversionIsOneLocatedCycle) {
  const auto source = [](bool inverted) {
    return std::string(R"(
struct A { x: int; }
struct B { y: int; }
fn lock_b_then_touch(a: A, b: B) {
  sync (b) {
    b.y = b.y + 1;
  }
}
fn lock_a_then_touch(a: A, b: B) {
  sync (a) {
    a.x = a.x + 1;
  }
}
@entry
fn first(a: A, b: B) {
  sync (a) {
    lock_b_then_touch(a, b);
  }
}
)") + (inverted ? R"(
@entry
fn second(a: A, b: B) {
  sync (b) {
    lock_a_then_touch(a, b);
  }
}
)"
                : R"(
@entry
fn second(a: A, b: B) {
  sync (a) {
    lock_b_then_touch(a, b);
  }
}
)");
  };
  const Program buggy = minilang::parse_checked(source(true));
  const analysis::CallGraph buggy_graph = analysis::CallGraph::build(buggy);
  const LockGraph cyclic = LockGraph::build(buggy, buggy_graph, summarize(buggy));
  EXPECT_FALSE(cyclic.acyclic());
  ASSERT_EQ(cyclic.cycles.size(), 1u);
  EXPECT_EQ(cyclic.cycles[0].monitors, (std::vector<std::string>{"a", "b"}));
  // The rendering carries located acquisition chains through the helpers.
  const std::string rendered = cyclic.cycles[0].render();
  EXPECT_NE(rendered.find("while holding"), std::string::npos);
  EXPECT_NE(rendered.find("lock_b_then_touch"), std::string::npos);
  const auto diagnostics = deadlock_diagnostics(cyclic);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].analysis, "deadlock");
  EXPECT_EQ(diagnostics[0].severity, Severity::kError);

  const Program patched = minilang::parse_checked(source(false));
  const analysis::CallGraph patched_graph = analysis::CallGraph::build(patched);
  const LockGraph acyclic = LockGraph::build(patched, patched_graph, summarize(patched));
  EXPECT_TRUE(acyclic.acyclic());
  EXPECT_TRUE(deadlock_diagnostics(acyclic).empty());
}

TEST(Race, InconsistentLocksetFlagsUnguardedWriteOnly) {
  const auto source = [](bool guarded) {
    return std::string(R"(
struct Counter { hits: int; }
@entry
fn observe(c: Counter) {
  sync (c) {
    c.hits = c.hits + 1;
  }
}
)") + (guarded ? R"(
@entry
fn reset(c: Counter) {
  sync (c) {
    c.hits = 0;
  }
}
)"
               : R"(
@entry
fn reset(c: Counter) {
  c.hits = 0;
}
)");
  };
  const Program buggy = minilang::parse_checked(source(false));
  const analysis::CallGraph buggy_graph = analysis::CallGraph::build(buggy);
  const auto diagnostics = race_diagnostics(buggy, buggy_graph, summarize(buggy));
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].analysis, "race");
  EXPECT_EQ(diagnostics[0].function, "reset");
  EXPECT_NE(diagnostics[0].message.find("'hits'"), std::string::npos);
  EXPECT_NE(diagnostics[0].message.find("observe"), std::string::npos);

  const Program patched = minilang::parse_checked(source(true));
  const analysis::CallGraph patched_graph = analysis::CallGraph::build(patched);
  EXPECT_TRUE(race_diagnostics(patched, patched_graph, summarize(patched)).empty());

  // Eraser bias: a field never guarded anywhere (single-threaded idiom)
  // stays silent even with two writing roots.
  const Program unguarded = minilang::parse_checked(R"(
struct Counter { hits: int; }
@entry
fn observe(c: Counter) {
  c.hits = c.hits + 1;
}
@entry
fn reset(c: Counter) {
  c.hits = 0;
}
)");
  const analysis::CallGraph unguarded_graph = analysis::CallGraph::build(unguarded);
  EXPECT_TRUE(race_diagnostics(unguarded, unguarded_graph, summarize(unguarded)).empty());
}

// Sync-free programs never grow concurrency diagnostics — the lint gating
// that keeps pre-concurrency corpus output byte-identical.
TEST(Lint, SyncFreeProgramHasNoConcurrencyDiagnostics) {
  const Program program = minilang::parse_checked(R"(
struct S { n: int; }
@entry
fn bump(s: S) {
  s.n = s.n + 1;
}
@entry
fn clear(s: S) {
  s.n = 0;
}
)");
  for (const Diagnostic& diagnostic : lint_program(program)) {
    EXPECT_NE(diagnostic.analysis, "deadlock") << diagnostic.render();
    EXPECT_NE(diagnostic.analysis, "race") << diagnostic.render();
  }
}

TEST(Screener, InterleavingNeedsSummariesAndKnownPattern) {
  const Program program = minilang::parse_checked(R"(
struct S { n: int; }
@entry
fn bump(s: S) {
  sync (s) {
    s.n = s.n + 1;
  }
}
)");
  const Screener havoc(program, /*use_summaries=*/false);
  EXPECT_EQ(havoc.screen_interleaving("lock_order_acyclic", "sync (", "lock_order_acyclic")
                .verdict,
            ScreenVerdict::kUnknown);
  const Screener summarized(program, /*use_summaries=*/true);
  EXPECT_EQ(summarized
                .screen_interleaving("lock_order_acyclic", "sync (", "lock_order_acyclic")
                .verdict,
            ScreenVerdict::kProvedSafe);
  EXPECT_EQ(summarized.screen_interleaving("guarded_field", "n", "holds(s)").verdict,
            ScreenVerdict::kProvedSafe);
  // Malformed guard and unknown pattern both stay Unknown, never safe.
  EXPECT_EQ(summarized.screen_interleaving("guarded_field", "n", "nonsense").verdict,
            ScreenVerdict::kUnknown);
  EXPECT_EQ(summarized.screen_interleaving("no_such_pattern", "n", "x").verdict,
            ScreenVerdict::kUnknown);
}

TEST(Lint, CorpusAggregateMatchesCli) {
  // The patched corpus keeps exactly one lock-state error by design:
  // zk-2201's serialize_acls retains blocking I/O under sync.
  int lock_errors = 0;
  for (const corpus::FailureTicket& ticket : corpus::Corpus::all()) {
    const Program program = minilang::parse_checked(ticket.patched_source);
    for (const Diagnostic& diagnostic : lint_program(program))
      if (diagnostic.analysis == "lock-state" && diagnostic.severity == Severity::kError)
        ++lock_errors;
  }
  EXPECT_EQ(lock_errors, 1);
}

}  // namespace
}  // namespace lisa::staticcheck
