// Unit tests for the concolic engine: shadow propagation, path conditions,
// contract instantiation, and the injected complement check.
#include <gtest/gtest.h>

#include "analysis/callgraph.hpp"
#include "concolic/engine.hpp"
#include "minilang/sema.hpp"
#include "smt/minilang_bridge.hpp"

namespace lisa::concolic {
namespace {

using minilang::Program;

CheckConfig config_for(const Program& program, const std::string& fragment,
                       const std::string& condition) {
  CheckConfig config;
  const analysis::CallGraph graph = analysis::CallGraph::build(program);
  for (const analysis::StatementHeader* target : graph.targets(fragment))
    config.target_stmt_ids.push_back(target->stmt->id);
  config.contract = *smt::parse_condition(condition);
  return config;
}

TEST(Concolic, GuardedPathVerifies) {
  const Program program = minilang::parse_checked(R"(
struct Session { is_closing: bool; }
fn create(s: Session) { print(s); }
@entry
fn request(s: Session?) {
  if (s == null) { throw "expired"; }
  if (s.is_closing) { throw "closing"; }
  create(s);
}
@test
fn test_ok() {
  let s = new Session { is_closing: false };
  request(s);
}
)");
  Engine engine(program);
  const RunResult run =
      engine.run_test("test_ok", config_for(program, "create(", "!(s == null) && !(s.is_closing)"));
  EXPECT_TRUE(run.test_passed);
  ASSERT_EQ(run.hits.size(), 1u);
  EXPECT_TRUE(run.hits[0].instantiable);
  EXPECT_FALSE(run.hits[0].symbolic_violation);
  EXPECT_FALSE(run.hits[0].concrete_violation);
}

TEST(Concolic, MissingCheckIsSymbolicViolation) {
  const Program program = minilang::parse_checked(R"(
struct Session { is_closing: bool; }
fn create(s: Session) { print(s); }
@entry
fn request(s: Session?) {
  if (s == null) { throw "expired"; }
  create(s);
}
@test
fn test_unguarded() {
  let s = new Session { is_closing: false };
  request(s);
}
)");
  Engine engine(program);
  const RunResult run =
      engine.run_test("test_unguarded", config_for(program, "create(", "!(s == null) && !(s.is_closing)"));
  ASSERT_EQ(run.hits.size(), 1u);
  // The trace never constrained is_closing: π ∧ ¬P is satisfiable.
  EXPECT_TRUE(run.hits[0].symbolic_violation);
  // But the concrete state satisfies P (is_closing == false).
  EXPECT_FALSE(run.hits[0].concrete_violation);
  EXPECT_NE(run.hits[0].witness.find("is_closing"), std::string::npos);
}

TEST(Concolic, ConcreteViolationDetected) {
  const Program program = minilang::parse_checked(R"(
struct Session { is_closing: bool; }
fn create(s: Session) { print(s); }
@entry
fn request(s: Session) {
  create(s);
}
@test
fn test_closing() {
  let s = new Session { is_closing: true };
  request(s);
}
)");
  Engine engine(program);
  const RunResult run =
      engine.run_test("test_closing", config_for(program, "create(", "!(s.is_closing)"));
  ASSERT_EQ(run.hits.size(), 1u);
  EXPECT_TRUE(run.hits[0].concrete_violation);
  EXPECT_TRUE(run.hits[0].symbolic_violation);
}

TEST(Concolic, ShadowFlowsThroughLocals) {
  // The guard reads the field into a local first; the shadow must survive.
  const Program program = minilang::parse_checked(R"(
struct Session { is_closing: bool; }
fn create(s: Session) { print(s); }
@entry
fn request(s: Session) {
  let closing = s.is_closing;
  if (closing) { throw "closing"; }
  create(s);
}
@test
fn test_local_guard() {
  let s = new Session { is_closing: false };
  request(s);
}
)");
  Engine engine(program);
  const RunResult run =
      engine.run_test("test_local_guard", config_for(program, "create(", "!(s.is_closing)"));
  ASSERT_EQ(run.hits.size(), 1u);
  EXPECT_FALSE(run.hits[0].symbolic_violation) << run.hits[0].witness;
}

TEST(Concolic, IntComparisonAgainstRuntimeConstantNormalizes) {
  // Guard compares a field against a local limit variable; the paper's
  // normalization replaces the constant variable with its actual value.
  const Program program = minilang::parse_checked(R"(
struct Block { location_count: int; }
fn serve(b: Block) { print(b); }
@entry
fn read_block(b: Block) {
  let minimum = 0;
  if (b.location_count <= minimum) { throw "retry"; }
  serve(b);
}
@test
fn test_located() {
  let b = new Block { location_count: 3 };
  read_block(b);
}
)");
  Engine engine(program);
  const RunResult run =
      engine.run_test("test_located", config_for(program, "serve(", "b.location_count > 0"));
  ASSERT_EQ(run.hits.size(), 1u);
  EXPECT_FALSE(run.hits[0].symbolic_violation) << run.hits[0].witness;
}

TEST(Concolic, PruningSkipsIrrelevantBranches) {
  const Program program = minilang::parse_checked(R"(
struct S { flag: bool; other: bool; }
fn act(s: S) { print(s); }
@entry
fn request(s: S, n: int) {
  if (n > 5) { print(n); }
  if (s.other) { print(s); }
  if (s.flag) {
    act(s);
  }
}
@test
fn test_run() {
  let s = new S { flag: true, other: true };
  request(s, 10);
}
)");
  Engine engine(program);
  CheckConfig config = config_for(program, "act(", "s.flag");
  const RunResult pruned = engine.run_test("test_run", config);
  config.prune_irrelevant = false;
  const RunResult full = engine.run_test("test_run", config);
  EXPECT_LT(pruned.branches_recorded, full.branches_recorded);
  EXPECT_EQ(pruned.branches_total, full.branches_total);
}

TEST(Concolic, HitRecordsCallChain) {
  const Program program = minilang::parse_checked(R"(
struct S { ok: bool; }
fn act(s: S) { print(s); }
fn middle(s: S) { act(s); }
@entry
fn outer(s: S) { middle(s); }
@test
fn test_chain() {
  let s = new S { ok: true };
  outer(s);
}
)");
  Engine engine(program);
  const RunResult run = engine.run_test("test_chain", config_for(program, "act(", "s.ok"));
  ASSERT_EQ(run.hits.size(), 1u);
  const std::vector<std::string> expected{"test_chain", "outer", "middle"};
  EXPECT_EQ(run.hits[0].call_chain, expected);
  EXPECT_EQ(run.hits[0].function, "middle");
}

TEST(Concolic, FailingTestReported) {
  const Program program = minilang::parse_checked(R"(
@test
fn test_boom() { throw "exploded"; }
)");
  Engine engine(program);
  const CheckConfig config;  // no target statement
  const RunResult run = engine.run_test("test_boom", config);
  EXPECT_FALSE(run.test_passed);
  EXPECT_EQ(run.failure, "exploded");
}

TEST(Concolic, NullCheckOnObjectRecordsNullAtom) {
  const Program program = minilang::parse_checked(R"(
struct S { ok: bool; }
fn act(s: S) { print(s); }
@entry
fn request(s: S?) {
  if (s != null) {
    act(s);
  }
}
@test
fn test_nonnull() {
  let s = new S { ok: true };
  request(s);
}
)");
  Engine engine(program);
  const RunResult run = engine.run_test("test_nonnull", config_for(program, "act(", "!(s == null)"));
  ASSERT_EQ(run.hits.size(), 1u);
  EXPECT_FALSE(run.hits[0].symbolic_violation) << run.hits[0].witness;
  EXPECT_NE(run.hits[0].trace_condition->to_string().find("#null"), std::string::npos);
}

TEST(Concolic, MultipleHitsInLoop) {
  const Program program = minilang::parse_checked(R"(
struct S { ok: bool; }
fn act(s: S) { print(s); }
@entry
fn batched(s: S, n: int) {
  let i = 0;
  while (i < n) {
    act(s);
    i = i + 1;
  }
}
@test
fn test_batch() {
  let s = new S { ok: true };
  batched(s, 3);
}
)");
  Engine engine(program);
  const RunResult run = engine.run_test("test_batch", config_for(program, "act(", "s.ok"));
  EXPECT_EQ(run.hits.size(), 3u);
  for (const TargetHit& hit : run.hits) EXPECT_TRUE(hit.symbolic_violation);
}

TEST(Concolic, CompoundGuardBuildsConjunctionShadow) {
  const Program program = minilang::parse_checked(R"(
struct D { alive: bool; decommissioning: bool; }
fn assign(d: D) { print(d); }
@entry
fn choose(d: D) {
  if (d.decommissioning == false && d.alive) {
    assign(d);
  }
}
@test
fn test_assign() {
  let d = new D { alive: true, decommissioning: false };
  choose(d);
}
)");
  Engine engine(program);
  const RunResult run = engine.run_test(
      "test_assign", config_for(program, "assign(", "d.decommissioning == false && d.alive"));
  ASSERT_EQ(run.hits.size(), 1u);
  EXPECT_FALSE(run.hits[0].symbolic_violation) << run.hits[0].witness;
}

TEST(Concolic, TypeConfusionIsAFailedRunNotAnAbort) {
  const Program program = minilang::parse_checked(R"(
@test
fn test_push_on_map() {
  push(map_new(), 1);
}
@test
fn test_min_on_string() {
  let x = min("a", 1);
}
)");
  Engine engine(program);
  const CheckConfig config;  // no target statement
  const RunResult push = engine.run_test("test_push_on_map", config);
  EXPECT_FALSE(push.test_passed);
  EXPECT_EQ(push.failure, "push() on non-list");
  const RunResult min = engine.run_test("test_min_on_string", config);
  EXPECT_FALSE(min.test_passed);
  EXPECT_EQ(min.failure, "min() on non-int");
}

}  // namespace
}  // namespace lisa::concolic
