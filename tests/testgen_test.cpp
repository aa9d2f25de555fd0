// Tests for witness-test synthesis from SMT models of uncovered paths.
#include <gtest/gtest.h>

#include "analysis/callgraph.hpp"
#include "analysis/paths.hpp"
#include "concolic/engine.hpp"
#include "concolic/testgen.hpp"
#include "minilang/sema.hpp"
#include "smt/minilang_bridge.hpp"

namespace lisa::concolic {
namespace {

const char* kBilling = R"(
struct Account { id: int; frozen: bool; balance: int; }
fn debit(a: Account, amount: int) {
  a.balance = a.balance - amount;
}
@entry
fn pay(a: Account?, amount: int) {
  if (a == null) { throw "NoSuchAccount"; }
  if (a.frozen) { throw "AccountFrozen"; }
  if (amount <= 0) { throw "BadAmount"; }
  debit(a, amount);
}
@entry
fn refund(a: Account?, amount: int) {
  if (a == null) { throw "NoSuchAccount"; }
  debit(a, 0 - amount);
}
)";

/// The billing contract: debit only live, unfrozen accounts.
const char* kDebitContract = "!(a == null) && !(a.frozen)";

analysis::ExecutionTree tree_for(const minilang::Program& program,
                                 const std::string& condition) {
  const analysis::CallGraph graph = analysis::CallGraph::build(program);
  analysis::TreeOptions options;
  options.contract_condition = *smt::parse_condition(condition);
  // Synthesis needs the FULL path condition: guards the contract does not
  // mention (e.g. `amount > 0`) still decide whether the entry reaches the
  // target, so the tree is built unpruned.
  options.prune_irrelevant = false;
  return analysis::build_execution_tree(program, graph, "debit(", options);
}

TEST(TestGen, SynthesizesCoveringTestForGuardedPath) {
  const minilang::Program program = minilang::parse_checked(kBilling);
  const analysis::ExecutionTree tree = tree_for(program, kDebitContract);
  const analysis::ExecutionPath* pay_path = nullptr;
  for (const analysis::ExecutionPath& path : tree.paths)
    if (path.call_chain.front() == "pay") pay_path = &path;
  ASSERT_NE(pay_path, nullptr);

  const auto test = synthesize_path_test(program, *pay_path, /*violating=*/false, 1);
  ASSERT_TRUE(test.has_value());
  EXPECT_NE(test->source.find("fn synth_cover_1()"), std::string::npos);
  EXPECT_NE(test->source.find("pay(arg0, arg1)"), std::string::npos);
  // The synthesized amount must satisfy the path's amount > 0 guard, and
  // the guarded path keeps the contract.
  const SynthesizedReplay replay = replay_synthesized_test(
      program, *test, "debit(", *smt::parse_condition(kDebitContract));
  EXPECT_TRUE(replay.reached);
  EXPECT_FALSE(replay.violated);
}

TEST(TestGen, SynthesizesViolationWitnessForUnguardedPath) {
  const minilang::Program program = minilang::parse_checked(kBilling);
  const analysis::ExecutionTree tree = tree_for(program, kDebitContract);
  const analysis::ExecutionPath* refund_path = nullptr;
  for (const analysis::ExecutionPath& path : tree.paths)
    if (path.call_chain.front() == "refund") refund_path = &path;
  ASSERT_NE(refund_path, nullptr);

  const auto witness = synthesize_path_test(program, *refund_path, /*violating=*/true, 2);
  ASSERT_TRUE(witness.has_value());
  // The model must set frozen = true (the missing check's complement).
  EXPECT_NE(witness->source.find("frozen: true"), std::string::npos);
  const SynthesizedReplay replay = replay_synthesized_test(
      program, *witness, "debit(", *smt::parse_condition(kDebitContract));
  EXPECT_TRUE(replay.reached);
  EXPECT_TRUE(replay.violated);
  EXPECT_FALSE(replay.witness.empty());
}

TEST(TestGen, GuardedPathHasNoViolationWitness) {
  const minilang::Program program = minilang::parse_checked(kBilling);
  const analysis::ExecutionTree tree = tree_for(program, kDebitContract);
  for (const analysis::ExecutionPath& path : tree.paths) {
    if (path.call_chain.front() != "pay") continue;
    // π ∧ ¬P is UNSAT on the guarded path: no witness exists.
    EXPECT_FALSE(synthesize_path_test(program, path, /*violating=*/true, 3).has_value());
  }
}

TEST(TestGen, RefusesContainerMediatedState) {
  // State reached through a map lookup cannot be established via arguments.
  const minilang::Program program = minilang::parse_checked(R"(
struct Session { is_closing: bool; }
struct Server { sessions: map<string, Session>; }
fn act(s: Session) { print(s); }
@entry
fn handle(server: Server, id: int) {
  let s = get(server.sessions, str(id));
  if (s == null) { throw "expired"; }
  act(s);
}
)");
  const analysis::CallGraph graph = analysis::CallGraph::build(program);
  analysis::TreeOptions options;
  options.contract_condition = *smt::parse_condition("!(s == null) && !(s.is_closing)");
  const analysis::ExecutionTree tree =
      analysis::build_execution_tree(program, graph, "act(", options);
  ASSERT_FALSE(tree.paths.empty());
  EXPECT_FALSE(
      synthesize_path_test(program, tree.paths[0], /*violating=*/true, 4).has_value());
}

TEST(TestGen, RefusesListParameters) {
  const minilang::Program program = minilang::parse_checked(R"(
struct S { ok: bool; }
fn act2(s: S) { print(s); }
@entry
fn batch(s: S, items: list<int>) {
  act2(s);
}
)");
  const analysis::CallGraph graph = analysis::CallGraph::build(program);
  analysis::TreeOptions options;
  options.contract_condition = *smt::parse_condition("s.ok");
  const analysis::ExecutionTree tree =
      analysis::build_execution_tree(program, graph, "act2(", options);
  ASSERT_FALSE(tree.paths.empty());
  EXPECT_FALSE(
      synthesize_path_test(program, tree.paths[0], /*violating=*/true, 5).has_value());
}

TEST(TestGen, NullableWitnessWhenContractRequiresNonNull) {
  const minilang::Program program = minilang::parse_checked(R"(
struct S { ok: bool; }
fn act3(s: S?) { print(s); }
@entry
fn forward(s: S?) {
  act3(s);
}
)");
  const analysis::CallGraph graph = analysis::CallGraph::build(program);
  analysis::TreeOptions options;
  options.contract_condition = *smt::parse_condition("!(s == null)");
  const analysis::ExecutionTree tree =
      analysis::build_execution_tree(program, graph, "act3(", options);
  ASSERT_FALSE(tree.paths.empty());
  const auto witness =
      synthesize_path_test(program, tree.paths[0], /*violating=*/true, 6);
  ASSERT_TRUE(witness.has_value());
  EXPECT_NE(witness->source.find("= null"), std::string::npos);
  const SynthesizedReplay replay = replay_synthesized_test(
      program, *witness, "act3(", *smt::parse_condition("!(s == null)"));
  EXPECT_TRUE(replay.reached);
  EXPECT_TRUE(replay.violated);
}

}  // namespace
}  // namespace lisa::concolic
