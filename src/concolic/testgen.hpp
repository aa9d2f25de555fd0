// Witness-test synthesis for uncovered execution paths.
//
// §3.2 ends with: "If there are any execution paths that are not run, it
// either means the test suite does not have enough coverage, or the LLM
// misses the related tests. Developers should provide the final verdict for
// both cases." This module automates most of that verdict: for a static path
// no selected test exercises, it solves the path condition with the SMT
// backend and synthesizes a MiniLang @test function that constructs the
// satisfying state and drives the path's entry function — giving the
// developer a concrete, runnable reproducer instead of a bare path listing.
//
// Synthesis is best-effort by design: paths whose entry parameters involve
// containers or whose conditions are opaque return nullopt (those genuinely
// need a human), and every synthesized test is validated by replaying it on
// the concolic engine before it is reported.
#pragma once

#include <optional>
#include <string>

#include "analysis/paths.hpp"
#include "minilang/ast.hpp"
#include "smt/formula.hpp"
#include "support/budget.hpp"

namespace lisa::concolic {

struct SynthesizedTest {
  std::string test_name;
  std::string source;       // a complete @test function definition
  std::string model_text;   // the SMT model the arguments were read from
};

/// Synthesizes a test driving `path` into its target with the path condition
/// satisfied (and, when `violating` is set, the contract's complement also
/// satisfied — a reproducer for the missing check). Returns nullopt when the
/// entry signature or the constraints are outside the synthesizable subset.
[[nodiscard]] std::optional<SynthesizedTest> synthesize_path_test(
    const minilang::Program& program, const analysis::ExecutionPath& path,
    bool violating, int sequence_number);

struct SynthesizedReplay {
  bool reached = false;   // the run hit the target
  bool violated = false;  // some hit violated the contract
  std::string witness;    // the violating hit's witness, when violated
};

/// Replays a synthesized test: appends it to the program source and runs it
/// on the concolic engine, checking `contract_condition` (target-frame local
/// names) at every hit of `target_fragment`. The run is charged to `budget`
/// (nullptr = ungoverned).
[[nodiscard]] SynthesizedReplay replay_synthesized_test(
    const minilang::Program& program, const SynthesizedTest& test,
    const std::string& target_fragment, const smt::FormulaPtr& contract_condition,
    support::Budget* budget = nullptr);

}  // namespace lisa::concolic
