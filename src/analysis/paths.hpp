// Execution-tree construction (§3.2 of the paper).
//
// "To focus on paths relevant to a given semantic, we identify those leading
//  to the target statement it constrains. We do this by statically building a
//  call graph and traversing all paths to each target. The result is an
//  execution tree rooted at the target statement, with leaves representing
//  entry functions for each path."
//
// This module enumerates, for every statement matching a contract's target
// fragment, all interprocedural guard paths entry → target:
//   * intraprocedural paths are enumerated over the structured AST (if/else
//     branching, one-shot loop entry, try/catch both arms);
//   * hops follow concrete call sites; callee parameters are bound to
//     caller argument paths via FrameMap renaming (see rename.hpp);
//   * with pruning enabled, guards sharing no variable with the contract
//     condition are dropped and the resulting duplicate paths collapse —
//     the paper's "the concolic engine follows only branches whose guards
//     involve variables relevant to the semantic".
// Loops are entered at most once per enumeration: path conditions through a
// loop body are collected for the first iteration, and falling past a loop
// records no exit guard (a sound over-approximation for the contract check,
// documented in DESIGN.md).
#pragma once

#include <set>
#include <string>
#include <vector>

#include "analysis/callgraph.hpp"
#include "analysis/rename.hpp"
#include "smt/formula.hpp"

namespace lisa::analysis {

/// One branch decision on a path, already renamed to canonical names.
struct GuardStep {
  std::string text;   // canonical guard expression text (pre-rename spelling)
  bool taken = true;  // polarity of the branch on this path
  smt::FormulaPtr formula;  // canonical-named formula of the taken polarity
};

/// One entry→target path of the execution tree.
struct ExecutionPath {
  std::vector<std::string> call_chain;          // entry first, target last
  const minilang::Stmt* target = nullptr;       // matched target statement
  std::string target_function;
  std::vector<GuardStep> guards;                // in execution order
  smt::FormulaPtr condition;                    // conjunction of guard formulas
  smt::FormulaPtr renamed_contract;             // contract condition, canonical names
  bool mappable = true;  // false: contract vars unreachable from this entry's terms

  /// Signature for de-duplication after pruning.
  [[nodiscard]] std::string key() const;
};

struct ExecutionTree {
  std::vector<ExecutionPath> paths;
  std::size_t enumerated_raw = 0;  // paths before pruning/dedup (ablation metric)
  bool truncated = false;          // hit max_paths
};

struct TreeOptions {
  std::size_t max_paths = 4096;
  /// Drop guards not sharing variables with the contract (paper §3.2).
  bool prune_irrelevant = true;
  /// Contract condition in target-function-local names; may be null (then
  /// nothing is relevant and, with pruning, paths collapse to call shapes).
  smt::FormulaPtr contract_condition;
};

/// Builds the execution tree for the target statements of `target_fragment`
/// (CallGraph::targets); `graph` indexes `program`.
[[nodiscard]] ExecutionTree build_execution_tree(const minilang::Program& program,
                                                 const CallGraph& graph,
                                                 const std::string& target_fragment,
                                                 const TreeOptions& options);

}  // namespace lisa::analysis
