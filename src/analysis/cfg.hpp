// Per-function control-flow graphs over the structured MiniLang AST.
//
// The dataflow framework (staticcheck/dataflow.hpp) and the contract
// screener (staticcheck/screener.hpp) need an explicit graph: the structured
// AST makes guard *enumeration* easy (paths.cpp) but fixpoint iteration
// awkward. Each function gets one Cfg whose nodes are statements plus
// synthetic entry/exit/join markers; edges carry the branch guard and its
// polarity so analyses can refine facts per branch arm. The call graph
// (callgraph.hpp) builds every function's Cfg once per program and lends it
// to each analysis.
//
// Loop semantics deliberately mirror the execution-tree builder
// (paths.cpp): entering a `while` assumes the guard, but the exit edge
// records *no* refinement — "falling past a loop records no exit guard".
// Keeping the two abstractions aligned is what lets the screener's verdicts
// agree with the path checker's (see staticcheck/screener.hpp).
#pragma once

#include <string>
#include <vector>

#include "minilang/ast.hpp"

namespace lisa::analysis {

struct CfgEdge {
  int to = -1;
  /// Branch guard the edge assumes, or nullptr for unconditional edges.
  const minilang::Expr* guard = nullptr;
  /// Polarity of `guard` along this edge.
  bool taken = true;
  /// True when the refinement must not be applied even though `guard` is
  /// set (while-loop exit edges, mirroring the path enumerator).
  bool suppress_refine = false;
  /// Number of `sync` monitors released when control leaves along this edge
  /// (non-zero only on exception edges that unwind out of sync blocks into a
  /// catch handler, and on throw edges leaving the function).
  int sync_unwind = 0;
};

struct CfgNode {
  enum class Kind {
    kEntry,
    kExit,
    kStmt,       // let / assign / expr / return / throw / break / continue
    kBranch,     // if / while condition evaluation
    kSyncEnter,  // monitor acquired
    kSyncExit,   // monitor released
    kJoin,       // synthetic merge point
  };

  Kind kind = Kind::kStmt;
  int id = -1;
  const minilang::Stmt* stmt = nullptr;  // kStmt / kBranch / kSyncEnter
  minilang::SourceLoc loc;
  /// True for kBranch nodes that head a `while` loop (widening points).
  bool loop_head = false;
  std::vector<CfgEdge> succs;
  std::vector<int> preds;
  /// Facts of the node's statement, found once by Cfg::build so that a
  /// dataflow visit does not walk the expressions again: every call
  /// expression in `stmt->expr` and then `stmt->expr2`, each in pre-order
  /// (a kSyncExit node repeats its kSyncEnter's monitor calls), and the
  /// access path a `let` or an assignment writes (smt::access_path of the
  /// lvalue; empty for an index lvalue and for every other node).
  std::vector<const minilang::Expr*> calls;
  std::string written;
};

/// Control-flow graph of one function. Nodes are owned by the graph;
/// statement pointers borrow from the Program, which must outlive it.
class Cfg {
 public:
  /// Builds the graph, each node's calls and written path, and the reverse
  /// post-order. Each build counts in the `analysis.cfg_builds` metric.
  [[nodiscard]] static Cfg build(const minilang::FuncDecl& fn);

  [[nodiscard]] const minilang::FuncDecl& function() const { return *fn_; }
  [[nodiscard]] const std::vector<CfgNode>& nodes() const { return nodes_; }
  [[nodiscard]] const CfgNode& node(int id) const { return nodes_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] int entry() const { return entry_; }
  [[nodiscard]] int exit() const { return exit_; }

  /// Node ids in reverse post-order from the entry (the canonical iteration
  /// order for forward dataflow; unreachable nodes come last), and each
  /// node's position in it. Both are computed once, by build().
  [[nodiscard]] const std::vector<int>& reverse_post_order() const { return rpo_; }
  [[nodiscard]] int rpo_position(int id) const {
    return rpo_position_[static_cast<std::size_t>(id)];
  }

  /// The node whose statement is `stmt`, or -1. For branch statements this
  /// is the condition node.
  [[nodiscard]] int node_of(const minilang::Stmt* stmt) const;

 private:
  const minilang::FuncDecl* fn_ = nullptr;
  std::vector<CfgNode> nodes_;
  int entry_ = -1;
  int exit_ = -1;
  std::vector<int> rpo_;
  std::vector<int> rpo_position_;
};

}  // namespace lisa::analysis
