// Per-function dependence graphs: reaching definitions, def-use chains, and
// control dependence via a post-dominator tree.
//
// This is the dependence layer the backward contract slicer (slice.hpp)
// walks. It is a *may* analysis throughout — a definition reaches every use
// it could possibly feed, never fewer:
//
//   * Definitions are parameter bindings at entry, `let` initializations,
//     assignments, and call-site MOD effects imported from the
//     interprocedural summaries (summaries.hpp). Without summaries every
//     call is a heap havoc and the graph is marked `degraded` — the PR 7
//     convention: degrade loudly, never truncate silently.
//   * Kills are strong only for dot-free local paths (MiniLang has no
//     address-of and callees cannot rebind caller locals, so a local's name
//     is its identity). Field writes are weak updates: the old definition
//     keeps reaching because another path may alias the same object.
//   * Use edges connect a node to every reaching definition that may write
//     a path the node reads, with the same conservative field-name aliasing
//     rule as `write_kills`.
//
// The post-dominator tree is computed by straight iterative set
// intersection over the reversed CFG (function CFGs are tens of nodes, not
// thousands) and yields Ferrante–Ottenstein–Warren control dependence: n is
// control-dependent on branch b iff some successor of b is post-dominated
// by n while b itself is not strictly post-dominated by n. The tree doubles
// as the join-point oracle ROADMAP item 4 asks for.
//
// Dead-store and unused-definition lint findings fall out of the def-use
// chains for free (report_dead_defs): a local definition no use edge ever
// reaches is either an unused `let` or a dead store.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "minilang/ast.hpp"
#include "staticcheck/dataflow.hpp"
#include "staticcheck/diagnostics.hpp"

namespace lisa::staticcheck {

class SummaryMap;  // summaries.hpp

// ---------------------------------------------------------------------------
// Post-dominator tree + control dependence
// ---------------------------------------------------------------------------

class PostDomTree {
 public:
  [[nodiscard]] static PostDomTree build(const Cfg& cfg);

  /// Immediate post-dominator of `node`, or -1 (the exit node, and nodes
  /// with no strict post-dominator).
  [[nodiscard]] int ipdom(int node) const { return ipdom_[static_cast<std::size_t>(node)]; }

  /// True iff `b` post-dominates `a` (reflexive: postdominates(a, a)).
  [[nodiscard]] bool postdominates(int b, int a) const {
    return pdom_[static_cast<std::size_t>(a)].count(b) > 0;
  }

  /// Branch nodes `node` is control-dependent on (Ferrante–Ottenstein–
  /// Warren), sorted ascending. A loop head can be control-dependent on
  /// itself.
  [[nodiscard]] const std::vector<int>& control_deps(int node) const {
    return cdeps_[static_cast<std::size_t>(node)];
  }

 private:
  std::vector<std::set<int>> pdom_;  // full post-dominator set per node
  std::vector<int> ipdom_;
  std::vector<std::vector<int>> cdeps_;
};

// ---------------------------------------------------------------------------
// Definitions and reaching-definition chains
// ---------------------------------------------------------------------------

struct Definition {
  enum class Kind {
    kParam,    // parameter binding at function entry
    kLet,      // `let x = ...`
    kAssign,   // `lvalue = ...`
    kCallMod,  // call-site MOD effect imported from the callee summary
  };

  Kind kind = Kind::kAssign;
  int node = -1;                         // CFG node creating the definition
  const minilang::Stmt* stmt = nullptr;  // nullptr for kParam
  /// Access path written. Three wildcard spellings for call effects:
  ///   "*"     — havoc: may write any heap (dotted) path;
  ///   "*.f"   — may write field `f` of any object (summary MOD field);
  ///   "p.*"   — may write through argument path `p` (summary MOD param).
  std::string path;
  std::string callee;  // kCallMod: the called function
  minilang::SourceLoc loc;

  /// May this definition write (part of) `use_path`?
  [[nodiscard]] bool may_write(const std::string& use_path) const;
};

/// Dependence graph of one function: CFG + post-dominators + reaching
/// definitions + def-use edges. Borrows the function's CFG from the call
/// graph that built it, which must outlive it.
struct FuncDepGraph {
  /// `summaries == nullptr` degrades every call to a heap havoc and sets
  /// `degraded` — sound, but the def-use chains get much coarser.
  [[nodiscard]] static FuncDepGraph build(const Cfg& cfg, const SummaryMap* summaries);

  const Cfg* cfg = nullptr;
  PostDomTree pdoms;
  std::vector<Definition> defs;
  /// Definition indices reaching each node's entry, indexed by node id.
  std::vector<std::set<std::size_t>> reach_in;
  /// Def-use edges: for each node, the reaching definitions it may read.
  std::vector<std::set<std::size_t>> use_defs;
  /// Access paths each node reads (guards, rhs, call args, lvalue bases).
  std::vector<std::set<std::string>> reads;
  /// True when a call degraded to havoc (no summaries / unknown callee):
  /// chains are still sound but must not prove absence of a dependence.
  bool degraded = false;

  /// Definition indices with at least one use edge.
  [[nodiscard]] std::set<std::size_t> used_defs() const;
};

/// Dead stores and unused definitions — free byproducts of the def-use
/// chains. Reported only for dot-free local paths (no aliasing ambiguity,
/// and a callee can only read a caller local that is passed to it — which
/// registers as a use — so even a degraded graph stays sound here) and
/// never for parameters. Appends to `out` (lint_program sorts/dedupes
/// globally).
void report_dead_defs(const FuncDepGraph& graph, std::vector<Diagnostic>& out);

}  // namespace lisa::staticcheck
