// Generic forward dataflow over the per-function CFGs (analysis/cfg.hpp).
//
// An Analysis is a lattice instance plugged into the worklist fixpoint:
//
//   struct Analysis {
//     using State = ...;                 // one abstract state (copyable)
//     State boundary(const Cfg&);        // state at function entry
//     bool  join(State& into, const State& from);   // into ⊔= from; changed?
//     void  transfer(const CfgNode&, State&);       // flow through a node
//     void  refine(const minilang::Expr& guard, bool taken, State&);
//     void  edge_effect(const CfgEdge&, State&);    // edge side effects
//                                        // (e.g. monitor unwinding on
//                                        // exception edges); usually a no-op
//     void  widen(State& at_loop_head);  // optional-effect hook; called when
//                                        // a loop head is revisited "often"
//   };
//
// The engine iterates a worklist in reverse post-order until no state
// changes. Finite-height lattices terminate on their own; infinite-height
// ones (intervals) rely on `widen`, which the engine calls at loop heads
// after kWidenThreshold visits. States are tracked at node *entry*; the
// state after a node is transfer(node, in-state).
#pragma once

#include <deque>
#include <vector>

#include "analysis/cfg.hpp"

namespace lisa::staticcheck {

// The CFG lives in src/analysis, built once per function by the call graph
// (analysis/callgraph.hpp); every analysis here runs over it.
using analysis::Cfg;
using analysis::CfgEdge;
using analysis::CfgNode;

inline constexpr int kWidenThreshold = 3;
/// Hard safety net: no sane analysis on corpus-sized functions needs more
/// visits; hitting this means a lattice's join is not monotone.
inline constexpr int kMaxVisitsPerNode = 1000;

template <typename Analysis>
struct DataflowResult {
  /// State at the entry of each node, indexed by node id. States for
  /// unreachable nodes stay default-constructed (bottom by convention).
  std::vector<typename Analysis::State> in;
  /// True for nodes the fixpoint actually reached.
  std::vector<bool> reached;
  int iterations = 0;  // total node visits (test/bench observability)
};

template <typename Analysis>
DataflowResult<Analysis> run_forward(const Cfg& cfg, Analysis& analysis) {
  using State = typename Analysis::State;
  const std::size_t n = cfg.nodes().size();
  DataflowResult<Analysis> result;
  result.in.resize(n);
  result.reached.assign(n, false);

  std::vector<int> visits(n, 0);
  std::vector<bool> queued(n, false);
  std::deque<int> worklist;
  const auto enqueue = [&](int id) {
    if (queued[static_cast<std::size_t>(id)]) return;
    queued[static_cast<std::size_t>(id)] = true;
    worklist.push_back(id);
  };

  result.in[static_cast<std::size_t>(cfg.entry())] = analysis.boundary(cfg);
  result.reached[static_cast<std::size_t>(cfg.entry())] = true;
  enqueue(cfg.entry());

  while (!worklist.empty()) {
    // Pick the queued node earliest in reverse post-order, so joins see
    // predecessors first.
    auto best = worklist.begin();
    for (auto it = worklist.begin(); it != worklist.end(); ++it)
      if (cfg.rpo_position(*it) < cfg.rpo_position(*best)) best = it;
    const int id = *best;
    worklist.erase(best);
    queued[static_cast<std::size_t>(id)] = false;

    ++result.iterations;
    if (++visits[static_cast<std::size_t>(id)] > kMaxVisitsPerNode) break;

    const CfgNode& node = cfg.node(id);
    State out = result.in[static_cast<std::size_t>(id)];
    analysis.transfer(node, out);

    for (const CfgEdge& edge : node.succs) {
      State flowed = out;
      analysis.edge_effect(edge, flowed);
      if (edge.guard != nullptr && !edge.suppress_refine)
        analysis.refine(*edge.guard, edge.taken, flowed);
      const std::size_t to = static_cast<std::size_t>(edge.to);
      bool changed;
      if (!result.reached[to]) {
        result.in[to] = std::move(flowed);
        result.reached[to] = true;
        changed = true;
      } else {
        changed = analysis.join(result.in[to], flowed);
      }
      if (changed && cfg.node(edge.to).loop_head &&
          visits[to] >= kWidenThreshold)
        analysis.widen(result.in[to]);
      if (changed) enqueue(edge.to);
    }
  }
  return result;
}

}  // namespace lisa::staticcheck
