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
// The engine visits nodes in reverse post-order until no state changes:
// its queue is one flag per reverse-post-order position, and it always
// takes the lowest one, so joins see predecessors first. A node's out-state
// is copied into each successor but the last, which receives it by move.
// Finite-height lattices terminate on their own; infinite-height ones
// (intervals) rely on `widen`, which the engine calls at loop heads after
// kWidenThreshold visits. States are tracked at node *entry*; the state
// after a node is transfer(node, in-state). Every run adds its node visits
// to the `staticcheck.dataflow_visits` metric.
#pragma once

#include <algorithm>
#include <vector>

#include "analysis/cfg.hpp"
#include "obs/metrics.hpp"

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
  std::vector<char> queued(n, 0);  // by reverse-post-order position
  std::size_t lowest = n;          // no queued position is lower
  const auto enqueue = [&](int id) {
    const auto position = static_cast<std::size_t>(cfg.rpo_position(id));
    if (queued[position] != 0) return;
    queued[position] = 1;
    lowest = std::min(lowest, position);
  };

  result.in[static_cast<std::size_t>(cfg.entry())] = analysis.boundary(cfg);
  result.reached[static_cast<std::size_t>(cfg.entry())] = true;
  enqueue(cfg.entry());

  while (true) {
    while (lowest < n && queued[lowest] == 0) ++lowest;
    if (lowest == n) break;
    queued[lowest] = 0;
    const int id = cfg.reverse_post_order()[lowest];

    ++result.iterations;
    if (++visits[static_cast<std::size_t>(id)] > kMaxVisitsPerNode) break;

    const CfgNode& node = cfg.node(id);
    State out = result.in[static_cast<std::size_t>(id)];
    analysis.transfer(node, out);

    for (std::size_t i = 0; i < node.succs.size(); ++i) {
      const CfgEdge& edge = node.succs[i];
      State flowed = i + 1 == node.succs.size() ? std::move(out) : out;
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
  static obs::Counter& visited = obs::metrics().counter("staticcheck.dataflow_visits");
  visited.add(result.iterations);
  return result;
}

}  // namespace lisa::staticcheck
