#include "analysis/cfg.hpp"

#include <algorithm>
#include <functional>

#include "obs/metrics.hpp"

namespace lisa::analysis {

using minilang::Expr;
using minilang::FuncDecl;
using minilang::Stmt;
using minilang::StmtPtr;

namespace {

/// Recursive builder threading break/continue/catch targets.
class Builder {
 public:
  explicit Builder(const FuncDecl& fn) : fn_(fn) {}

  void run(std::vector<CfgNode>& nodes, int& entry, int& exit) {
    nodes_ = &nodes;
    entry = add(CfgNode::Kind::kEntry, nullptr, fn_.loc);
    exit_id_ = add(CfgNode::Kind::kExit, nullptr, fn_.loc);
    const int last = build_block(fn_.body, entry);
    if (last >= 0) link(last, exit_id_);
    exit = exit_id_;
  }

 private:
  struct LoopContext {
    int head = -1;        // continue target
    std::vector<int> breaks;  // nodes needing an edge to the loop's join
  };

  int add(CfgNode::Kind kind, const Stmt* stmt, minilang::SourceLoc loc) {
    CfgNode node;
    node.kind = kind;
    node.id = static_cast<int>(nodes_->size());
    node.stmt = stmt;
    node.loc = loc;
    nodes_->push_back(std::move(node));
    return nodes_->back().id;
  }

  void link(int from, int to, const Expr* guard = nullptr, bool taken = true,
            bool suppress_refine = false, int sync_unwind = 0) {
    if (from < 0 || to < 0) return;
    CfgEdge edge;
    edge.to = to;
    edge.guard = guard;
    edge.taken = taken;
    edge.suppress_refine = suppress_refine;
    edge.sync_unwind = sync_unwind;
    (*nodes_)[static_cast<std::size_t>(from)].succs.push_back(edge);
    (*nodes_)[static_cast<std::size_t>(to)].preds.push_back(from);
  }

  /// Any statement executed inside a `try` may raise; give its node an edge
  /// to the innermost catch handler. Unwinding releases every monitor
  /// acquired since that handler's try was entered.
  void note_may_throw(int node) {
    if (catch_targets_.empty()) return;
    link(node, catch_targets_.back(), nullptr, true, false,
         sync_depth_ - catch_sync_depths_.back());
  }

  /// Builds `stmts` starting from `pred` (the node normal control flows in
  /// from). Returns the node normal control flows out of, or -1 if the block
  /// never completes normally (return/throw/break on every path).
  int build_block(const std::vector<StmtPtr>& stmts, int pred) {
    int current = pred;
    for (const StmtPtr& stmt : stmts) {
      if (current < 0) break;  // unreachable statements are not modeled
      current = build_stmt(*stmt, current);
    }
    return current;
  }

  int build_stmt(const Stmt& stmt, int pred) {
    switch (stmt.kind) {
      case Stmt::Kind::kLet:
      case Stmt::Kind::kAssign:
      case Stmt::Kind::kExpr:
      case Stmt::Kind::kSpawn: {
        const int node = add(CfgNode::Kind::kStmt, &stmt, stmt.loc);
        link(pred, node);
        note_may_throw(node);
        return node;
      }
      case Stmt::Kind::kReturn: {
        const int node = add(CfgNode::Kind::kStmt, &stmt, stmt.loc);
        link(pred, node);
        note_may_throw(node);
        link(node, exit_id_);
        return -1;
      }
      case Stmt::Kind::kThrow: {
        const int node = add(CfgNode::Kind::kStmt, &stmt, stmt.loc);
        link(pred, node);
        if (catch_targets_.empty()) {
          link(node, exit_id_, nullptr, true, false, sync_depth_);
        } else {
          link(node, catch_targets_.back(), nullptr, true, false,
               sync_depth_ - catch_sync_depths_.back());
        }
        return -1;
      }
      case Stmt::Kind::kBreak: {
        const int node = add(CfgNode::Kind::kStmt, &stmt, stmt.loc);
        link(pred, node);
        if (!loops_.empty()) loops_.back().breaks.push_back(node);
        return -1;
      }
      case Stmt::Kind::kContinue: {
        const int node = add(CfgNode::Kind::kStmt, &stmt, stmt.loc);
        link(pred, node);
        if (!loops_.empty()) link(node, loops_.back().head);
        return -1;
      }
      case Stmt::Kind::kIf: {
        const int cond = add(CfgNode::Kind::kBranch, &stmt, stmt.loc);
        link(pred, cond);
        note_may_throw(cond);  // condition evaluation may call and throw
        const int join = add(CfgNode::Kind::kJoin, nullptr, stmt.loc);
        const int then_entry = add(CfgNode::Kind::kJoin, nullptr, stmt.loc);
        link(cond, then_entry, stmt.expr.get(), /*taken=*/true);
        const int then_out = build_block(stmt.body, then_entry);
        if (then_out >= 0) link(then_out, join);
        const int else_entry = add(CfgNode::Kind::kJoin, nullptr, stmt.loc);
        link(cond, else_entry, stmt.expr.get(), /*taken=*/false);
        const int else_out = build_block(stmt.else_body, else_entry);
        if (else_out >= 0) link(else_out, join);
        return nodes_->at(static_cast<std::size_t>(join)).preds.empty() ? -1 : join;
      }
      case Stmt::Kind::kWhile: {
        const int head = add(CfgNode::Kind::kBranch, &stmt, stmt.loc);
        (*nodes_)[static_cast<std::size_t>(head)].loop_head = true;
        link(pred, head);
        note_may_throw(head);
        const int body_entry = add(CfgNode::Kind::kJoin, nullptr, stmt.loc);
        link(head, body_entry, stmt.expr.get(), /*taken=*/true);
        loops_.push_back({head, {}});
        const int body_out = build_block(stmt.body, body_entry);
        if (body_out >= 0) link(body_out, head);  // back edge
        const LoopContext loop = loops_.back();
        loops_.pop_back();
        // Exit edge: guard recorded but never refined — the path enumerator
        // records no exit guard when falling past a loop, and the screener
        // must not prove facts the checker cannot see (cfg.hpp header).
        const int after = add(CfgNode::Kind::kJoin, nullptr, stmt.loc);
        link(head, after, stmt.expr.get(), /*taken=*/false, /*suppress_refine=*/true);
        for (const int break_node : loop.breaks) link(break_node, after);
        return after;
      }
      case Stmt::Kind::kSync: {
        const int enter = add(CfgNode::Kind::kSyncEnter, &stmt, stmt.loc);
        link(pred, enter);
        // If evaluating the monitor expression throws, the monitor is not
        // held. Analyses model acquisition in the enter node's transfer, so
        // the exception edge must count this sync in its unwind to cancel it.
        ++sync_depth_;
        note_may_throw(enter);
        const int body_out = build_block(stmt.body, enter);
        --sync_depth_;
        const int leave = add(CfgNode::Kind::kSyncExit, &stmt, stmt.loc);
        if (body_out >= 0) link(body_out, leave);
        // A throw inside the sync body leaves through the catch target with
        // the monitor conceptually released; that path bypasses `leave`.
        return nodes_->at(static_cast<std::size_t>(leave)).preds.empty() ? -1 : leave;
      }
      case Stmt::Kind::kBlock:
        return build_block(stmt.body, pred);
      case Stmt::Kind::kTry: {
        const int handler = add(CfgNode::Kind::kJoin, nullptr, stmt.loc);
        catch_targets_.push_back(handler);
        catch_sync_depths_.push_back(sync_depth_);
        const int body_out = build_block(stmt.body, pred);
        catch_targets_.pop_back();
        catch_sync_depths_.pop_back();
        const int catch_out = build_block(stmt.else_body, handler);
        const int join = add(CfgNode::Kind::kJoin, nullptr, stmt.loc);
        if (body_out >= 0) link(body_out, join);
        if (catch_out >= 0) link(catch_out, join);
        return nodes_->at(static_cast<std::size_t>(join)).preds.empty() ? -1 : join;
      }
    }
    return pred;
  }

  const FuncDecl& fn_;
  std::vector<CfgNode>* nodes_ = nullptr;
  int exit_id_ = -1;
  std::vector<LoopContext> loops_;
  std::vector<int> catch_targets_;
  std::vector<int> catch_sync_depths_;  // sync depth at each catch target
  int sync_depth_ = 0;
};

}  // namespace

Cfg Cfg::build(const FuncDecl& fn) {
  static obs::Counter& builds = obs::metrics().counter("analysis.cfg_builds");
  builds.add();
  Cfg cfg;
  cfg.fn_ = &fn;
  Builder(fn).run(cfg.nodes_, cfg.entry_, cfg.exit_);
  // Reverse post-order from the entry; unreachable stragglers come last.
  std::vector<bool> visited(cfg.nodes_.size(), false);
  const std::function<void(int)> dfs = [&](int id) {
    if (visited[static_cast<std::size_t>(id)]) return;
    visited[static_cast<std::size_t>(id)] = true;
    for (const CfgEdge& edge : cfg.node(id).succs) dfs(edge.to);
    cfg.rpo_.push_back(id);
  };
  dfs(cfg.entry_);
  for (const CfgNode& node : cfg.nodes_) dfs(node.id);
  std::reverse(cfg.rpo_.begin(), cfg.rpo_.end());
  cfg.rpo_position_.resize(cfg.nodes_.size());
  for (std::size_t i = 0; i < cfg.rpo_.size(); ++i)
    cfg.rpo_position_[static_cast<std::size_t>(cfg.rpo_[i])] = static_cast<int>(i);
  return cfg;
}

int Cfg::node_of(const minilang::Stmt* stmt) const {
  for (const CfgNode& node : nodes_)
    if (node.stmt == stmt &&
        (node.kind == CfgNode::Kind::kStmt || node.kind == CfgNode::Kind::kBranch ||
         node.kind == CfgNode::Kind::kSyncEnter))
      return node.id;
  return -1;
}

}  // namespace lisa::analysis
