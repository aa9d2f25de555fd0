#include "analysis/paths.hpp"

#include <map>
#include <unordered_set>

#include "minilang/printer.hpp"
#include "smt/minilang_bridge.hpp"

namespace lisa::analysis {

using minilang::Expr;
using minilang::FuncDecl;
using minilang::Program;
using minilang::Stmt;
using minilang::StmtPtr;

std::string ExecutionPath::key() const {
  std::string out;
  for (const std::string& fn : call_chain) out += fn + ">";
  out += "#" + std::to_string(target != nullptr ? target->id : -1);
  for (const GuardStep& guard : guards) out += "|" + guard.text + (guard.taken ? "+" : "-");
  return out;
}

namespace {

/// (guard expression, polarity) pairs in the local frame, pre-rename.
using LocalGuard = std::pair<const Expr*, bool>;
using LocalPath = std::vector<LocalGuard>;

bool subtree_contains(const std::vector<StmtPtr>& stmts, const Stmt* target) {
  for (const StmtPtr& stmt : stmts) {
    if (stmt.get() == target) return true;
    if (subtree_contains(stmt->body, target)) return true;
    if (subtree_contains(stmt->else_body, target)) return true;
  }
  return false;
}

/// Enumerates all guard prefixes within one function that reach `target`.
class LocalEnumerator {
 public:
  LocalEnumerator(const Stmt* target, std::size_t cap, bool* truncated)
      : target_(target), cap_(cap), truncated_(truncated) {}

  std::vector<LocalPath> run(const FuncDecl& fn) {
    std::vector<LocalPath> live;
    live.emplace_back();
    walk(fn.body, std::move(live));
    return std::move(results_);
  }

 private:
  void emit(const std::vector<LocalPath>& live) {
    for (const LocalPath& path : live) {
      if (results_.size() >= cap_) {
        *truncated_ = true;
        return;
      }
      results_.push_back(path);
    }
  }

  std::vector<LocalPath> with_guard(std::vector<LocalPath> paths, const Expr* guard,
                                    bool taken) {
    for (LocalPath& path : paths) path.emplace_back(guard, taken);
    return paths;
  }

  void clamp(std::vector<LocalPath>& live) {
    if (live.size() > cap_) {
      live.resize(cap_);
      *truncated_ = true;
    }
  }

  /// Processes `stmts` with the given live prefixes; returns the prefixes
  /// that complete the statement list normally (no return/throw/break).
  std::vector<LocalPath> walk(const std::vector<StmtPtr>& stmts, std::vector<LocalPath> live) {
    for (const StmtPtr& stmt : stmts) {
      if (live.empty()) return live;
      if (stmt.get() == target_) emit(live);
      switch (stmt->kind) {
        case Stmt::Kind::kIf: {
          std::vector<LocalPath> then_out =
              walk(stmt->body, with_guard(live, stmt->expr.get(), true));
          std::vector<LocalPath> else_out =
              walk(stmt->else_body, with_guard(std::move(live), stmt->expr.get(), false));
          for (LocalPath& path : else_out) then_out.push_back(std::move(path));
          live = std::move(then_out);
          clamp(live);
          break;
        }
        case Stmt::Kind::kWhile: {
          // One-shot unrolling: enter the body (guard true) only if the
          // target is inside it; falling past the loop records no exit guard
          // (sound over-approximation: the loop runs zero or more times).
          if (subtree_contains(stmt->body, target_))
            walk(stmt->body, with_guard(live, stmt->expr.get(), true));
          break;
        }
        case Stmt::Kind::kSync:
        case Stmt::Kind::kBlock:
          live = walk(stmt->body, std::move(live));
          break;
        case Stmt::Kind::kTry: {
          // Both arms are feasible continuations; the catch arm is entered
          // with the same prefixes (the throwing point is not tracked).
          std::vector<LocalPath> body_out = walk(stmt->body, live);
          std::vector<LocalPath> catch_out = walk(stmt->else_body, std::move(live));
          for (LocalPath& path : catch_out) body_out.push_back(std::move(path));
          live = std::move(body_out);
          clamp(live);
          break;
        }
        case Stmt::Kind::kReturn:
        case Stmt::Kind::kThrow:
        case Stmt::Kind::kBreak:
        case Stmt::Kind::kContinue:
          live.clear();
          break;
        default:
          break;
      }
    }
    return live;
  }

  const Stmt* target_;
  std::size_t cap_;
  bool* truncated_;
  std::vector<LocalPath> results_;
};

class TreeBuilder {
 public:
  TreeBuilder(const Program& program, const CallGraph& graph, const TreeOptions& options)
      : program_(program), graph_(graph), options_(options) {}

  ExecutionTree build(const std::string& fragment) {
    ExecutionTree tree;
    for (const StatementHeader* target : graph_.targets(fragment)) {
      const std::vector<std::vector<std::string>> chains =
          graph_.chains_to(target->function->name);
      for (const std::vector<std::string>& chain : chains) {
        FrameMap entry_map;
        entry_map.frame = chain.front();
        // Entry parameters canonicalize to "<entry>::<param>" like locals.
        combine(tree, chain, 0, {}, entry_map, target->stmt);
        if (tree.paths.size() >= options_.max_paths) {
          tree.truncated = true;
          return tree;
        }
      }
    }
    return tree;
  }

 private:
  const std::vector<LocalPath>& enumerate(const FuncDecl& fn, const Stmt* target,
                                          ExecutionTree& tree) {
    const auto key = std::make_pair(&fn, target);
    const auto it = local_cache_.find(key);
    if (it != local_cache_.end()) return it->second;
    bool truncated = false;
    LocalEnumerator enumerator(target, options_.max_paths, &truncated);
    auto inserted = local_cache_.emplace(key, enumerator.run(fn));
    if (truncated) tree.truncated = true;
    return inserted.first->second;
  }

  std::vector<GuardStep> rename_local(const LocalPath& local, const FrameMap& map) {
    std::vector<GuardStep> out;
    out.reserve(local.size());
    for (const auto& [expr, taken] : local) {
      GuardStep step;
      step.taken = taken;
      step.text = map.frame + "::" + minilang::expr_text(*expr);
      const auto formula = smt::to_formula(*expr, smt::OpaquePolicy::kAbstract);
      smt::FormulaPtr f = formula.value_or(smt::Formula::truth(true));
      if (!taken) f = smt::Formula::negate(std::move(f));
      step.formula = rename_formula(f, map);
      out.push_back(std::move(step));
    }
    return out;
  }

  FrameMap callee_map(const CallSite& site, const FrameMap& caller_map) {
    FrameMap map;
    map.frame = site.callee();
    const FuncDecl* callee = program_.find_function(site.callee());
    if (callee == nullptr) return map;
    for (std::size_t i = 0; i < callee->params.size() && i < site.call->args.size(); ++i) {
      const std::string arg_path = smt::access_path(*site.call->args[i]);
      if (arg_path.empty()) {
        map.roots[callee->params[i].name] = kOpaqueRoot;
      } else {
        map.roots[callee->params[i].name] = canonical_var(arg_path, caller_map);
      }
    }
    return map;
  }

  void combine(ExecutionTree& tree, const std::vector<std::string>& chain, std::size_t hop,
               std::vector<GuardStep> prefix, const FrameMap& map, const Stmt* target) {
    if (tree.paths.size() >= options_.max_paths) {
      tree.truncated = true;
      return;
    }
    const FuncDecl* fn = program_.find_function(chain[hop]);
    if (fn == nullptr) return;
    if (hop + 1 == chain.size()) {
      for (const LocalPath& local : enumerate(*fn, target, tree)) {
        std::vector<GuardStep> guards = prefix;
        for (GuardStep& step : rename_local(local, map)) guards.push_back(std::move(step));
        emit(tree, chain, target, std::move(guards), map);
        if (tree.paths.size() >= options_.max_paths) return;
      }
      return;
    }
    const std::string& next = chain[hop + 1];
    for (const CallSite& site : graph_.sites_calling(next)) {
      if (site.caller != fn) continue;
      const FrameMap next_map = callee_map(site, map);
      for (const LocalPath& local : enumerate(*fn, site.stmt, tree)) {
        std::vector<GuardStep> guards = prefix;
        for (GuardStep& step : rename_local(local, map)) guards.push_back(std::move(step));
        combine(tree, chain, hop + 1, std::move(guards), next_map, target);
        if (tree.paths.size() >= options_.max_paths) return;
      }
    }
  }

  void emit(ExecutionTree& tree, const std::vector<std::string>& chain, const Stmt* target,
            std::vector<GuardStep> guards, const FrameMap& target_map) {
    ++tree.enumerated_raw;
    ExecutionPath path;
    path.call_chain = chain;
    path.target = target;
    path.target_function = chain.back();
    if (options_.contract_condition) {
      path.renamed_contract = rename_formula(options_.contract_condition, target_map);
      path.mappable = !has_opaque_root(options_.contract_condition, target_map);
    } else {
      path.renamed_contract = smt::Formula::truth(true);
    }
    if (options_.prune_irrelevant && options_.contract_condition) {
      const std::set<std::string> relevant = path.renamed_contract->variables();
      std::vector<GuardStep> kept;
      for (GuardStep& guard : guards) {
        const std::set<std::string> vars = guard.formula->variables();
        const bool shares = std::any_of(vars.begin(), vars.end(), [&](const std::string& v) {
          return relevant.count(v) > 0;
        });
        if (shares) kept.push_back(std::move(guard));
      }
      guards = std::move(kept);
    }
    path.guards = std::move(guards);
    std::vector<smt::FormulaPtr> conjuncts;
    conjuncts.reserve(path.guards.size());
    for (const GuardStep& guard : path.guards) conjuncts.push_back(guard.formula);
    path.condition = smt::Formula::conj(std::move(conjuncts));
    const std::string key = path.key();
    if (!seen_.insert(key).second) return;  // collapsed by pruning
    tree.paths.push_back(std::move(path));
  }

  const Program& program_;
  const CallGraph& graph_;
  const TreeOptions& options_;
  std::map<std::pair<const FuncDecl*, const Stmt*>, std::vector<LocalPath>> local_cache_;
  std::unordered_set<std::string> seen_;
};

}  // namespace

ExecutionTree build_execution_tree(const Program& program, const CallGraph& graph,
                                   const std::string& target_fragment,
                                   const TreeOptions& options) {
  return TreeBuilder(program, graph, options).build(target_fragment);
}

}  // namespace lisa::analysis
