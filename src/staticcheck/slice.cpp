#include "staticcheck/slice.hpp"

#include <algorithm>
#include <deque>

#include "minilang/printer.hpp"
#include "staticcheck/summaries.hpp"
#include "support/jsonl.hpp"

namespace lisa::staticcheck {

using minilang::FuncDecl;
using minilang::Program;

namespace {

/// Footprint paths of a state-predicate condition: every variable the
/// formula mentions, with the "#null" nullness-indicator suffix stripped
/// back to the access path it marks.
std::vector<std::string> condition_footprint(const smt::FormulaPtr& condition) {
  std::set<std::string> paths;
  if (condition != nullptr) {
    for (std::string var : condition->variables()) {
      const std::size_t marker = var.rfind("#null");
      if (marker != std::string::npos && marker == var.size() - 5) var.resize(marker);
      if (!var.empty()) paths.insert(std::move(var));
    }
  }
  return {paths.begin(), paths.end()};
}

/// May `def` store into footprint entry `fp`? Interleaving footprints are
/// bare field names (`field_only`); state-predicate footprints are access
/// paths in the target frame, matched cross-frame through the conservative
/// field-name aliasing rule.
bool def_writes_footprint(const Definition& def, const std::string& fp, bool field_only) {
  if (field_only) {
    if (def.path == "*") return true;
    if (def.path.size() > 2 && def.path.compare(0, 2, "*.") == 0)
      return def.path.substr(2) == fp;
    return mentions_field(def.path, fp);
  }
  return def.may_write(fp);
}

}  // namespace

bool is_literal_new(const minilang::Expr& expr) {
  if (expr.kind != minilang::Expr::Kind::kNew) return false;
  for (const auto& arg : expr.args) {
    if (!arg) return false;
    switch (arg->kind) {
      case minilang::Expr::Kind::kIntLit:
      case minilang::Expr::Kind::kBoolLit:
      case minilang::Expr::Kind::kStrLit:
      case minilang::Expr::Kind::kNullLit:
        break;
      default:
        return false;
    }
  }
  return true;
}

SliceEngine::SliceEngine(const Program& program, const analysis::CallGraph& graph,
                         const SummaryMap* summaries)
    : program_(&program), graph_(&graph), summaries_(summaries) {}

const FuncDepGraph& SliceEngine::depgraph_for(const FuncDecl& fn) const {
  const auto it = cache_.find(&fn);
  if (it != cache_.end()) return it->second;
  return cache_.emplace(&fn, FuncDepGraph::build(graph_->cfg(fn), summaries_)).first->second;
}

void SliceEngine::close_over_callees(std::set<std::string>& cone) const {
  std::deque<std::string> worklist(cone.begin(), cone.end());
  while (!worklist.empty()) {
    const std::string name = std::move(worklist.front());
    worklist.pop_front();
    for (const std::string& callee : graph_->callees_of(name)) {
      if (program_->find_function(callee) == nullptr) continue;  // builtin
      if (cone.insert(callee).second) worklist.push_back(callee);
    }
  }
}

void SliceEngine::close_over_callers(std::set<std::string>& cone,
                                     bool include_tests) const {
  std::deque<std::string> worklist(cone.begin(), cone.end());
  while (!worklist.empty()) {
    const std::string name = std::move(worklist.front());
    worklist.pop_front();
    for (const std::string& caller : graph_->callers_of(name)) {
      const FuncDecl* fn = program_->find_function(caller);
      if (fn == nullptr) continue;
      // Static path enumeration never roots at @test functions
      // (analysis/paths.cpp), so a test caller cannot influence a static
      // verdict — it joins the cone only when the concolic replay will run.
      if (!include_tests && fn->has_annotation("test")) continue;
      if (cone.insert(caller).second) worklist.push_back(caller);
    }
  }
}

std::string SliceEngine::summary_digest_text(const FunctionSummary& summary) {
  std::string text;
  const auto join_set = [&text](const char* key, const std::set<std::string>& items) {
    text += key;
    for (const std::string& item : items) text += " " + item;
    text += "\n";
  };
  join_set("mod", summary.mod_fields);
  join_set("ref", summary.ref_fields);
  text += "mod-params";
  for (const std::size_t index : summary.mod_params) text += " " + std::to_string(index);
  text += "\n";
  text += "flags " + std::to_string(summary.opaque_effects) + " " +
          std::to_string(summary.may_throw) + " " + std::to_string(summary.may_block) + " " +
          std::to_string(summary.net_monitor_normal) + " " +
          std::to_string(summary.net_monitor_throw) + " " +
          std::to_string(summary.concurrency_degraded) + "\n";
  text += "return-null " + std::to_string(static_cast<int>(summary.return_nullness)) + "\n";
  for (const auto& [path, fact] : summary.nullness_on_return)
    text += "on-return " + path + " " + (fact == NullFact::kNull ? "null" : "non-null") + "\n";
  text += "return-interval " + std::to_string(summary.return_interval.lo) + " " +
          std::to_string(summary.return_interval.hi) + "\n";
  for (const auto& [path, fact] : summary.boundary_nullness)
    text += "boundary-null " + path + " " + (fact == NullFact::kNull ? "null" : "non-null") +
            "\n";
  for (const auto& [path, range] : summary.boundary_intervals)
    text += "boundary-interval " + path + " " + std::to_string(range.lo) + " " +
            std::to_string(range.hi) + "\n";
  // Sites are rendered without line/column: positions shift when an edit
  // above them inserts or removes lines, and a pure shift must not change
  // any digest — the per-function text hashes in the fingerprint already
  // catch every real change.
  for (const auto& [monitor, site] : summary.acquired_locks)
    text += "lock " + monitor + " " + site.function + "\n";
  for (const auto& edge : summary.lock_order_edges)
    text += "lock-order " + edge.first + " -> " + edge.second + " @" + edge.function +
            (edge.via.empty() ? "" : " via " + edge.via) + "\n";
  for (const auto& [field, locks] : summary.field_locks) {
    text += "field-locks " + field + (locks.truncated ? " truncated" : "") + "\n";
    for (const auto& site : locks.sites) {
      text += "  site " + site.function + (site.is_write ? " write " : " read ") + site.base;
      for (const std::string& monitor : site.lockset) text += " +" + monitor;
      text += "\n";
    }
  }
  return text;
}

std::string SliceEngine::fingerprint_of(const SliceRequest& request,
                                        const SliceResult& result) const {
  std::string blob = "lisa-slice-fp v1\n";
  blob += "contract " + request.contract_text + "\n";
  blob += "fragment " + request.target_fragment + "\n";
  blob += "condition " + request.condition_text + "\n";
  blob += "pattern " + request.pattern + "\n";
  blob += "include-tests " + std::to_string(request.include_tests ? 1 : 0) + "\n";
  blob += "degraded " + std::to_string(result.degraded ? 1 : 0) + "\n";
  blob += "footprint";
  for (const std::string& path : result.footprint) blob += " " + path;
  blob += "\n";
  for (const std::string& target : result.targets) blob += "target " + target + "\n";
  for (const std::string& name : result.functions) {
    const FuncDecl* fn = program_->find_function(name);
    if (fn == nullptr) continue;
    blob += "fn " + name + " " + support::fnv1a_fingerprint(minilang::function_text(*fn)) +
            "\n";
    if (summaries_ != nullptr) {
      const FunctionSummary* summary = summaries_->find(name);
      if (summary != nullptr)
        blob += "sum " + name + " " +
                support::fnv1a_fingerprint(summary_digest_text(*summary)) + "\n";
    }
  }
  return support::fnv1a_fingerprint(blob);
}

SliceResult SliceEngine::slice(const SliceRequest& request) const {
  SliceResult result;
  const bool field_footprint = request.kind == SliceRequest::Kind::kInterleaving;

  // Footprint: what the contract's verdict predicate reads.
  if (request.kind == SliceRequest::Kind::kStatePredicate) {
    result.footprint = condition_footprint(request.condition);
  } else if (request.kind == SliceRequest::Kind::kInterleaving &&
             request.pattern == "guarded_field" && !request.target_fragment.empty()) {
    result.footprint.push_back(request.target_fragment);
  }

  // Target statements (state predicates only; the other kinds are
  // whole-program rules and carry no target list).
  std::vector<const analysis::StatementHeader*> targets;
  if (request.kind == SliceRequest::Kind::kStatePredicate) {
    targets = graph_->targets(request.target_fragment);
    for (const analysis::StatementHeader* target : targets)
      // No line number: the target's identity must survive edits above it in
      // the source, or every edit would invalidate every fingerprint.
      result.targets.push_back(target->function->name + ": " + target->text);
    std::sort(result.targets.begin(), result.targets.end());
  }

  // Function cone.
  if (summaries_ == nullptr) {
    // No interprocedural facts: every call is a havoc and boundary joins
    // are unknown, so the only sound cone is the whole program. Degrade
    // loudly; the fingerprint then keys on every function body.
    result.degraded = true;
    for (const FuncDecl& fn : program_->functions) result.functions.insert(fn.name);
  } else {
    switch (request.kind) {
      case SliceRequest::Kind::kStatePredicate:
        for (const analysis::StatementHeader* target : targets)
          result.functions.insert(target->function->name);
        close_over_callers(result.functions, request.include_tests);
        close_over_callees(result.functions);
        break;
      case SliceRequest::Kind::kStructural:
      case SliceRequest::Kind::kInterleaving:
        // Whole-program rules: the lock-state scan walks every function
        // and the lock graph is unioned over all thread roots.
        for (const FuncDecl& fn : program_->functions)
          if (!fn.has_annotation("test")) result.functions.insert(fn.name);
        close_over_callees(result.functions);
        break;
    }
    if (request.include_tests) {
      for (const FuncDecl& fn : program_->functions)
        if (fn.has_annotation("test")) result.functions.insert(fn.name);
      close_over_callees(result.functions);
    }
    for (const std::string& name : result.functions) {
      const FunctionSummary* summary = summaries_->find(name);
      if (summary != nullptr && (summary->opaque_effects || summary->concurrency_degraded))
        result.degraded = true;
    }
  }

  // Statement-level backward slice inside the target functions: closure
  // over def-use edges and control dependence, seeded from the target
  // statements plus the reaching definitions of the footprint paths.
  std::set<const FuncDecl*> target_fns;
  for (const analysis::StatementHeader* target : targets) target_fns.insert(target->function);
  for (const FuncDecl* fn : target_fns) {
    const FuncDepGraph& dep = depgraph_for(*fn);
    if (dep.degraded) result.degraded = true;
    std::map<int, std::string> roles;  // node id → role
    std::deque<int> worklist;
    const auto enqueue = [&](int node, const char* role) {
      if (node < 0) return;
      if (roles.emplace(node, role).second) worklist.push_back(node);
    };
    for (const analysis::StatementHeader* target : targets) {
      if (target->function != fn) continue;
      const int node = dep.cfg->node_of(target->stmt);
      enqueue(node, "target");
      if (node < 0) continue;
      for (const std::size_t index : dep.reach_in[static_cast<std::size_t>(node)]) {
        const Definition& def = dep.defs[index];
        for (const std::string& fp : result.footprint)
          if (def_writes_footprint(def, fp, field_footprint)) {
            enqueue(def.node, "data");
            break;
          }
      }
    }
    while (!worklist.empty()) {
      const int node = worklist.front();
      worklist.pop_front();
      for (const std::size_t index : dep.use_defs[static_cast<std::size_t>(node)])
        enqueue(dep.defs[index].node, "data");
      for (const int branch : dep.pdoms.control_deps(node)) enqueue(branch, "control");
    }
    for (const auto& [node, role] : roles) {
      const CfgNode& cfg_node = dep.cfg->node(node);
      if (cfg_node.stmt == nullptr) continue;  // entry/exit/join markers
      SliceStatement statement;
      statement.function = fn->name;
      statement.line = cfg_node.stmt->loc.line;
      statement.column = cfg_node.stmt->loc.column;
      statement.text = minilang::stmt_header_text(*cfg_node.stmt);
      statement.role = role;
      result.statements.push_back(std::move(statement));
    }
  }
  std::sort(result.statements.begin(), result.statements.end(),
            [](const SliceStatement& a, const SliceStatement& b) {
              return std::tie(a.function, a.line, a.column, a.text) <
                     std::tie(b.function, b.line, b.column, b.text);
            });
  result.statements.erase(
      std::unique(result.statements.begin(), result.statements.end(),
                  [](const SliceStatement& a, const SliceStatement& b) {
                    return std::tie(a.function, a.line, a.column, a.text) ==
                           std::tie(b.function, b.line, b.column, b.text);
                  }),
      result.statements.end());

  // Footprint writes across the whole cone (the irrelevance rule's input).
  if (!result.footprint.empty()) {
    for (const std::string& name : result.functions) {
      const FuncDecl* fn = program_->find_function(name);
      if (fn == nullptr) continue;
      const FuncDepGraph& dep = depgraph_for(*fn);
      for (const Definition& def : dep.defs) {
        if (def.kind == Definition::Kind::kParam) continue;
        for (const std::string& fp : result.footprint) {
          if (!def_writes_footprint(def, fp, field_footprint)) continue;
          SliceWriteSite site;
          site.function = name;
          site.line = def.loc.line;
          site.column = def.loc.column;
          site.path = def.path;
          if (def.path.find('.') == std::string::npos && def.stmt != nullptr) {
            const minilang::Expr* rhs = nullptr;
            if (def.kind == Definition::Kind::kLet) rhs = def.stmt->expr.get();
            if (def.kind == Definition::Kind::kAssign) rhs = def.stmt->expr2.get();
            site.literal_construction = rhs != nullptr && is_literal_new(*rhs);
          }
          result.footprint_writes.push_back(std::move(site));
          break;
        }
      }
    }
    std::sort(result.footprint_writes.begin(), result.footprint_writes.end(),
              [](const SliceWriteSite& a, const SliceWriteSite& b) {
                return std::tie(a.function, a.line, a.column, a.path) <
                       std::tie(b.function, b.line, b.column, b.path);
              });
  }

  result.fingerprint = fingerprint_of(request, result);
  return result;
}

}  // namespace lisa::staticcheck
