#include "analysis/patterns.hpp"

#include <functional>
#include <set>

#include "minilang/builtins.hpp"
#include "minilang/printer.hpp"

namespace lisa::analysis {

using minilang::FuncDecl;
using minilang::Program;

namespace {

/// DFS from `name` collecting every acyclic call chain ending at a blocking
/// leaf (builtin or @blocking function). A callee that reaches several
/// distinct leaves produces several chains.
std::vector<std::vector<std::string>> blocking_chains(const Program& program,
                                                      const CallGraph& graph,
                                                      const std::string& name) {
  std::vector<std::vector<std::string>> chains;
  std::vector<std::string> stack;
  std::set<std::string> on_stack;
  const std::function<void(const std::string&)> dfs = [&](const std::string& current) {
    if (!on_stack.insert(current).second) return;
    stack.push_back(current);
    const FuncDecl* fn = program.find_function(current);
    if (minilang::is_blocking_builtin(current) ||
        (fn != nullptr && fn->has_annotation("blocking"))) {
      chains.push_back(stack);
    } else {
      for (const std::string& callee : graph.callees_of(current))
        if (graph.reaches_blocking(callee)) dfs(callee);
    }
    stack.pop_back();
    on_stack.erase(current);
  };
  dfs(name);
  return chains;
}

std::string sync_loc_text(const minilang::Stmt* sync_stmt) {
  if (sync_stmt == nullptr) return "";
  return " (sync at line " + std::to_string(sync_stmt->loc.line) + ")";
}

}  // namespace

std::vector<PatternViolation> check_no_blocking_in_sync(const Program& program,
                                                        const CallGraph& graph) {
  std::vector<PatternViolation> out;
  for (const CallSite& site : graph.sites()) {
    if (!site.inside_sync) continue;
    if (site.caller->has_annotation("test")) continue;
    if (!graph.reaches_blocking(site.callee())) continue;
    for (std::vector<std::string>& chain : blocking_chains(program, graph, site.callee())) {
      PatternViolation violation;
      violation.function = site.caller->name;
      violation.stmt = site.stmt;
      violation.sync_stmt = site.sync_stmt;
      violation.call_path = std::move(chain);
      violation.blocking_call =
          violation.call_path.empty() ? site.callee() : violation.call_path.back();
      violation.description = "blocking call " + violation.blocking_call +
                              " reachable inside sync block of " + site.caller->name +
                              sync_loc_text(site.sync_stmt) + " via " +
                              minilang::stmt_header_text(*site.stmt);
      out.push_back(std::move(violation));
    }
  }
  return out;
}

std::vector<PatternViolation> check_specific_call_in_sync(const Program& program,
                                                          const CallGraph& graph,
                                                          const std::string& specific_callee) {
  (void)program;
  std::vector<PatternViolation> out;
  for (const CallSite& site : graph.sites()) {
    if (!site.inside_sync || site.callee() != specific_callee) continue;
    if (site.caller->has_annotation("test")) continue;
    PatternViolation violation;
    violation.function = site.caller->name;
    violation.stmt = site.stmt;
    violation.sync_stmt = site.sync_stmt;
    violation.blocking_call = specific_callee;
    violation.call_path = {specific_callee};
    violation.description = "direct call to " + specific_callee + " inside sync block of " +
                            site.caller->name + sync_loc_text(site.sync_stmt);
    out.push_back(std::move(violation));
  }
  return out;
}

}  // namespace lisa::analysis
