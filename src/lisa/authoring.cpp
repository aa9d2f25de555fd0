#include "lisa/authoring.hpp"

#include <set>

#include "analysis/callgraph.hpp"
#include "analysis/paths.hpp"
#include "smt/minilang_bridge.hpp"
#include "support/strings.hpp"

namespace lisa::core {

namespace {

/// Variable roots visible in a function frame: parameters plus let-bound
/// locals anywhere in the body (dominance is approximated generously; the
/// checker's unmappable verdict catches the remaining cases path-wise).
std::set<std::string> frame_roots(const minilang::FuncDecl& fn) {
  std::set<std::string> roots;
  for (const minilang::Param& param : fn.params) roots.insert(param.name);
  const std::function<void(const std::vector<minilang::StmtPtr>&)> walk =
      [&](const std::vector<minilang::StmtPtr>& stmts) {
        for (const minilang::StmtPtr& stmt : stmts) {
          if (stmt->kind == minilang::Stmt::Kind::kLet) roots.insert(stmt->name);
          walk(stmt->body);
          walk(stmt->else_body);
        }
      };
  walk(fn.body);
  return roots;
}

}  // namespace

AuthoringFeedback author_rule(const minilang::Program& program, const DeveloperRule& rule) {
  AuthoringFeedback feedback;

  if (rule.id.empty()) feedback.errors.push_back("rule id must not be empty");
  if (rule.operation.empty()) feedback.errors.push_back("operation must name a function");

  const std::string target_fragment = rule.operation + "(";
  const analysis::CallGraph graph = analysis::CallGraph::build(program);
  const std::vector<const analysis::StatementHeader*> targets = graph.targets(target_fragment);
  if (targets.empty())
    feedback.errors.push_back("operation '" + rule.operation +
                              "' has no call site in the codebase");

  const auto condition = smt::parse_condition(rule.required_condition);
  if (!condition.has_value()) {
    feedback.errors.push_back(
        "required_condition is outside the checkable fragment (allowed: boolean "
        "structure over field paths, null tests, and integer comparisons): " +
        rule.required_condition);
  } else {
    // Every condition root must be visible in at least one target frame.
    std::set<std::string> roots;
    for (const std::string& var : (*condition)->variables()) {
      const std::size_t cut = var.find_first_of(".#");
      roots.insert(cut == std::string::npos ? var : var.substr(0, cut));
    }
    for (const std::string& root : roots) {
      bool visible = false;
      for (const analysis::StatementHeader* target : targets)
        if (frame_roots(*target->function).count(root) > 0) visible = true;
      if (!visible)
        feedback.errors.push_back("condition variable '" + root +
                                  "' is not visible in any function containing the "
                                  "operation — name it as the target frame sees it");
    }
  }

  if (feedback.errors.empty()) {
    // Vacuity warning: no entry path reaches any target.
    analysis::TreeOptions options;
    options.contract_condition = *condition;
    const analysis::ExecutionTree tree =
        analysis::build_execution_tree(program, graph, target_fragment, options);
    if (tree.paths.empty())
      feedback.warnings.push_back(
          "rule is vacuous on this codebase: no entry path reaches the operation");

    feedback.accepted = true;
    feedback.contract.id = rule.id;
    feedback.contract.case_id = rule.id;
    feedback.contract.system = "developer-authored";
    feedback.contract.kind = corpus::SemanticsKind::kStatePredicate;
    feedback.contract.description = rule.behavior;
    feedback.contract.high_level = rule.behavior;
    feedback.contract.target_fragment = target_fragment;
    feedback.contract.condition_text = rule.required_condition;
    feedback.contract.condition = smt::to_nnf(*condition);
  }
  return feedback;
}

}  // namespace lisa::core
