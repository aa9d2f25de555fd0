#include "concolic/testgen.hpp"

#include "analysis/callgraph.hpp"
#include "concolic/engine.hpp"
#include "minilang/printer.hpp"
#include "minilang/sema.hpp"
#include "smt/solver.hpp"
#include "support/strings.hpp"

namespace lisa::concolic {

using minilang::FuncDecl;
using minilang::Program;
using minilang::Type;

namespace {

/// All model variables must be rooted at entry parameters ("entry::param…");
/// constraints over deeper frames (locals fed by container lookups) cannot
/// be established through arguments alone.
bool roots_are_entry_params(const smt::FormulaPtr& f, const std::string& entry,
                            const FuncDecl& fn) {
  for (const std::string& var : f->variables()) {
    if (support::starts_with(var, "opaque:")) continue;  // unconstrained
    const std::string prefix = entry + "::";
    if (!support::starts_with(var, prefix)) return false;
    std::string rest = var.substr(prefix.size());
    const std::size_t cut = rest.find_first_of(".#");
    const std::string root = cut == std::string::npos ? rest : rest.substr(0, cut);
    bool is_param = false;
    for (const minilang::Param& param : fn.params)
      if (param.name == root) is_param = true;
    if (!is_param) return false;
  }
  return true;
}

/// Renders one argument expression for `param` from the model. Returns
/// nullopt for container-typed parameters (outside the synthesizable subset).
std::optional<std::string> render_argument(const Program& program,
                                           const minilang::Param& param,
                                           const std::string& entry,
                                           const smt::Model& model) {
  const std::string base = entry + "::" + param.name;
  const auto model_int = [&](const std::string& name, std::int64_t fallback) {
    const auto it = model.ints.find(name);
    return it == model.ints.end() ? fallback : it->second;
  };
  const auto model_bool = [&](const std::string& name, bool fallback) {
    const auto it = model.bools.find(name);
    return it == model.bools.end() ? fallback : it->second;
  };
  switch (param.type->kind) {
    case Type::Kind::kInt:
      return std::to_string(model_int(base, 0));
    case Type::Kind::kBool:
      return model_bool(base, false) ? "true" : "false";
    case Type::Kind::kString:
      return "\"synth\"";
    case Type::Kind::kStruct: {
      if (param.type->nullable && model_bool(base + "#null", false)) return "null";
      const minilang::StructDecl* decl = program.find_struct(param.type->struct_name);
      if (decl == nullptr) return std::nullopt;
      std::string out = "new " + decl->name + " {";
      bool first = true;
      for (const minilang::FieldDecl& field : decl->fields) {
        std::string value;
        switch (field.type->kind) {
          case Type::Kind::kInt:
            value = std::to_string(model_int(base + "." + field.name, 0));
            break;
          case Type::Kind::kBool:
            value = model_bool(base + "." + field.name, false) ? "true" : "false";
            break;
          default:
            continue;  // defaults (empty string/list/map/null) applied by `new`
        }
        out += (first ? " " : ", ");
        first = false;
        out += field.name + ": " + value;
      }
      out += first ? "}" : " }";
      return out;
    }
    default:
      return std::nullopt;  // lists/maps need human-authored setup
  }
}

}  // namespace

std::optional<SynthesizedTest> synthesize_path_test(const Program& program,
                                                    const analysis::ExecutionPath& path,
                                                    bool violating, int sequence_number) {
  if (path.call_chain.empty()) return std::nullopt;
  const std::string& entry = path.call_chain.front();
  const FuncDecl* fn = program.find_function(entry);
  if (fn == nullptr) return std::nullopt;
  if (violating && !path.mappable) return std::nullopt;

  const smt::FormulaPtr query =
      violating ? smt::Formula::conj2(path.condition,
                                      smt::Formula::negate(path.renamed_contract))
                : smt::Formula::conj2(path.condition, path.renamed_contract);
  if (!roots_are_entry_params(query, entry, *fn)) return std::nullopt;

  smt::Solver solver;
  const smt::SolveResult solved = solver.solve(query);
  if (!solved.sat()) return std::nullopt;

  std::vector<std::string> arguments;
  for (const minilang::Param& param : fn->params) {
    const auto rendered = render_argument(program, param, entry, solved.model);
    if (!rendered.has_value()) return std::nullopt;
    arguments.push_back(*rendered);
  }

  SynthesizedTest test;
  test.test_name = std::string(violating ? "synth_witness_" : "synth_cover_") +
                   std::to_string(sequence_number);
  test.model_text = solved.model.to_string();
  std::string body = "@test\nfn " + test.test_name + "() {\n";
  for (std::size_t i = 0; i < arguments.size(); ++i)
    body += "  let arg" + std::to_string(i) + " = " + arguments[i] + ";\n";
  body += "  try {\n    " + entry + "(";
  for (std::size_t i = 0; i < arguments.size(); ++i) {
    if (i > 0) body += ", ";
    body += "arg" + std::to_string(i);
  }
  body += ");\n  } catch (e) {\n    print(\"synthesized run raised:\", e);\n  }\n}\n";
  test.source = std::move(body);
  return test;
}

SynthesizedReplay replay_synthesized_test(const Program& program, const SynthesizedTest& test,
                                          const std::string& target_fragment,
                                          const smt::FormulaPtr& contract_condition,
                                          support::Budget* budget) {
  SynthesizedReplay result;
  Program with_test;
  try {
    with_test = minilang::parse_checked(minilang::program_text(program) + "\n" + test.source);
  } catch (const std::exception&) {
    return result;
  }
  const analysis::CallGraph graph = analysis::CallGraph::build(with_test);
  CheckConfig config;
  for (const analysis::StatementHeader* target : graph.targets(target_fragment))
    config.target_stmt_ids.push_back(target->stmt->id);
  config.contract = contract_condition;
  config.budget = budget;
  Engine engine(with_test);
  const RunResult run = engine.run_test(test.test_name, config);
  for (const TargetHit& hit : run.hits) {
    result.reached = true;
    if (hit.symbolic_violation || hit.concrete_violation) {
      result.violated = true;
      result.witness = hit.witness;
    }
  }
  return result;
}

}  // namespace lisa::concolic
