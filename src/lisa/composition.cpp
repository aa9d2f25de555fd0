#include "lisa/composition.hpp"

#include "support/strings.hpp"

namespace lisa::core {

const char* property_status_name(PropertyStatus status) {
  switch (status) {
    case PropertyStatus::kGuaranteed: return "GUARANTEED";
    case PropertyStatus::kBroken: return "BROKEN";
    case PropertyStatus::kInconclusive: return "INCONCLUSIVE";
  }
  return "?";
}

support::Json PropertyReport::to_json() const {
  support::JsonObject root;
  root["property_id"] = property_id;
  root["status"] = property_status_name(status);
  support::JsonArray reports;
  for (const ContractCheckReport& report : constituent_reports)
    reports.push_back(report.to_json());
  root["constituents"] = support::Json(std::move(reports));
  support::JsonArray finding_entries;
  for (const std::string& finding : findings)
    finding_entries.push_back(support::Json(finding));
  root["findings"] = support::Json(std::move(finding_entries));
  return support::Json(std::move(root));
}

PropertyReport Composer::evaluate(const minilang::Program& program,
                                  const HighLevelProperty& property) const {
  PropertyReport report;
  report.property_id = property.id;
  const staticcheck::Screener analysis(program);  // shared by every constituent
  const Checker checker;
  bool any_violation = false;
  bool any_unresolved = false;
  for (const SemanticContract& contract : property.constituents) {
    ContractCheckReport constituent = checker.check(analysis, contract, options_);
    if (constituent.violated > 0 || !constituent.structural_violations.empty() ||
        constituent.dynamic.concrete_violations > 0) {
      any_violation = true;
      for (const PathReport& path : constituent.paths) {
        if (path.verdict != PathVerdict::kViolated) continue;
        report.findings.push_back("constituent " + contract.id + " violated on " +
                                  support::join(path.call_chain, " -> ") +
                                  " (counterexample " + path.counterexample + ")");
      }
      for (const std::string& violation : constituent.structural_violations)
        report.findings.push_back("constituent " + contract.id + ": " + violation);
    }
    if (constituent.unmappable > 0) {
      any_unresolved = true;
      report.findings.push_back("constituent " + contract.id + ": " +
                                std::to_string(constituent.unmappable) +
                                " path(s) need a developer verdict (unmappable)");
    }
    if (!constituent.sanity_ok &&
        contract.kind == corpus::SemanticsKind::kStatePredicate) {
      any_unresolved = true;
      report.findings.push_back("constituent " + contract.id +
                                " has no verified witness path on this codebase");
    }
    report.constituent_reports.push_back(std::move(constituent));
  }
  if (any_violation)
    report.status = PropertyStatus::kBroken;
  else if (any_unresolved)
    report.status = PropertyStatus::kInconclusive;
  else
    report.status = PropertyStatus::kGuaranteed;
  return report;
}

HighLevelProperty ephemeral_lifecycle_property(std::vector<SemanticContract> constituents) {
  HighLevelProperty property;
  property.id = "ephemeral-lifecycle";
  property.statement =
      "Every ephemeral node is deleted once its client session is fully "
      "disconnected.";
  property.constituents = std::move(constituents);
  return property;
}

}  // namespace lisa::core
