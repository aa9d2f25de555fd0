#include "lisa/contract.hpp"

#include "smt/minilang_bridge.hpp"

namespace lisa::core {

using support::Json;

template <class Io>
void json_fields(Io& io, SemanticContract& contract) {
  io("id", contract.id);
  io("case_id", contract.case_id);
  io("system", contract.system);
  io("kind", contract.kind, inference::kSemanticsKindCodec);
  io("description", contract.description);
  io("high_level", contract.high_level);
  io("target_fragment", contract.target_fragment);
  io("condition_text", contract.condition_text);
  io("pattern", contract.pattern, support::kOmitEmpty);
}

template <class Io>
void json_fields(Io& io, ContractStore& store) {
  io("contracts", store.contracts_);
}

namespace {

/// A contract read from a file carries its condition as text only.
void parse_condition(SemanticContract& contract) {
  if (contract.kind != corpus::SemanticsKind::kStatePredicate || contract.condition_text.empty())
    return;
  const auto parsed = smt::parse_condition(contract.condition_text);
  if (parsed.has_value()) contract.condition = *parsed;
}

}  // namespace

Json SemanticContract::to_json() const { return support::write_record(*this); }

SemanticContract SemanticContract::from_json(const Json& json) {
  SemanticContract contract = support::read_record<SemanticContract>(json);
  parse_condition(contract);
  return contract;
}

void ContractStore::add(SemanticContract contract) {
  contracts_.push_back(std::move(contract));
}

void ContractStore::add_all(std::vector<SemanticContract> contracts) {
  for (SemanticContract& contract : contracts) contracts_.push_back(std::move(contract));
}

Json ContractStore::to_json() const { return support::write_record(*this); }

ContractStore ContractStore::from_json(const Json& json) {
  ContractStore store = support::read_record<ContractStore>(json);
  for (SemanticContract& contract : store.contracts_) parse_condition(contract);
  return store;
}

TranslationResult translate(const inference::SemanticsProposal& proposal,
                            const std::string& system) {
  TranslationResult result;
  int index = 0;
  for (const inference::LowLevelSemantics& low : proposal.low_level) {
    SemanticContract contract;
    contract.id = proposal.case_id + "#" + std::to_string(index++);
    contract.case_id = proposal.case_id;
    contract.system = system;
    contract.kind = proposal.kind;
    contract.description = low.description;
    contract.high_level = proposal.high_level_semantics;
    contract.target_fragment = low.target_statement;
    contract.condition_text = low.condition_statement;
    contract.pattern = proposal.pattern;
    if (proposal.kind == corpus::SemanticsKind::kStatePredicate) {
      const auto parsed = smt::parse_condition(low.condition_statement);
      if (!parsed.has_value()) {
        result.rejected.push_back(contract.id + ": condition outside checkable fragment: " +
                                  low.condition_statement);
        continue;
      }
      // Normalization: negation-normal form with comparison atoms negated in
      // place, so equal semantics always render equally in reports.
      contract.condition = smt::to_nnf(*parsed);
    }
    result.contracts.push_back(std::move(contract));
  }
  return result;
}

}  // namespace lisa::core
