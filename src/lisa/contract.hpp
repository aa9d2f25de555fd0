// Semantic contracts — the machine-checkable form of low-level semantics.
//
// §3.1: "A low-level semantic includes two components. The first component is
// a concise description in natural language. The second component is a
// safety contract <P> s <Q>, where s is the target statement ... and σ
// denotes the program state. Concretely, we restrict P, Q to conjunctions of
// implementation-local predicates." For the ZooKeeper bug the recovered rule
// is <session.isClosing == false> createEphemeralNode <>.
//
// The translator turns LLM proposals (free-text condition/target statements)
// into contracts with solver formulas, applying the paper's normalization:
// parse the condition into the checkable fragment, reject out-of-fragment
// proposals, and keep the target as a canonical-text fragment matched against
// statement headers.
#pragma once

#include <string>
#include <vector>

#include "corpus/ticket.hpp"
#include "inference/proposal.hpp"
#include "smt/formula.hpp"
#include "support/json.hpp"

namespace lisa::core {

struct SemanticContract {
  std::string id;       // "<case_id>#<index>"
  std::string case_id;
  std::string system;
  corpus::SemanticsKind kind = corpus::SemanticsKind::kStatePredicate;
  std::string description;
  std::string high_level;
  /// Canonical-text fragment locating target statements, e.g.
  /// "create_ephemeral_node(".
  std::string target_fragment;
  /// Precondition text in target-frame local names.
  std::string condition_text;
  /// Parsed precondition (null for structural contracts).
  smt::FormulaPtr condition;
  /// Structural pattern id ("no_blocking_in_sync") for structural contracts.
  std::string pattern;

  [[nodiscard]] support::Json to_json() const;
  [[nodiscard]] static SemanticContract from_json(const support::Json& json);
};

/// Durable store of contracts learned from past incidents.
class ContractStore {
 public:
  void add(SemanticContract contract);
  void add_all(std::vector<SemanticContract> contracts);

  [[nodiscard]] const std::vector<SemanticContract>& all() const { return contracts_; }
  [[nodiscard]] std::size_t size() const { return contracts_.size(); }

  /// Serialization for persistence across "CI runs".
  [[nodiscard]] support::Json to_json() const;
  [[nodiscard]] static ContractStore from_json(const support::Json& json);

 private:
  /// The store's field list (support/json_fields.hpp).
  template <class Io>
  friend void json_fields(Io& io, ContractStore& store);

  std::vector<SemanticContract> contracts_;
};

struct TranslationResult {
  std::vector<SemanticContract> contracts;
  /// Low-level semantics whose condition fell outside the checkable fragment
  /// (surfaced to developers, per the paper's open questions).
  std::vector<std::string> rejected;
};

/// Translates a proposal into contracts. `system` labels provenance.
[[nodiscard]] TranslationResult translate(const inference::SemanticsProposal& proposal,
                                          const std::string& system);

}  // namespace lisa::core
