#include "inference/proposal.hpp"

#include <chrono>
#include <thread>

#include "obs/metrics.hpp"
#include "support/log.hpp"

namespace lisa::inference {

using support::Json;

const support::JsonCodec<corpus::SemanticsKind, std::string> kSemanticsKindCodec{
    [](const corpus::SemanticsKind& kind) -> std::string {
      switch (kind) {
        case corpus::SemanticsKind::kStatePredicate: return "state_predicate";
        case corpus::SemanticsKind::kStructuralPattern: return "structural_pattern";
        case corpus::SemanticsKind::kInterleavingSensitive: return "interleaving_sensitive";
      }
      return "state_predicate";
    },
    [](const std::string& name) {
      if (name == "structural_pattern") return corpus::SemanticsKind::kStructuralPattern;
      if (name == "interleaving_sensitive") return corpus::SemanticsKind::kInterleavingSensitive;
      return corpus::SemanticsKind::kStatePredicate;
    }};

template <class Io>
void json_fields(Io& io, LowLevelSemantics& low) {
  io("description", low.description);
  io("target_statement", low.target_statement);
  io("condition_statement", low.condition_statement);
}

template <class Io>
void json_fields(Io& io, SemanticsProposal& proposal) {
  io("case_id", proposal.case_id);
  io("high_level_semantics", proposal.high_level_semantics);
  io("low_level_semantics", proposal.low_level);
  io("reasoning", proposal.reasoning);
  io("kind", proposal.kind, kSemanticsKindCodec);
  io("pattern", proposal.pattern, support::kOmitEmpty);
}

Json SemanticsProposal::to_json() const { return support::write_record(*this); }

SemanticsProposal SemanticsProposal::from_json(const Json& json) {
  return support::read_record<SemanticsProposal>(json);
}

std::string validate_proposal(const SemanticsProposal& proposal,
                              const std::string& expected_case_id) {
  if (!expected_case_id.empty() && proposal.case_id != expected_case_id)
    return "case id mismatch: expected " + expected_case_id + ", got '" +
           proposal.case_id + "'";
  if ((proposal.kind == corpus::SemanticsKind::kStructuralPattern ||
       proposal.kind == corpus::SemanticsKind::kInterleavingSensitive) &&
      proposal.pattern.empty())
    return "structural proposal names no pattern";
  for (std::size_t i = 0; i < proposal.low_level.size(); ++i) {
    const LowLevelSemantics& low = proposal.low_level[i];
    if (low.target_statement.empty())
      return "low-level semantics " + std::to_string(i) + " has no target statement";
    if (low.condition_statement.empty())
      return "low-level semantics " + std::to_string(i) + " has no condition statement";
  }
  return "";
}

InferenceOutcome infer_with_retry(const std::function<SemanticsProposal()>& attempt,
                                  const std::string& ticket_id,
                                  const RetryPolicy& policy) {
  InferenceOutcome outcome;
  obs::MetricsRegistry& registry = obs::metrics();
  const int max_attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  double backoff_ms = policy.initial_backoff_ms;
  for (int round = 1; round <= max_attempts; ++round) {
    ++outcome.attempts;
    registry.counter("infer.attempts").add();
    try {
      SemanticsProposal proposal = attempt();
      const std::string problem = validate_proposal(proposal, ticket_id);
      if (problem.empty()) {
        if (round > 1) registry.counter("infer.recovered").add();
        outcome.proposal = std::move(proposal);
        outcome.succeeded = true;
        outcome.error.clear();
        return outcome;
      }
      ++outcome.validation_failures;
      registry.counter("infer.validation_failures").add();
      outcome.error = "malformed proposal: " + problem;
    } catch (const InferenceError& error) {
      outcome.error = error.what();
      if (!error.transient()) {
        registry.counter("infer.terminal_errors").add();
        return outcome;
      }
      ++outcome.transient_errors;
      registry.counter("infer.transient_errors").add();
    }
    if (round == max_attempts) break;
    registry.counter("infer.retries").add();
    support::log(support::LogLevel::info, "inference retry ", round, "/",
                 max_attempts - 1, " for ", ticket_id, ": ", outcome.error);
    if (policy.sleep_between_attempts && backoff_ms > 0)
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<std::int64_t>(backoff_ms)));
    backoff_ms *= policy.backoff_multiplier;
  }
  registry.counter("infer.exhausted").add();
  support::log(support::LogLevel::warn, "inference gave up on ", ticket_id, " after ",
               outcome.attempts, " attempt(s): ", outcome.error);
  return outcome;
}

}  // namespace lisa::inference
