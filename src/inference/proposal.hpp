// Semantics proposals — the JSON contract of Listing 1.
//
// The paper's LLM outputs, per failure ticket:
//   {"high_level_semantics": "<description>",
//    "low_level_semantics": {
//       "description": "<concise_description>",
//       "target_statement": "<code_text>",
//       "condition_statement": "<predicates>", ...},
//    "reasoning": "<summary>" ...}
// This header defines that structure plus (de)serialization, so the mock
// inference backend and any future real-LLM backend are interchangeable.
#pragma once

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "corpus/ticket.hpp"
#include "support/json.hpp"
#include "support/json_fields.hpp"

namespace lisa::inference {

/// How a proposal, and a stored contract (lisa/contract.hpp), name their
/// kind: "state_predicate", "structural_pattern" or "interleaving_sensitive".
/// Any other name reads as a state predicate.
extern const support::JsonCodec<corpus::SemanticsKind, std::string> kSemanticsKindCodec;

struct LowLevelSemantics {
  std::string description;          // concise natural-language statement
  std::string target_statement;     // code text locating the checked statement
  std::string condition_statement;  // predicate text over concrete state
};

struct SemanticsProposal {
  std::string case_id;
  std::string high_level_semantics;
  std::vector<LowLevelSemantics> low_level;
  std::string reasoning;
  corpus::SemanticsKind kind = corpus::SemanticsKind::kStatePredicate;
  /// For structural proposals: the generalized pattern id
  /// (currently "no_blocking_in_sync").
  std::string pattern;

  [[nodiscard]] support::Json to_json() const;
  [[nodiscard]] static SemanticsProposal from_json(const support::Json& json);
};

/// Typed inference failure. `transient()` distinguishes errors worth
/// retrying (backend hiccup, rate limit, injected fault) from terminal ones
/// (corpus corruption); the ticket id survives into logs and reports so a
/// degraded run still says *which* case was lost.
class InferenceError : public std::runtime_error {
 public:
  InferenceError(std::string ticket_id, const std::string& message, bool transient = false)
      : std::runtime_error("inference failed for " + ticket_id + ": " + message),
        ticket_id_(std::move(ticket_id)),
        transient_(transient) {}

  [[nodiscard]] const std::string& ticket_id() const noexcept { return ticket_id_; }
  [[nodiscard]] bool transient() const noexcept { return transient_; }

 private:
  std::string ticket_id_;
  bool transient_;
};

/// Bounded-retry policy for inference calls: exponential backoff between
/// attempts, applied only to transient errors and malformed responses.
struct RetryPolicy {
  int max_attempts = 3;
  int initial_backoff_ms = 5;
  double backoff_multiplier = 2.0;
  /// Tests disable the sleeps; the attempt/backoff accounting is identical.
  bool sleep_between_attempts = true;
};

/// One inference call's final accounting, success or not. A failed outcome
/// (`!succeeded`) is a structured degradation: the caller reports the case
/// as uninferred instead of crashing the run.
struct InferenceOutcome {
  SemanticsProposal proposal;  // valid only when succeeded
  bool succeeded = false;
  int attempts = 0;
  int transient_errors = 0;
  int validation_failures = 0;
  std::string error;  // terminal or last-attempt error, for the report
};

/// Structural response validation (the guard a real-LLM backend needs
/// against free-form output): the proposal must echo `expected_case_id`,
/// structural proposals must name a pattern, and every low-level semantics
/// must carry both a target and a condition statement. Returns an empty
/// string when valid, else the first problem found.
[[nodiscard]] std::string validate_proposal(const SemanticsProposal& proposal,
                                            const std::string& expected_case_id);

/// Runs `attempt` under `policy`: transient InferenceErrors and proposals
/// that fail validate_proposal are retried with exponential backoff;
/// terminal InferenceErrors stop immediately. Every attempt, retry, and
/// failure class is recorded in the obs metrics registry (infer.attempts,
/// infer.retries, infer.transient_errors, infer.validation_failures,
/// infer.recovered, infer.exhausted). Non-InferenceError exceptions
/// propagate unchanged (corpus corruption keeps its existing contract).
[[nodiscard]] InferenceOutcome infer_with_retry(
    const std::function<SemanticsProposal()>& attempt, const std::string& ticket_id,
    const RetryPolicy& policy = {});

}  // namespace lisa::inference
