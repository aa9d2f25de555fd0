// The end-to-end LISA workflow (Fig. 5).
//
// ticket → LLM inference → translation to contracts → execution-tree
// construction + test selection + concolic assertion → report.
// Stage latencies are recorded for the Fig. 5 bench.
#pragma once

#include <string>
#include <vector>

#include "inference/mock_llm.hpp"
#include "lisa/contract.hpp"
#include "lisa/journal.hpp"

namespace lisa::core {

// Stage latencies, derived from the obs span tracer (obs/trace.hpp): each
// stage runs under a ScopedSpan and its field reads the span's elapsed
// time, so the report, the trace, and the metrics registry agree by
// construction.
//
// Invariants (asserted in report_test.cpp):
//   * total_ms == infer_ms + translate_ms + check_ms — the stages partition
//     the run; total is derived, never independently measured.
//   * screen_ms + summary_ms <= check_ms — both are *shares of* check_ms
//     (sub-intervals of the check stage), never additional time. Summing
//     all six fields double-counts.
struct StageTimings {
  double infer_ms = 0.0;
  double translate_ms = 0.0;
  double check_ms = 0.0;  // execution tree + SMT + test selection + concolic
  double screen_ms = 0.0;  // staticcheck screening share of check_ms
  double summary_ms = 0.0;  // summary share of check_ms (computed once per run)
  double total_ms = 0.0;   // == infer_ms + translate_ms + check_ms

  /// True when the invariants above hold (to `slack_ms` clock tolerance).
  [[nodiscard]] bool consistent(double slack_ms = 0.05) const {
    const double stage_sum = infer_ms + translate_ms + check_ms;
    if (total_ms < stage_sum - slack_ms || total_ms > stage_sum + slack_ms) return false;
    return screen_ms + summary_ms <= check_ms + slack_ms;
  }
};

/// Per-run knobs orthogonal to CheckOptions (lisa/journal.hpp). A history
/// record is kind "check", labelled with the case id, plus stage timings.
using PipelineRunOptions = RunOptions;

struct PipelineResult {
  inference::SemanticsProposal proposal;
  std::vector<SemanticContract> contracts;
  std::vector<std::string> rejected;   // out-of-fragment low-level semantics
  std::vector<ContractCheckReport> reports;
  StageTimings timings;
  /// Inference hardening (inference/proposal.hpp): attempts the retry loop
  /// spent, and the structured failure when it gave up. A failed inference
  /// yields an empty-but-valid result with all_passed() == false — never an
  /// uncaught exception for backend faults.
  int inference_attempts = 1;
  bool inference_failed = false;
  std::string inference_error;
  /// Screening, inconclusive and schedule-exploration counts over `reports`.
  RunTotals totals;
  /// Contracts whose reports were replayed from the checkpoint journal.
  int resumed_contracts = 0;

  /// True when every contract held on the checked version — and was checked
  /// to completion: an inconclusive (budget-cut / fault-degraded) report or
  /// a failed inference never counts as a pass.
  [[nodiscard]] bool all_passed() const;
  /// Total violated paths + structural + dynamic + schedule violations
  /// across contracts.
  [[nodiscard]] int total_violations() const;

  [[nodiscard]] support::Json to_json() const;
};

class Pipeline {
 public:
  Pipeline(inference::MockLlmOptions llm_options, CheckOptions check_options)
      : llm_(llm_options), check_options_(std::move(check_options)) {}
  Pipeline() : Pipeline(inference::MockLlmOptions{}, CheckOptions{}) {}

  /// Runs the full workflow for `ticket`, asserting the inferred contracts
  /// against `source_to_check` (e.g. the patched version right after the
  /// fix, or the latest release for the §4 bug hunt).
  [[nodiscard]] PipelineResult run(const corpus::FailureTicket& ticket,
                                   const std::string& source_to_check) const;
  [[nodiscard]] PipelineResult run(const corpus::FailureTicket& ticket,
                                   const std::string& source_to_check,
                                   const PipelineRunOptions& run_options) const;

  [[nodiscard]] const CheckOptions& check_options() const { return check_options_; }

  /// Retry policy for the inference stage (bounded attempts, exponential
  /// backoff). Tests turn sleeping off.
  void set_retry_policy(inference::RetryPolicy policy) { retry_policy_ = policy; }
  [[nodiscard]] const inference::RetryPolicy& retry_policy() const { return retry_policy_; }

 private:
  inference::MockLlm llm_;
  CheckOptions check_options_;
  inference::RetryPolicy retry_policy_;
};

}  // namespace lisa::core
