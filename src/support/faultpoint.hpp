// Named fault-injection points for robustness testing.
//
// Every stage boundary of the checking stack carries a named fault point;
// tests (and the chaos smoke in scripts/check.sh) arm them to prove each
// stage degrades gracefully instead of crashing or silently passing:
//
//   site                where                    armed effect
//   ------------------  -----------------------  ---------------------------
//   smt.solve           smt::Solver::solve       timeout/fail → kUnknown
//   infer.propose       MockLlm::infer           fail/timeout → transient
//                                                InferenceError; malformed →
//                                                corrupted proposal
//   explorer.path       concolic::explore        fail → path skipped
//   summaries.fixpoint  SummaryMap::compute      fail → the evaluation's
//                                                shared analysis degrades to
//                                                call-site-havoc facts
//   report.serialize    ContractCheckReport::    fail → degraded JSON stub,
//                       to_json                  run completes
//
// Specs come from the LISA_FAULTPOINTS environment variable (read once at
// first use) or FaultRegistry::configure in tests:
//
//   LISA_FAULTPOINTS=smt.solve=timeout,infer.propose=fail:2,smt.solve=delay:5
//
// Grammar: site=action[:count] separated by commas. Actions: fail, timeout,
// malformed, delay:<ms>. `count` bounds how many times the site fires
// (fail:2 = first two arrivals fail, then the site is spent); omitted count
// means every arrival fires. delay's parameter is milliseconds, not a count.
//
// Disarmed cost: one relaxed atomic load per site visit — the registry is
// safe to leave compiled into every hot path.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <atomic>
#include <string>
#include <vector>

namespace lisa::support {

enum class FaultAction { kNone, kFail, kTimeout, kMalformed, kDelay };

[[nodiscard]] const char* fault_action_name(FaultAction action);

class FaultRegistry {
 public:
  /// The process-global registry; parses LISA_FAULTPOINTS on first call.
  [[nodiscard]] static FaultRegistry& instance();

  /// Replaces the configuration with `spec` ("" disarms everything).
  /// Returns false — leaving the registry disarmed — when the spec is
  /// malformed (unknown action, bad count); a broken chaos config must be
  /// loud, not a silent no-op of the intended faults.
  bool configure(const std::string& spec);

  /// Disarms every site and zeroes trigger counts.
  void clear();

  /// Consults the site and consumes one firing. Returns kNone when the
  /// site is disarmed or spent. For kDelay, `*delay_ms` receives the
  /// configured sleep.
  FaultAction consume(const std::string& site, std::int64_t* delay_ms = nullptr);

  /// How many times the site has fired since configure/clear.
  [[nodiscard]] std::int64_t triggered(const std::string& site) const;

  /// Sites currently armed (spent sites included until clear()).
  [[nodiscard]] std::vector<std::string> armed_sites() const;

 private:
  FaultRegistry();

  struct Spec {
    FaultAction action = FaultAction::kNone;
    std::int64_t remaining = -1;  // -1 = unlimited
    std::int64_t delay_ms = 0;
    std::int64_t triggered = 0;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Spec> sites_;
  std::atomic<bool> armed_{false};
};

/// Consult-and-consume at a named site. One relaxed atomic load when the
/// registry is disarmed; sleeps in place for kDelay and reports it as kNone
/// (delay sites perturb timing, they do not change control flow).
[[nodiscard]] FaultAction faultpoint(const std::string& site);

}  // namespace lisa::support
