#include "obs/history.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/json_fields.hpp"
#include "support/jsonl.hpp"

namespace lisa::obs {

using support::Json;
using support::JsonObject;

// ---------------------------------------------------------------------------
// Serialization: one field list per record (support/json_fields.hpp)
// ---------------------------------------------------------------------------

template <class Io>
void json_fields(Io& io, ContractOutcome& outcome) {
  io("verdict", outcome.verdict);
  io("passed", outcome.passed);
  io("conclusive", outcome.conclusive);
  io("signature_digest", outcome.signature_digest);
  io("slice_fp", outcome.slice_fp, support::kOmitEmpty);
  io("smt_queries", outcome.smt_queries, support::kOmitEmpty);
}

template <class Io>
void json_fields(Io& io, RunRecord& record) {
  io("kind", record.kind);
  io("label", record.label);
  io("input_fingerprint", record.input_fingerprint);
  io("smt_digest", record.smt_digest, support::kOmitEmpty);
  io("contracts", record.contracts);
  io("metrics", record.metrics);
  io("meta", record.meta, support::kOmitEmpty);
}

Json RunRecord::to_json() const { return support::write_record(*this); }

RunRecord RunRecord::from_json(const Json& json) { return support::read_record<RunRecord>(json); }

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

bool RunHistory::load() {
  records_.clear();
  // An absent file is a fresh history, not an error: the first append
  // creates it.
  return support::read_jsonl(path_, kHistoryKind, kHistoryVersion,
                             [this](const Json& line) {
                               RunRecord record = RunRecord::from_json(line);
                               if (record.kind.empty()) return false;
                               records_.push_back(std::move(record));
                               return true;
                             })
      .matched;
}

bool RunHistory::append(const RunRecord& record) {
  if (path_.empty()) return false;
  bool need_header = false;
  {
    std::ifstream probe(path_);
    need_header = !probe || probe.peek() == std::ifstream::traits_type::eof();
  }
  std::ofstream out(path_, std::ios::app);
  if (!out) return false;
  if (need_header)
    out << support::jsonl_header(kHistoryKind, kHistoryVersion, "") << "\n";
  out << record.to_json().dump() << "\n";
  out.flush();
  if (!out.good()) return false;
  records_.push_back(record);
  return true;
}

std::vector<const RunRecord*> RunHistory::matching(const std::string& kind,
                                                   const std::string& label) const {
  std::vector<const RunRecord*> out;
  for (const RunRecord& record : records_) {
    if (!kind.empty() && record.kind != kind) continue;
    if (!label.empty() && record.label != label) continue;
    out.push_back(&record);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Drift detection
// ---------------------------------------------------------------------------

Json DriftFinding::to_json() const {
  JsonObject root;
  root["kind"] = kind;
  root["subject"] = subject;
  root["cause"] = cause;
  root["baseline"] = baseline;
  root["observed"] = observed;
  root["fails_gate"] = fails_gate;
  return Json(std::move(root));
}

double drift_median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  // Lower middle on even sizes: the conservative baseline for "observed
  // exceeds factor × median" style thresholds.
  const std::size_t mid = (values.size() - 1) / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  return values[mid];
}

std::string format_value(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.2f", value);
  return buffer;
}

namespace {

// Drift thresholds (detect_drift in history.hpp states each rule).
constexpr double kLatencyFactor = 3.0;
constexpr double kSmtFactor = 2.0;
constexpr double kMinSmtQueries = 16.0;
constexpr double kSettledDrop = 0.05;
constexpr double kConclusiveDrop = 0.05;

/// Baseline values of one metric over the window, oldest first.
std::vector<double> metric_series(const std::vector<const RunRecord*>& window,
                                  const std::string& name) {
  std::vector<double> values;
  for (const RunRecord* record : window) {
    const auto it = record->metrics.find(name);
    if (it != record->metrics.end()) values.push_back(it->second);
  }
  return values;
}

}  // namespace

std::vector<DriftFinding> detect_drift(const std::vector<const RunRecord*>& baseline,
                                       const RunRecord& current,
                                       const DriftOptions& options) {
  std::vector<DriftFinding> findings;
  if (baseline.empty()) return findings;  // the first run IS the baseline
  const std::size_t window_size =
      std::min(baseline.size(), static_cast<std::size_t>(std::max(options.window, 1)));
  const std::vector<const RunRecord*> window(baseline.end() - static_cast<std::ptrdiff_t>(window_size),
                                             baseline.end());

  // Rule 1: verdict flips on unchanged fingerprints. Compare against the most
  // recent baseline record checking the SAME inputs — if the source and the
  // contract's verdict cone are unchanged yet the verdict signature differs,
  // the gate is nondeterministic about that contract: a flake.
  const RunRecord* same_inputs = nullptr;
  for (const RunRecord* record : baseline)  // full history, not just the window
    if (record->input_fingerprint == current.input_fingerprint &&
        !record->input_fingerprint.empty())
      same_inputs = record;  // keep the most recent
  if (same_inputs != nullptr) {
    for (const auto& [id, outcome] : current.contracts) {
      const auto it = same_inputs->contracts.find(id);
      if (it == same_inputs->contracts.end()) continue;
      const ContractOutcome& before = it->second;
      if (before.slice_fp != outcome.slice_fp) continue;  // cone changed: not a flake
      if (before.signature_digest == outcome.signature_digest) continue;
      if (before.signature_digest.empty() || outcome.signature_digest.empty()) continue;
      DriftFinding finding;
      finding.kind = "verdict-flip";
      finding.subject = id;
      finding.cause = "contract " + id + " was decided differently on unchanged inputs (" +
                      before.verdict + " -> " + outcome.verdict +
                      ", input fingerprint " + current.input_fingerprint +
                      ", slice fingerprint unchanged): the gate is flaky on this "
                      "contract — its verdict cannot be trusted until the "
                      "nondeterminism is found";
      finding.fails_gate = options.fail_gate;
      findings.push_back(std::move(finding));
    }
  }

  // Rule 2: settled-fraction drop — the static screener is settling fewer
  // contracts than it used to, so more work silently falls through to the
  // expensive phases.
  {
    const std::vector<double> series = metric_series(window, "settled_fraction");
    const auto it = current.metrics.find("settled_fraction");
    if (!series.empty() && it != current.metrics.end()) {
      const double median = drift_median(series);
      if (it->second < median - kSettledDrop) {
        DriftFinding finding;
        finding.kind = "settled-drop";
        finding.subject = "settled_fraction";
        finding.baseline = median;
        finding.observed = it->second;
        finding.cause = "settled fraction dropped to " + format_value(it->second) +
                        " from a baseline median of " + format_value(median) +
                        " (last " + std::to_string(window_size) +
                        " run(s)): the static screener settles fewer contracts than "
                        "it used to, so more contracts fall through to the slow path";
        finding.fails_gate = options.fail_gate;
        findings.push_back(std::move(finding));
      }
    }
  }

  // Rule 2b: interleaving-conclusive drop — schedule exploration is draining
  // fewer atomicity/liveness contracts within its bound than it used to.
  // Each inconclusive exploration is already a typed per-run failure; this
  // rule catches the longitudinal version, where the schedule workload grows
  // until the bound quietly stops being enough.
  {
    const std::vector<double> series =
        metric_series(window, "interleaving_conclusive_fraction");
    const auto it = current.metrics.find("interleaving_conclusive_fraction");
    if (!series.empty() && it != current.metrics.end()) {
      const double median = drift_median(series);
      if (it->second < median - kConclusiveDrop) {
        DriftFinding finding;
        finding.kind = "interleaving-conclusive-drop";
        finding.subject = "interleaving_conclusive_fraction";
        finding.baseline = median;
        finding.observed = it->second;
        finding.cause =
            "interleaving-conclusive fraction dropped to " + format_value(it->second) +
            " from a baseline median of " + format_value(median) + " (last " +
            std::to_string(window_size) +
            " run(s)): schedule exploration no longer drains the interleaving "
            "space of every atomicity/liveness contract — raise --max-schedules "
            "or shrink the spawning tests";
        finding.fails_gate = options.fail_gate;
        findings.push_back(std::move(finding));
      }
    }
  }

  // Rule 3: latency regressions on every watched *_ms metric present on both
  // sides. Factor × median AND an absolute floor: a 0.2 ms stage tripling to
  // 0.6 ms is noise, a 200 ms stage tripling is an incident.
  for (const auto& [name, observed] : current.metrics) {
    if (name.size() < 3 || name.compare(name.size() - 3, 3, "_ms") != 0) continue;
    const std::vector<double> series = metric_series(window, name);
    if (series.empty()) continue;
    const double median = drift_median(series);
    if (observed > median * kLatencyFactor && observed - median > options.min_latency_ms) {
      DriftFinding finding;
      finding.kind = "latency-regression";
      finding.subject = name;
      finding.baseline = median;
      finding.observed = observed;
      finding.cause = name + " regressed to " + format_value(observed) +
                      " ms from a baseline median of " + format_value(median) +
                      " ms (last " + std::to_string(window_size) + " run(s), threshold " +
                      format_value(kLatencyFactor) +
                      "x): the gate got slower — find the new cost before it "
                      "normalizes";
      finding.fails_gate = options.fail_gate;
      findings.push_back(std::move(finding));
    }
  }

  // Rule 4: SMT query count regression — the solver is being asked more
  // questions for the same decision, usually a pruning or screening rot.
  {
    const std::vector<double> series = metric_series(window, "smt_queries");
    const auto it = current.metrics.find("smt_queries");
    if (!series.empty() && it != current.metrics.end()) {
      const double median = drift_median(series);
      if (it->second > median * kSmtFactor && it->second - median >= kMinSmtQueries) {
        DriftFinding finding;
        finding.kind = "smt-regression";
        finding.subject = "smt_queries";
        finding.baseline = median;
        finding.observed = it->second;
        finding.cause = "SMT query count regressed to " + format_value(it->second) +
                        " from a baseline median of " + format_value(median) +
                        " (last " + std::to_string(window_size) +
                        " run(s)): the solver answers more queries for the same "
                        "verdicts — screening or pruning lost ground";
        finding.fails_gate = options.fail_gate;
        findings.push_back(std::move(finding));
      }
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const DriftFinding& a, const DriftFinding& b) {
              return a.kind != b.kind ? a.kind < b.kind : a.subject < b.subject;
            });
  return findings;
}

}  // namespace lisa::obs
