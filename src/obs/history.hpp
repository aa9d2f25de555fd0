// Longitudinal gate observability: the run-history store and drift rules.
//
// Every artifact PR 4–6 added — spans, metrics, the provenance ledger — is
// scoped to ONE run; the gate itself had no memory. The paper's thesis is
// that systems regress because nobody watches the watchers over time, so
// this module gives the gate run-over-run memory: an append-only JSONL file
// (`RunHistory`) to which `lisa check`/`lisa gate`/`bench_snapshot.sh`
// append one `RunRecord` per run, and a set of baseline-window drift rules
// (`detect_drift`) that compare the newest record against the median of the
// last N and turn anomalies into structured findings the CI gate can fail
// on — with a narrated cause, never silently.
//
// Format (journal-compatible with lisa/journal.hpp and obs/provenance.hpp):
//
//   {"fingerprint":"","journal":"lisa-history","version":1}
//   {<RunRecord::to_json()>}
//   ...
//
// The header fingerprint is empty by design: unlike the per-run journal and
// ledger, one history file spans MANY inputs — each record carries its own
// input fingerprint instead, and drift rules use those to tell "the code
// changed" (verdict flips expected) from "nothing changed yet the verdict
// flipped" (a flake).
//
// Discipline (mirrors obs/provenance.hpp):
//   * an empty history path is the zero-cost null path — producers that
//     pass no path emit byte-identical pre-PR output;
//   * appends are line-buffered and flushed per record, so a crashed run
//     loses at most its own (torn, skipped-on-load) line;
//   * all serialization is byte-stable: sorted keys (support::Json objects
//     are std::map), sorted contract ids, no wall-clock fields except the
//     metrics the drift rules exist to watch.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace lisa::obs {

// ---------------------------------------------------------------------------
// Run records
// ---------------------------------------------------------------------------

/// One contract's longitudinal identity inside a run record: enough to
/// detect a verdict flip (and attribute it) without replaying the ledger.
struct ContractOutcome {
  std::string verdict;           // ContractCheckReport::verdict_name()
  bool passed = true;
  bool conclusive = true;
  /// fnv1a over ContractCheckReport::verdict_signature() — two runs decided
  /// the contract identically iff the digests match.
  std::string signature_digest;
  /// Slice fingerprint of the contract's verdict cone (empty when not
  /// computed). Equal slice fingerprints + different signature digests on
  /// the same inputs is the definition of a flake.
  std::string slice_fp;
  /// SMT queries issued while deciding this contract (0 when no ledger
  /// captured the run).
  std::int64_t smt_queries = 0;
};

/// One appended run: who ran (kind/label), against what (input fingerprint),
/// what was decided (per-contract outcomes), and what it cost (metrics).
struct RunRecord {
  std::string kind;               // "check" | "gate" | "bench"
  /// Timeline key: records with the same (kind, label) form one baseline
  /// series. The gate uses a fingerprint of the contract-store ids so the
  /// series survives source edits; `lisa check` uses the case id.
  std::string label;
  /// fnv1a over the run's identifying inputs (source + contract ids) — the
  /// same inputs string the provenance ledger binds to.
  std::string input_fingerprint;
  std::map<std::string, ContractOutcome> contracts;
  /// Numeric observations the drift rules and `lisa trends` watch: stage
  /// timings (`*_ms`), settled fractions, SMT/path counts, budget spend.
  std::map<std::string, double> metrics;
  /// Free-form provenance (git sha/branch/dirty from bench_snapshot.sh).
  std::map<std::string, std::string> meta;
  /// Order-insensitive fnv1a over the sorted per-query digests of every SMT
  /// query issued this run ("" when no ledger captured them): equal digests
  /// mean the solver saw the same queries.
  std::string smt_digest;

  [[nodiscard]] support::Json to_json() const;
  [[nodiscard]] static RunRecord from_json(const support::Json& json);
};

// ---------------------------------------------------------------------------
// History store
// ---------------------------------------------------------------------------

/// Append-only JSONL store of RunRecords. Load tolerates a missing file
/// (fresh history) and a torn trailing line (crash mid-append), same as the
/// provenance ledger.
class RunHistory {
 public:
  explicit RunHistory(std::string path) : path_(std::move(path)) {}

  /// Loads existing records. Returns true when the file exists and its
  /// header names this kind/version (records after a torn line are
  /// skipped); false when the file is absent (not an error — the first
  /// append creates it) or is some other journal kind.
  [[nodiscard]] bool load();

  /// Appends one record, writing the header first when the file does not
  /// exist or is empty. Returns false on I/O failure. The in-memory record
  /// list is extended on success, so load-append-detect sequences see a
  /// consistent view.
  bool append(const RunRecord& record);

  [[nodiscard]] const std::vector<RunRecord>& records() const { return records_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Records of one timeline, oldest first. Empty kind or label matches any.
  [[nodiscard]] std::vector<const RunRecord*> matching(const std::string& kind,
                                                       const std::string& label) const;

  static constexpr const char* kHistoryKind = "lisa-history";
  static constexpr std::int64_t kHistoryVersion = 1;

 private:
  std::string path_;
  std::vector<RunRecord> records_;
};

// ---------------------------------------------------------------------------
// Drift detection
// ---------------------------------------------------------------------------

/// Baseline-window thresholds. The defaults are deliberately loose — a CI
/// box is noisy, and a drift rule that cries wolf gets disabled — but every
/// rule can be tightened per gate.
struct DriftOptions {
  /// Median-of-last-N baseline window.
  int window = 5;
  /// A watched latency metric regresses when it exceeds `latency_factor` ×
  /// the baseline median AND the absolute increase exceeds
  /// `min_latency_ms` (absolute floor so micro-runs don't false-positive).
  double latency_factor = 3.0;
  double min_latency_ms = 25.0;
  /// SMT query count regresses beyond `smt_factor` × median and at least
  /// `min_smt_queries` extra queries.
  double smt_factor = 2.0;
  double min_smt_queries = 16.0;
  /// Settled fraction (screener effectiveness) may drop at most this much
  /// below the baseline median before the gate complains.
  double settled_drop = 0.05;
  /// Interleaving-conclusive fraction (schedule-explored contracts the
  /// explorer drained within its bound) may drop at most this much below
  /// the baseline median — a drop means the schedule workload outgrew
  /// --max-schedules and inconclusives are creeping in.
  double conclusive_drop = 0.05;
  /// When false, findings are reported but `fails_gate` is never set —
  /// observe-only mode for seeding a fresh baseline.
  bool fail_gate = true;
};

/// One detected anomaly, with the narrated cause the gate surfaces.
struct DriftFinding {
  /// "verdict-flip" | "settled-drop" | "latency-regression" | "smt-regression"
  std::string kind;
  /// Contract id (verdict-flip) or metric name (the rest).
  std::string subject;
  /// Narrated cause: what was expected, what was observed, and why it
  /// matters. This is the text a blocked commit shows the developer.
  std::string cause;
  double baseline = 0.0;
  double observed = 0.0;
  bool fails_gate = false;

  [[nodiscard]] support::Json to_json() const;
};

/// Median of `values`; 0 when empty. Even-sized inputs take the lower
/// middle (conservative for regression thresholds). Exposed for tests.
[[nodiscard]] double drift_median(std::vector<double> values);

/// `value` with two decimals, as drift causes and run diffs print metrics.
[[nodiscard]] std::string format_value(double value);

/// Compares `current` against the trailing `options.window` records of
/// `baseline` (oldest first — the gate passes RunHistory::matching output).
/// Rules:
///   * verdict-flip: a contract whose slice fingerprint matches the most
///     recent baseline record with the SAME input fingerprint, yet whose
///     verdict signature digest differs — the gate changed its mind about
///     unchanged code: a flake, the worst kind of gate rot;
///   * settled-drop: current settled_fraction fell more than
///     `settled_drop` below the baseline median;
///   * interleaving-conclusive-drop: current interleaving_conclusive_fraction
///     fell more than `conclusive_drop` below the baseline median;
///   * latency-regression: a `*_ms` metric exceeded the factor and floor;
///   * smt-regression: smt_queries exceeded the factor and floor.
/// Findings are sorted (kind, then subject) so the report is deterministic.
/// An empty baseline yields no findings — the first run IS the baseline.
[[nodiscard]] std::vector<DriftFinding> detect_drift(
    const std::vector<const RunRecord*>& baseline, const RunRecord& current,
    const DriftOptions& options = {});

}  // namespace lisa::obs
