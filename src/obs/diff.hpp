// Ledger and run-history diffing: what changed between two gate runs.
//
// `lisa diff` answers the question every "once bitten" postmortem starts
// with: which verdicts flipped between run A and run B, and on what
// evidence? Two granularities share one report type:
//
//   * diff_ledgers — two provenance ledgers (obs/provenance.hpp), the rich
//     form: per-contract verdict flips plus evidence-chain deltas — paths
//     that appeared/vanished/changed verdict, SMT queries whose outcome
//     changed (keyed by content digest), screen-verdict and narration
//     changes, slice-fingerprint movement;
//   * diff_runs — two RunRecords (obs/history.hpp), the longitudinal form:
//     verdict-signature flips plus per-metric deltas.
//
// Everything is deterministic and byte-stable: contracts sorted by id,
// notes emitted in a fixed rule order, metrics sorted by name, no
// wall-clock reads — diffing the same two files twice produces identical
// bytes (asserted by scripts/check.sh).
#pragma once

#include <string>
#include <vector>

#include "obs/history.hpp"
#include "obs/provenance.hpp"
#include "support/json.hpp"

namespace lisa::obs {

/// One metric whose value moved between the two runs.
struct MetricDelta {
  std::string name;
  double before = 0.0;
  double after = 0.0;
  [[nodiscard]] double delta() const { return after - before; }
};

/// One contract that differs between the two sides. `before`/`after` hold
/// the verdicts ("" = the contract is absent on that side).
struct ContractDelta {
  std::string contract_id;
  std::string before;
  std::string after;
  /// Present on both sides with different verdicts — the headline signal.
  bool flipped = false;
  /// Deltas in fixed rule order (damaged captures, screen, slice, paths,
  /// SMT, hits, budget, narration, else the verdict signature);
  /// human-readable, one change per entry.
  std::vector<std::string> notes;
};

/// The structured diff `lisa diff` renders as text, JSON, or HTML.
struct DiffReport {
  std::string label_a;
  std::string label_b;
  std::string fingerprint_a;
  std::string fingerprint_b;
  /// Contracts that differ, sorted by id. Unchanged contracts are counted,
  /// not listed — the report is about what moved.
  std::vector<ContractDelta> contracts;
  int contracts_unchanged = 0;
  /// Ledger captures, on either side, whose line does not match its digest
  /// (ContractCapture::intact): each is noted on its contract.
  int damaged_captures = 0;
  /// Metric movements (run diffs only), sorted by name.
  std::vector<MetricDelta> metrics;

  [[nodiscard]] int verdict_flips() const;
  [[nodiscard]] bool identical() const {
    return contracts.empty() && metrics.empty();
  }

  [[nodiscard]] support::Json to_json() const;
};

/// Rich diff of two provenance ledgers (A = before, B = after). A contract
/// is listed when its verdict flipped, when its evidence chain moved, when
/// either capture is damaged, or, failing all of those, when its verdict
/// signature changed.
[[nodiscard]] DiffReport diff_ledgers(const ProvenanceLedger& a, const ProvenanceLedger& b);

/// Longitudinal diff of two history records.
[[nodiscard]] DiffReport diff_runs(const RunRecord& a, const RunRecord& b);

/// Terminal rendering (byte-stable).
[[nodiscard]] std::string render_diff_text(const DiffReport& report);

/// Self-contained HTML rendering (html_page below).
[[nodiscard]] std::string render_diff_html(const DiffReport& report);

// HTML helpers the diff, ledger (obs/explain.hpp) and trends reports share.

/// Escapes `&`, `<`, `>` and `"` for HTML text and attribute values.
[[nodiscard]] std::string html_escape(const std::string& text);

/// A self-contained page — inline CSS only, no external assets, so it works
/// as an offline CI artifact: the reports' shared style plus `extra_css`,
/// `title` as the page title and heading, then `body`.
[[nodiscard]] std::string html_page(const std::string& title, const std::string& extra_css,
                                    const std::string& body);

/// Badge class of a verdict: "bad" violated, "good" passed, "warn" otherwise.
[[nodiscard]] const char* verdict_class(const std::string& verdict);

}  // namespace lisa::obs
