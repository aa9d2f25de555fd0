// Verdict provenance: the evidence ledger behind every contract verdict.
//
// The gate's own decisions must not be opaque: when a contract flips to
// violated or inconclusive, the operator needs the complete causal chain —
// which inference proposal produced the contract (and how many retries it
// took), which static facts and summaries settled or failed to settle it,
// every explored path's condition and SMT query outcome, what the budget
// charged, and (on violation) a narrated concrete counterexample. The
// ProvenanceLedger records exactly that, one ContractCapture per contract.
//
// Discipline (mirrors obs/trace.hpp):
//   * a nullptr ledger/capture is the zero-cost path — every producer
//     checks the pointer before rendering any evidence string;
//   * capture is append-only and mutex-guarded per ledger, so parallel
//     checking (ROADMAP item 1) can shard contracts over one ledger;
//   * serialized output is byte-stable across runs: no wall-clock or
//     elapsed-time fields, keys ordered (support::Json objects are
//     std::map), contracts emitted in sorted id order, digests are FNV-1a
//     over canonical formula text.
//
// The JSONL form (support/jsonl.hpp) is a fingerprinted header line, the
// proposal line, then one JSON document per contract:
//
//   {"journal":"lisa-ledger","version":1,"fingerprint":"<hex>"}
//   {"proposal":{<ProposalEvidence>}}
//   {<ContractCapture::to_json()>}
//   ...
//
// It is the only per-contract record: `--journal` names a ledger file that
// a run appends one capture at a time (start_jsonl, append_jsonl), and
// `--resume` replays the reports embedded in the captures of the previous
// run's file (lisa/journal.hpp).
//
// Everything in this header is plain strings/ints/maps — no smt/minilang
// types — so lisa_obs keeps its support-only link set and every layer of
// the stack (solver, screener, engine, checker) can write evidence without
// a dependency cycle.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace lisa::obs {

// ---------------------------------------------------------------------------
// Evidence records
// ---------------------------------------------------------------------------

/// One SMT query issued while deciding a contract. `phase` names the issuing
/// stage ("screen", "static-path", "concolic"); `digest` is the FNV-1a hash
/// of the query text, the no-flip key parallel checking merges against.
struct SmtQueryEvidence {
  std::string phase;
  std::string query;    // canonical formula text of the decided query
  std::string digest;   // fnv1a_fingerprint(query)
  std::string status;   // "sat" | "unsat" | "unknown"
  std::string model;    // satisfying assignment when sat ("" otherwise)
  std::string reason;   // why the query was refused when unknown
};

/// One dataflow fact that held at a target statement, with its producing
/// analysis and source location.
struct FactEvidence {
  std::string analysis;  // "nullness" | "intervals" | "lock-state" | "summary"
  std::string function;
  int line = 0;
  int column = 0;
  std::string fact;      // canonical text, e.g. "s#null = non-null"
};

/// One static execution path and its assertion outcome. The model maps keep
/// the satisfying assignment structured (not just rendered) so the
/// counterexample narrator can replay it without string parsing.
struct PathEvidence {
  std::string chain;     // "entry -> ... -> target"
  int target_stmt_id = -1;
  std::string target_text;
  std::string path_condition;
  std::string contract_condition;
  std::string verdict;   // "verified" | "violated" | "unmappable" | "inconclusive"
  std::string counterexample;
  std::string detail;
  std::map<std::string, bool> model_bools;
  std::map<std::string, std::int64_t> model_ints;
};

/// One concolic arrival at a target statement during a replayed test.
struct HitEvidence {
  std::string test;
  std::string function;
  int stmt_id = -1;
  std::string trace_condition;
  std::string instantiated_contract;
  std::string outcome;   // "ok" | "symbolic-violation" | "concrete-violation" | "inconclusive"
  std::string witness;
};

/// What the budget charged while checking this contract, and whether (and
/// why) it latched exhausted. `resource` is the typed reason ("deadline",
/// "smt-queries", "paths", "fork-points", "steps").
struct BudgetEvidence {
  bool attached = false;
  bool exhausted = false;
  std::string resource;
  std::string reason;
  std::map<std::string, std::int64_t> charges;
};

/// One interpreted statement of the narrated counterexample replay.
struct NarrationStep {
  std::string function;
  int line = 0;
  std::string stmt;       // statement header text
  int sync_depth = 0;     // monitors held when the statement ran
  /// MiniLang thread that executed the statement (schedule-replay
  /// narrations; 0 = the main/test thread). Rendered as a [tN] marker.
  int thread = 0;
  std::string note;       // variable delta or witness-injection annotation
};

/// One term of the failing predicate, evaluated on the live concrete state.
struct PredicateTerm {
  std::string text;       // atom text, e.g. "s.is_closing == false"
  std::string value;      // concrete evaluation, e.g. "false (s.is_closing = true)"
  bool holds = false;
};

/// The narrated counterexample: a concrete witness replayed through the
/// MiniLang interpreter into a statement-by-statement trace ending at the
/// failing predicate. `kind` records how the witness was obtained:
///   * "state-replay"      — covering test replayed with the violated
///                           path's SMT model injected into the live state;
///   * "structural-replay" — test replayed until a blocking call executed
///                           under a held monitor;
///   * "schedule-replay"   — a violating interleaving witness replayed under
///                           the cooperative scheduler; steps carry the
///                           executing thread id;
///   * "not-reproduced"    — the replay reached the target but the
///                           predicate held (witness state not reachable
///                           through the available tests);
///   * "unavailable"       — no test drove execution to the target.
struct Narration {
  std::string kind;
  std::string test;                    // the replayed @test function
  bool reproduced = false;             // the concrete replay violated Q
  std::vector<NarrationStep> steps;
  std::vector<PredicateTerm> predicate;
  std::string detail;
};

/// The inference provenance of a run's proposal: the PR 5 retry/validation
/// history that produced (or failed to produce) the contracts under check.
struct ProposalEvidence {
  std::string case_id;
  std::string high_level;
  std::vector<std::string> low_level;  // one description per low-level semantics
  bool succeeded = true;
  int attempts = 0;
  int transient_errors = 0;
  int validation_failures = 0;
  std::string error;
};

// ---------------------------------------------------------------------------
// Per-contract capture
// ---------------------------------------------------------------------------

/// Evidence accumulated while one contract was checked. Producers append
/// through the record_* methods (each takes the owning ledger's mutex); the
/// checker fills the summary fields when the verdict is final.
struct ContractCapture {
  // Identity.
  std::string contract_id;
  std::string system;
  std::string kind;              // "state-predicate" | "structural-pattern"
  std::string target_fragment;
  std::string condition_text;
  std::string description;
  std::string fingerprint;       // fnv1a over id + target + condition
  /// Slice fingerprint of the contract's verdict cone (staticcheck/slice.hpp);
  /// empty when the checker did not compute one.
  std::string slice_fp;

  // Outcome.
  std::string verdict;           // "passed" | "violated" | "inconclusive"
  bool passed = true;
  bool conclusive = true;

  // Evidence chain.
  std::string screen_verdict;
  std::string screen_reason;
  std::string screen_witness;
  /// Schedule exploration evidence (interleaving contracts decided by the
  /// ScheduleExplorer): interleavings run, whether the DFS drained the
  /// reduced space, the compact replayable witness on violation, and the
  /// narrated cause (first violation detail, or the typed inconclusive
  /// reason). All zero/empty for contracts the explorer never touched.
  int schedules_explored = 0;
  bool schedule_conclusive = true;
  std::string schedule_witness;
  std::string schedule_reason;
  std::vector<FactEvidence> facts;
  std::vector<PathEvidence> paths;
  std::vector<SmtQueryEvidence> smt_queries;
  std::vector<HitEvidence> hits;
  BudgetEvidence budget;
  Narration narration;
  /// The contract's report as lisa::core::ContractCheckReport::to_json()
  /// renders it, minus the screen's elapsed time: the record `--resume`
  /// replays. Opaque here, so obs need not know the checker's types; null
  /// when no report was embedded.
  support::Json report;

  [[nodiscard]] support::Json to_json() const;
  [[nodiscard]] static ContractCapture from_json(const support::Json& json);
};

/// Solver-side capture hook: the smt::Solver calls this for every decided
/// query when a sink is attached (obs cannot name smt types, so the solver
/// renders the strings). Implementations must tolerate concurrent calls.
class SmtCaptureSink {
 public:
  virtual ~SmtCaptureSink() = default;
  virtual void on_smt_query(const std::string& query, const std::string& status,
                            const std::string& model, const std::string& reason) = 0;
};

// ---------------------------------------------------------------------------
// Ledger
// ---------------------------------------------------------------------------

/// The run-level evidence store: one ContractCapture per contract plus the
/// run's inference provenance. Thread-compatible: capture_for and the
/// record_* helpers lock the ledger mutex; distinct contracts can be
/// captured from distinct threads.
class ProvenanceLedger {
 public:
  /// Identifying inputs of the run (the checked source and the contract
  /// ids, or the case id). Sets the header fingerprint.
  void bind(const std::string& inputs);
  [[nodiscard]] const std::string& run_fingerprint() const { return fingerprint_; }

  void set_proposal(ProposalEvidence proposal);
  [[nodiscard]] const ProposalEvidence& proposal() const { return proposal_; }

  /// The capture cell for `contract_id`, created on first use. The pointer
  /// stays valid for the ledger's lifetime.
  [[nodiscard]] ContractCapture* capture_for(const std::string& contract_id);
  /// Lookup without creation; nullptr when the contract was never captured.
  [[nodiscard]] const ContractCapture* find(const std::string& contract_id) const;

  [[nodiscard]] std::size_t size() const;
  /// Contract ids in sorted (= emission) order.
  [[nodiscard]] std::vector<std::string> contract_ids() const;

  /// Thread-safe append helpers for producers holding a capture pointer.
  void record_smt(ContractCapture* capture, SmtQueryEvidence evidence);
  void record_fact(ContractCapture* capture, FactEvidence evidence);
  void record_path(ContractCapture* capture, PathEvidence evidence);
  void record_hit(ContractCapture* capture, HitEvidence evidence);

  /// Whole-ledger JSON (run header + captures in sorted id order).
  [[nodiscard]] support::Json to_json() const;

  /// JSONL: header line, proposal line, one contract per line in sorted id
  /// order.
  [[nodiscard]] std::string to_jsonl() const;
  /// Writes to_jsonl() to `path`; false on I/O error.
  bool write_jsonl(const std::string& path) const;
  /// The same form written as the run goes, so a run cut short keeps every
  /// capture it finished: start_jsonl truncates `path` and writes the header
  /// and the proposal line; append_jsonl adds the capture of `contract_id`
  /// as one line and flushes. Both return false on I/O error (or, for
  /// append_jsonl, when the contract was never captured).
  bool start_jsonl(const std::string& path) const;
  bool append_jsonl(const std::string& path, const std::string& contract_id) const;
  /// Rebuilds a ledger from its JSONL form. Torn or unreadable lines are
  /// dropped with a warning, and a contract written twice keeps its last
  /// line; false when the header is missing or names a different
  /// kind/version.
  [[nodiscard]] bool load_jsonl(const std::string& path);

  static constexpr const char* kLedgerKind = "lisa-ledger";
  static constexpr std::int64_t kLedgerVersion = 1;

 private:
  /// The header and proposal lines of the JSONL form; the caller holds
  /// mutex_.
  [[nodiscard]] std::string jsonl_preamble() const;

  mutable std::mutex mutex_;
  std::string fingerprint_;
  ProposalEvidence proposal_;
  std::map<std::string, std::unique_ptr<ContractCapture>> captures_;
};

/// Adapter binding a solver capture sink to one capture cell and phase
/// label. The checker/screener/engine instantiate one per phase.
class PhasedSmtCapture final : public SmtCaptureSink {
 public:
  PhasedSmtCapture(ProvenanceLedger* ledger, ContractCapture* capture, std::string phase)
      : ledger_(ledger), capture_(capture), phase_(std::move(phase)) {}

  void on_smt_query(const std::string& query, const std::string& status,
                    const std::string& model, const std::string& reason) override;

 private:
  ProvenanceLedger* ledger_;
  ContractCapture* capture_;
  std::string phase_;
};

/// The FNV-1a digest used for SMT query and contract fingerprints
/// (re-exported from support/jsonl.hpp for producers that only see obs).
[[nodiscard]] std::string evidence_digest(const std::string& text);

/// The (ledger, capture) pair producers thread through their options. A
/// default-constructed handle is inert: every record helper no-ops, so the
/// nullptr path stays zero-cost.
struct CaptureHandle {
  ProvenanceLedger* ledger = nullptr;
  ContractCapture* capture = nullptr;

  [[nodiscard]] bool active() const { return ledger != nullptr && capture != nullptr; }
  void fact(FactEvidence evidence) const {
    if (active()) ledger->record_fact(capture, std::move(evidence));
  }
  void path(PathEvidence evidence) const {
    if (active()) ledger->record_path(capture, std::move(evidence));
  }
  void hit(HitEvidence evidence) const {
    if (active()) ledger->record_hit(capture, std::move(evidence));
  }
};

}  // namespace lisa::obs
