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
//   {"journal":"lisa-ledger","version":2,"fingerprint":"<hex>"}
//   {"proposal":{<ProposalEvidence>}}
//   {<ContractCapture::to_json()>}
//   ...
//
// It is the only per-contract record: `--journal` names a ledger file that
// a run appends one capture at a time (start_jsonl, append_jsonl), and
// `--resume` replays the reports of the previous run's intact captures
// (lisa/journal.hpp). A capture holds its contract's report, the only
// verdict record: the renderings (`lisa explain`, `lisa diff`), the history
// record and resume all read the verdict there. Each capture line carries
// `digest`, the FNV-1a digest of the line without it, so a torn or flipped
// byte shows on load.
//
// Everything in this header is plain strings/ints/maps — no smt/minilang
// types — so lisa_obs keeps its support-only link set and every layer of
// the stack (solver, screener, engine, checker) can write evidence without
// a dependency cycle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
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
// Contract check report (lisa/checker.hpp re-exports these as lisa::core)
// ---------------------------------------------------------------------------

enum class PathVerdict { kVerified, kViolated, kUnmappable, kInconclusive };

[[nodiscard]] const char* path_verdict_name(PathVerdict verdict);

/// Inverse of path_verdict_name; nullopt on an unrecognized name (ledger
/// reports written by a different build).
[[nodiscard]] std::optional<PathVerdict> path_verdict_from_name(const std::string& name);

struct PathReport {
  std::vector<std::string> call_chain;
  int target_stmt_id = -1;
  std::string target_text;
  std::string path_condition;
  std::string contract_condition;  // renamed to canonical names
  PathVerdict verdict = PathVerdict::kVerified;
  std::string counterexample;  // model of π ∧ ¬P for violated paths
  std::string detail;          // kInconclusive: why the verdict was refused
  bool covered_by_test = false;
  std::vector<std::string> covering_tests;
};

struct DynamicReport {
  std::vector<std::string> selected_tests;
  int tests_run = 0;
  int tests_passed = 0;
  int target_hits = 0;
  int symbolic_violations = 0;
  int concrete_violations = 0;
  /// Target hits whose π ∧ ¬P query came back unknown (budget or fault):
  /// neither a violation nor a confirmation.
  int inconclusive_hits = 0;
  /// Runs cut short by the step limit or an exhausted budget.
  int degraded_runs = 0;
  std::vector<std::string> violation_details;
};

struct ContractCheckReport {
  std::string contract_id;
  std::string target_fragment;
  std::size_t target_statements = 0;
  std::vector<PathReport> paths;
  int verified = 0;
  int violated = 0;
  int unmappable = 0;
  int inconclusive = 0;     // paths refused by budget / fault / solver unknown
  int uncovered = 0;        // static paths no selected test exercised
  std::size_t raw_paths = 0;  // before pruning/dedup (ablation metric)
  bool truncated = false;
  /// ≥1 statically verified path (the fixed path) — the paper's sanity
  /// check; also the cross-validation signal that grounds LLM output
  /// against actual system behaviour (§5).
  bool sanity_ok = false;
  DynamicReport dynamic;
  std::vector<std::string> structural_violations;  // structural contracts

  // Static screening (src/staticcheck): three-valued verdict computed before
  // the expensive phases. Empty string when screening was disabled.
  std::string screen_verdict;   // "proved-safe" | "proved-violated" | "unknown"
  std::string screen_witness;   // entry->target chain + model for refutations
  std::string screen_reason;
  double screen_ms = 0.0;
  /// True when the screener verdict made the concolic replay unnecessary.
  bool screen_skipped_concolic = false;

  /// Resource governance (support/budget.hpp): set when the attached budget
  /// latched exhausted at any point during this contract's check. The
  /// skipped work is accounted under `inconclusive` / dynamic degradation —
  /// never silently dropped.
  bool budget_exhausted = false;
  std::string budget_reason;
  /// Typed exhaustion cause ("deadline" | "smt-queries" | "paths" |
  /// "fork-points" | "steps"); empty unless budget_exhausted.
  std::string budget_resource;

  /// Schedule exploration (concolic/schedule.hpp): interleaving contracts
  /// with `atomic` / `eventually` patterns are decided by re-running every
  /// spawning @test under the cooperative scheduler, one interleaving per
  /// run. Serial replay sees exactly one schedule and is provably blind to
  /// these bugs, so the explorer's verdict is the contract's verdict.
  int schedules_explored = 0;
  /// False when the DFS could not drain the reduced schedule space within
  /// the bound (or the budget): "no violation found so far", never a pass.
  bool schedule_conclusive = true;
  int schedule_violations = 0;
  /// Compact replayable witness of the first violating interleaving
  /// (ScheduleWitness::to_compact): seed + decision list re-derive the
  /// identical trace on any later run.
  std::string schedule_witness;
  std::string schedule_inconclusive_reason;
  std::vector<std::string> schedule_violation_details;
  /// True when the contract went to the schedule explorer: it ran a
  /// schedule, or it was cut before its first one.
  [[nodiscard]] bool explored_schedules() const {
    return schedules_explored > 0 || !schedule_conclusive;
  }

  /// Slice fingerprint of this contract's verdict cone
  /// (staticcheck/slice.hpp): the canonical identity of everything the
  /// verdict can depend on. Resume replays a report from the previous
  /// run's ledger iff its slice_fp still matches the current program.
  /// check_contracts stamps it when the run has a ledger; empty otherwise.
  std::string slice_fp;

  /// True when the checked program satisfies the contract everywhere.
  [[nodiscard]] bool passed() const {
    return violated == 0 && structural_violations.empty() &&
           dynamic.symbolic_violations == 0 && dynamic.concrete_violations == 0 &&
           schedule_violations == 0;
  }

  /// True when every phase ran to completion: no path refused, no run
  /// degraded, no budget exhaustion. `passed() && !conclusive()` means
  /// "no violation found so far" — needs attention, not a green light.
  [[nodiscard]] bool conclusive() const {
    return !budget_exhausted && inconclusive == 0 &&
           dynamic.inconclusive_hits == 0 && dynamic.degraded_runs == 0 &&
           schedule_conclusive;
  }

  /// The contract's verdict as the ledger, the history record and the
  /// renderings name it: "violated" when a violation was found (conclusive
  /// or not), else "passed" when conclusive, else "inconclusive".
  [[nodiscard]] const char* verdict_name() const;

  /// Canonical rendering of everything verdict-relevant — counts, per-path
  /// verdicts and counterexamples, dynamic violations, structural findings,
  /// screen verdict — excluding timings and the screen reason/witness
  /// phrasing. Two runs decided a contract identically iff their signatures
  /// are byte-identical: the equivalence oracle for incremental re-checking
  /// (bench_incremental) and resume tests.
  [[nodiscard]] std::string verdict_signature() const;

  [[nodiscard]] support::Json to_json() const;
  /// Rebuilds a report from its to_json form (resume from a ledger).
  /// Best-effort: unknown verdict names degrade to kInconclusive.
  [[nodiscard]] static ContractCheckReport from_json(const support::Json& json);
};

// ---------------------------------------------------------------------------
// Per-contract capture
// ---------------------------------------------------------------------------

/// Evidence accumulated while one contract was checked. Producers append
/// through the record_* methods (each takes the owning ledger's mutex); the
/// checker stores the report and the budget accounting when the verdict is
/// final.
struct ContractCapture {
  // Identity.
  std::string contract_id;
  std::string system;
  std::string kind;              // "state-predicate" | "structural-pattern"
  std::string target_fragment;
  std::string condition_text;
  std::string description;
  std::string fingerprint;       // fnv1a over id + target + condition

  // Evidence chain.
  std::vector<FactEvidence> facts;
  std::vector<SmtQueryEvidence> smt_queries;
  std::vector<HitEvidence> hits;
  /// What the budget the run shares had charged, and whether it had
  /// latched exhausted, when this contract's check ended. Not the report's
  /// budget_exhausted, which only the steps that charge the budget set.
  BudgetEvidence budget;
  Narration narration;
  /// The contract's report: its verdict, screen, schedule and per-path
  /// evidence. Serialized as to_json() renders it, minus the screen's
  /// elapsed time (ledger lines carry no timings).
  ContractCheckReport report;

  /// The `digest` of the line this capture was loaded from; empty for a
  /// capture this run recorded. to_json() always writes a fresh one.
  std::string digest;

  /// The capture as one ledger line, with `digest`: the FNV-1a digest of
  /// the line's dump without that field.
  [[nodiscard]] support::Json to_json() const;
  [[nodiscard]] static ContractCapture from_json(const support::Json& json);
  /// True when `digest` is the digest of this typed capture, so the line it
  /// was loaded from is byte for byte what to_json() writes: no byte of it
  /// was torn or flipped, and no field lost precision in the parse. It
  /// guards against corruption, not against a forged line.
  [[nodiscard]] bool intact() const;
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
  /// 2: a capture line holds its verdict only in `report` and carries
  /// `digest`. A version-1 line restated the verdict beside its report.
  static constexpr std::int64_t kLedgerVersion = 2;

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
  void hit(HitEvidence evidence) const {
    if (active()) ledger->record_hit(capture, std::move(evidence));
  }
};

}  // namespace lisa::obs
