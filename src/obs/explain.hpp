// Counterexample narration and gate failure reports.
//
// The provenance ledger (obs/provenance.hpp) stores *what* was decided; this
// module makes the decision legible. Two pieces:
//
//   * narrate_counterexample — replays a covering @test through the concrete
//     MiniLang interpreter with the violated path's SMT model injected into
//     the live state, producing a statement-by-statement trace (variable
//     deltas, lock/monitor state) that ends at the target statement with the
//     failing predicate evaluated term-by-term on concrete values. The model
//     names arrive in the checker's canonical frame vocabulary
//     ("frame::root.fields", "#null" markers, "obj<N>.field" identities);
//     the narrator resolves them against the live frames and heap.
//
//   * render_ledger_html / render_capture_text — a self-contained HTML
//     failure report (no external assets; suitable for CI artifact upload)
//     and the terminal rendering behind `lisa explain`.
//
// Sits above lisa_obs in the layer graph (needs the interpreter and formula
// types), so it is its own library (lisa_explain) linked by the checker and
// the CLI — producers that only *record* evidence never see this header.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "minilang/ast.hpp"
#include "obs/provenance.hpp"
#include "smt/formula.hpp"

namespace lisa::obs {

/// What the narrator needs to reproduce one violated contract.
struct NarrationRequest {
  std::string contract_id;
  /// "state-predicate" (inject model, evaluate Q at the target),
  /// "structural-pattern" (watch for a blocking call under a held monitor),
  /// or "interleaving-sensitive" (watch for a lock-order cycle edge being
  /// exercised or an unguarded write to a guarded field).
  std::string kind;
  /// Ids of the target statements, which the caller resolved with
  /// analysis::CallGraph::targets (state-predicate).
  std::vector<int> target_stmt_ids;
  /// Preferred target statement id from the violated path (-1 = any match).
  int target_stmt_id = -1;
  /// Contract Q in target-frame local names; null for structural contracts.
  smt::FormulaPtr contract;
  /// The violated path's satisfying model, in canonical model names.
  std::map<std::string, bool> model_bools;
  std::map<std::string, std::int64_t> model_ints;
  /// @test functions to replay, best candidates first (covering tests, then
  /// the rest). The narrator returns the first reproducing replay.
  std::vector<std::string> candidate_tests;
  /// Interleaving-sensitive contracts: lock-order cycle edges as (outer,
  /// inner) monitor names — the replay reproduces when a test acquires
  /// `inner` while `outer` is held — and/or a guarded field whose write
  /// with `guard_monitor` not held reproduces the race. Monitor names are
  /// matched modulo `fn::` namespace prefixes.
  std::vector<std::pair<std::string, std::string>> cycle_edges;
  std::string guarded_field;
  std::string guard_monitor;
};

/// Replays candidate tests until one concretely reproduces the violation;
/// falls back to the most informative non-reproducing narration otherwise.
/// Never throws: interpreter errors during a replay degrade that candidate.
[[nodiscard]] Narration narrate_counterexample(const minilang::Program& program,
                                               const NarrationRequest& request);

/// Terminal rendering of one contract's evidence chain (`lisa explain`).
[[nodiscard]] std::string render_capture_text(const ContractCapture& capture);

/// Self-contained HTML failure report over the whole ledger: run header,
/// one collapsible section per contract (verdict badge, screen outcome,
/// facts, paths with models, SMT queries, hits, budget, narration). Inline
/// CSS only — the file works as an offline CI artifact.
[[nodiscard]] std::string render_ledger_html(const ProvenanceLedger& ledger);

}  // namespace lisa::obs
