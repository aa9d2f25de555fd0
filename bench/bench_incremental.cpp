// Incremental re-checking (slice-fingerprint resume): after an edit, a
// resumed gate re-checks only the contracts whose verdict cone contains the
// edit and replays the rest from the journal, which is the previous run's
// provenance ledger with each contract's report embedded in its capture.
// The final verdicts are byte-identical to a cold full run.
//
// Three scenarios over the full corpus contract store against the ZK-1208
// codebase, each with a CI-enforced bound (the `_bound` test runs this file
// with an empty benchmark filter):
//   * identity   — unchanged source: every conclusive entry replays
//     (re-check fraction 0).
//   * out-of-cone — a semantics-preserving edit inside `node_exists`, which
//     no state-predicate cone contains: only whole-program cones
//     (structural / interleaving contracts) re-check, fraction < 1.
//   * in-cone    — an edit inside `create_ephemeral_node`, squarely in the
//     ZK-1208 contract's cone: that contract re-checks too rather than
//     replaying a stale entry (strictly more re-checks than out-of-cone).
// In every scenario the resumed verdict signatures must equal a cold run's.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "lisa/ci_gate.hpp"
#include "lisa/pipeline.hpp"

namespace {

using namespace lisa;

core::ContractStore full_store() {
  core::ContractStore store;
  for (const corpus::FailureTicket& ticket : corpus::Corpus::all()) {
    const inference::SemanticsProposal proposal = inference::MockLlm().infer(ticket);
    core::TranslationResult translation = core::translate(proposal, ticket.system);
    store.add_all(std::move(translation.contracts));
  }
  return store;
}

/// Replaces the first occurrence of `from` with `to`; aborts the scenario
/// (returns empty) when the marker is missing, so a corpus rewrite fails
/// loudly instead of silently benchmarking an identity edit.
std::string edit_source(const std::string& source, const std::string& from,
                        const std::string& to) {
  const std::size_t at = source.find(from);
  if (at == std::string::npos) return {};
  std::string edited = source;
  edited.replace(at, from.size(), to);
  return edited;
}

struct IncrementalOutcome {
  int total = 0;     // contracts evaluated (non-vacuous)
  int resumed = 0;   // replayed from the journal
  int rechecked = 0;
  bool signatures_match = true;  // resumed run == cold run, verdict-for-verdict
  [[nodiscard]] double recheck_fraction() const {
    return total == 0 ? 1.0 : static_cast<double>(rechecked) / total;
  }
};

/// Cold run on `base` (journaled), resumed run on `edited`, cold run on
/// `edited`; compares resumed vs cold verdict signatures per contract.
IncrementalOutcome run_incremental(const core::ContractStore& store,
                                   const std::string& base, const std::string& edited,
                                   const char* tag) {
  const std::string journal_path =
      (std::filesystem::temp_directory_path() / (std::string("lisa_bench_incr_") + tag))
          .string() +
      ".jsonl";
  core::CheckOptions options;
  options.run_concolic = false;  // the static fast path CI uses
  const core::CiGate gate(options);

  core::GateRunOptions journaling;
  journaling.journal_path = journal_path;
  (void)gate.evaluate(base, store, journaling);

  core::GateRunOptions resuming = journaling;
  resuming.resume = true;
  const core::GateDecision resumed = gate.evaluate(edited, store, resuming);

  const core::GateDecision cold = gate.evaluate(edited, store);

  IncrementalOutcome outcome;
  outcome.total = static_cast<int>(resumed.reports.size());
  outcome.resumed = resumed.resumed_contracts;
  outcome.rechecked = outcome.total - outcome.resumed;
  std::map<std::string, std::string> cold_signatures;
  for (const core::ContractCheckReport& report : cold.reports)
    cold_signatures[report.contract_id] = report.verdict_signature();
  for (const core::ContractCheckReport& report : resumed.reports) {
    const auto expected = cold_signatures.find(report.contract_id);
    if (expected == cold_signatures.end() ||
        expected->second != report.verdict_signature())
      outcome.signatures_match = false;
  }
  if (cold.reports.size() != resumed.reports.size()) outcome.signatures_match = false;
  std::remove(journal_path.c_str());
  return outcome;
}

// The two edits, both semantics-preserving so every scenario's verdicts stay
// comparable across corpus evolutions.
constexpr const char* kOutOfConeFrom = "return node != null;";
constexpr const char* kOutOfConeTo = "if (false) { return false; } return node != null;";
constexpr const char* kInConeFrom =
    "server.tree.node_count = server.tree.node_count + 1;";
constexpr const char* kInConeTo =
    "server.tree.node_count = server.tree.node_count + 1 + 0;";

int check_incremental_bound() {
  const corpus::FailureTicket* zk = corpus::Corpus::find("zk-1208-ephemeral-create");
  const core::ContractStore store = full_store();
  const std::string& base = zk->patched_source;
  int violations = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::printf("BOUND VIOLATION: %s\n", what);
      ++violations;
    }
  };

  std::printf("=== incremental re-checking: slice-fingerprint resume ===\n\n");
  std::printf("%-12s | %9s %8s %10s %9s %s\n", "edit", "contracts", "resumed",
              "re-checked", "fraction", "verdicts == cold run");

  const IncrementalOutcome identity = run_incremental(store, base, base, "identity");
  std::printf("%-12s | %9d %8d %10d %8.0f%% %s\n", "identity", identity.total,
              identity.resumed, identity.rechecked, 100 * identity.recheck_fraction(),
              identity.signatures_match ? "yes" : "NO");
  expect(identity.rechecked == 0, "identity edit must replay every entry");
  expect(identity.signatures_match, "identity resume flipped a verdict");

  const std::string out_of_cone = edit_source(base, kOutOfConeFrom, kOutOfConeTo);
  expect(!out_of_cone.empty(), "out-of-cone edit marker missing from corpus");
  const IncrementalOutcome narrow =
      run_incremental(store, base, out_of_cone, "outofcone");
  std::printf("%-12s | %9d %8d %10d %8.0f%% %s\n", "out-of-cone", narrow.total,
              narrow.resumed, narrow.rechecked, 100 * narrow.recheck_fraction(),
              narrow.signatures_match ? "yes" : "NO");
  expect(narrow.resumed > 0, "out-of-cone edit must replay the unaffected contracts");
  expect(narrow.recheck_fraction() < 1.0, "out-of-cone edit re-checked everything");
  expect(narrow.signatures_match, "out-of-cone resume flipped a verdict");

  const std::string in_cone = edit_source(base, kInConeFrom, kInConeTo);
  expect(!in_cone.empty(), "in-cone edit marker missing from corpus");
  const IncrementalOutcome wide = run_incremental(store, base, in_cone, "incone");
  std::printf("%-12s | %9d %8d %10d %8.0f%% %s\n", "in-cone", wide.total, wide.resumed,
              wide.rechecked, 100 * wide.recheck_fraction(),
              wide.signatures_match ? "yes" : "NO");
  expect(wide.rechecked > narrow.rechecked,
         "in-cone edit must additionally re-check the contract whose cone contains it");
  expect(wide.signatures_match, "in-cone resume flipped a verdict");

  std::printf("\n%s\n\n", violations == 0
                              ? "PASS (edits re-check only their cones, zero flips)"
                              : "FAIL");
  return violations == 0 ? 0 : 1;
}

void BM_IncrementalResume(benchmark::State& state) {
  const corpus::FailureTicket* zk = corpus::Corpus::find("zk-1208-ephemeral-create");
  const core::ContractStore store = full_store();
  const std::string edited =
      edit_source(zk->patched_source, kOutOfConeFrom, kOutOfConeTo);
  IncrementalOutcome outcome;
  for (auto _ : state) {
    outcome = run_incremental(store, zk->patched_source, edited, "bm");
    benchmark::DoNotOptimize(outcome.resumed);
  }
  state.counters["incremental_recheck_fraction"] = outcome.recheck_fraction();
  state.counters["contracts"] = static_cast<double>(outcome.total);
}
BENCHMARK(BM_IncrementalResume)->Unit(benchmark::kMillisecond);

void BM_ColdGate(benchmark::State& state) {
  const corpus::FailureTicket* zk = corpus::Corpus::find("zk-1208-ephemeral-create");
  const core::ContractStore store = full_store();
  core::CheckOptions options;
  options.run_concolic = false;
  const core::CiGate gate(options);
  for (auto _ : state)
    benchmark::DoNotOptimize(gate.evaluate(zk->patched_source, store).allowed);
}
BENCHMARK(BM_ColdGate)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int violation = check_incremental_bound();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return violation;
}
