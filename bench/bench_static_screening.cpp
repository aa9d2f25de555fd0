// Static contract screening: precision, pipeline speedup, and the
// interprocedural-summary ablation.
//
// The staticcheck screener (src/staticcheck) runs before the concolic
// replay — the pipeline's dominant cost — and settles contracts whose
// verdict is decidable from the guard-only execution tree plus dataflow
// facts. This bench measures, across every corpus contract × program
// version:
//   * the settled fraction (ProvedSafe + ProvedViolated; target ≥ 30%),
//     with interprocedural summaries ON and OFF — ON must settle strictly
//     more (the summary-strengthened facts close contracts whose execution
//     tree alone is inconclusive),
//   * agreement with the full static + concolic checker in both modes
//     (must be exact: screening is an accelerator, never an oracle), and
//   * the end-to-end wall-clock reduction with screening + trusted
//     verdicts against the unscreened checker.
// Every timed pass builds one shared analysis (staticcheck::Screener) per
// program version and checks all of that version's contracts against it,
// as the CI gate does; nothing is cached across passes.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "lisa/checker.hpp"
#include "lisa/pipeline.hpp"
#include "minilang/sema.hpp"
#include "staticcheck/screener.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace lisa;

struct Workload {
  /// One program version and the contracts mined from its ticket.
  struct Version {
    std::string label;  // "<case>/<version>"
    minilang::Program program;
    const std::vector<core::SemanticContract>* contracts = nullptr;
  };
  std::vector<core::TranslationResult> translations;  // backs Version::contracts
  std::vector<Version> versions;
};

/// Parses every corpus program version once and pairs it with the contracts
/// mined from its ticket, so timing loops measure checking, not parsing.
const Workload& workload() {
  static const Workload loaded = [] {
    Workload w;
    // Reserve to keep the contract pointers stable while filling.
    const auto& tickets = corpus::Corpus::all();
    w.translations.reserve(tickets.size());
    for (const corpus::FailureTicket& ticket : tickets) {
      w.translations.push_back(
          core::translate(inference::MockLlm().infer(ticket), ticket.system));
      const core::TranslationResult& translation = w.translations.back();
      const std::pair<const char*, const std::string*> versions[] = {
          {"buggy", &ticket.buggy_source},
          {"patched", &ticket.patched_source},
          {"latest", &ticket.latest_source},
      };
      for (const auto& [name, source] : versions) {
        if (source->empty()) continue;
        w.versions.push_back({ticket.case_id + "/" + name, minilang::parse_checked(*source),
                              &translation.contracts});
      }
    }
    return w;
  }();
  return loaded;
}

/// Ground truth per (version, contract), in workload order: the unscreened
/// full static + concolic checker. Mode-independent (the checker never
/// consults summaries for path verdicts), so both ablation arms compare
/// against the same outcomes.
struct GroundTruth {
  std::vector<bool> passed;
  double full_ms = 0.0;  // wall clock of the unscreened checker
};

const GroundTruth& ground_truth() {
  static const GroundTruth truth = [] {
    GroundTruth t;
    const core::Checker checker;
    core::CheckOptions full_options;
    full_options.static_screen = false;
    const support::Stopwatch timer;
    for (const Workload::Version& version : workload().versions) {
      const staticcheck::Screener analysis(version.program);
      for (const core::SemanticContract& contract : *version.contracts)
        t.passed.push_back(checker.check(analysis, contract, full_options).passed());
    }
    t.full_ms = timer.elapsed_ms();
    return t;
  }();
  return truth;
}

struct ScreenStats {
  int contracts = 0;
  int proved_safe = 0;
  int proved_violated = 0;
  int unknown = 0;
  int disagreements = 0;
  // Interleaving-sensitive (deadlock / race) contracts, tracked separately:
  // they settle through the lock graph and lockset coverage, not the
  // execution tree, so their settled fraction is its own number.
  int interleaving_contracts = 0;
  int interleaving_settled = 0;
  double screened_ms = 0.0;  // wall clock, screening + trusted verdicts
  double summary_ms = 0.0;   // the analyses' summary computations (a share)

  [[nodiscard]] int settled() const { return proved_safe + proved_violated; }
  [[nodiscard]] double settled_fraction() const {
    return contracts == 0 ? 0.0 : static_cast<double>(settled()) / contracts;
  }
  [[nodiscard]] double interleaving_settled_fraction() const {
    return interleaving_contracts == 0
               ? 0.0
               : static_cast<double>(interleaving_settled) / interleaving_contracts;
  }
};

ScreenStats run_comparison(bool use_summaries, std::vector<std::string>* disagreement_lines) {
  ScreenStats stats;
  const core::Checker checker;
  core::CheckOptions screened_options;
  screened_options.trust_screen_verdicts = true;  // CI-style: outcome only
  const GroundTruth& truth = ground_truth();

  std::size_t index = 0;
  for (const Workload::Version& version : workload().versions) {
    const staticcheck::Screener analysis(version.program, use_summaries);
    for (const core::SemanticContract& contract : *version.contracts) {
      const bool truth_passed = truth.passed[index++];
      ++stats.contracts;
      const bool interleaving = contract.kind == corpus::SemanticsKind::kInterleavingSensitive;
      if (interleaving) ++stats.interleaving_contracts;

      const support::Stopwatch screened_timer;
      const core::ContractCheckReport screened =
          checker.check(analysis, contract, screened_options);
      stats.screened_ms += screened_timer.elapsed_ms();

      const std::string label = version.label + " " + contract.id;
      if (screened.screen_verdict == "proved-safe") {
        ++stats.proved_safe;
        if (interleaving) ++stats.interleaving_settled;
        if (!truth_passed) {
          ++stats.disagreements;
          if (disagreement_lines != nullptr)
            disagreement_lines->push_back(label + ": screener safe, checker violated");
        }
      } else if (screened.screen_verdict == "proved-violated") {
        ++stats.proved_violated;
        if (interleaving) ++stats.interleaving_settled;
        if (truth_passed) {
          ++stats.disagreements;
          if (disagreement_lines != nullptr)
            disagreement_lines->push_back(label + ": screener violated, checker passed");
        }
      } else {
        ++stats.unknown;
        // Atomicity/liveness contracts never produce a screen verdict: the
        // schedule explorer decides them instead. A found violation or a
        // conclusively drained schedule space is a settled outcome — and the
        // explorer is summary-independent, so it must agree with ground truth.
        const bool explorer_decided =
            interleaving && (screened.schedule_violations > 0 ||
                             (screened.schedules_explored > 0 && screened.schedule_conclusive));
        if (explorer_decided) ++stats.interleaving_settled;
        // Unknown must fall through to the identical full-check outcome —
        // except interleaving contracts without an explorer verdict, which
        // have no dynamic fall-through (single-threaded replay cannot observe
        // interleavings): with summaries off they are simply unchecked, so
        // comparing against the summaries-on ground truth is meaningless.
        if ((!interleaving || explorer_decided) && screened.passed() != truth_passed) {
          ++stats.disagreements;
          if (disagreement_lines != nullptr)
            disagreement_lines->push_back(label + ": unknown-path outcome diverged");
        }
      }
    }
    stats.summary_ms += analysis.summary_ms();
  }
  return stats;
}

void print_mode_block(const char* title, const ScreenStats& stats,
                      const std::vector<std::string>& disagreements) {
  std::printf("%s\n", title);
  std::printf("  proved safe:      %d\n", stats.proved_safe);
  std::printf("  proved violated:  %d\n", stats.proved_violated);
  std::printf("  unknown:          %d (fall through to the full check)\n", stats.unknown);
  std::printf("  settled fraction: %.1f%%\n", 100.0 * stats.settled_fraction());
  std::printf("  interleaving:     %d/%d settled (%.1f%%)\n", stats.interleaving_settled,
              stats.interleaving_contracts, 100.0 * stats.interleaving_settled_fraction());
  std::printf("  disagreements:    %d (must be 0)\n", stats.disagreements);
  for (const std::string& line : disagreements) std::printf("    !! %s\n", line.c_str());
}

int print_screening_table() {
  std::vector<std::string> off_lines;
  const ScreenStats off = run_comparison(/*use_summaries=*/false, &off_lines);
  std::vector<std::string> on_lines;
  const ScreenStats on = run_comparison(/*use_summaries=*/true, &on_lines);
  const GroundTruth& truth = ground_truth();

  std::printf("=== Static contract screening vs concolic ground truth ===\n\n");
  std::printf("contracts x versions checked: %d\n\n", on.contracts);
  print_mode_block("summaries OFF (PR 2 call-site havoc):", off, off_lines);
  std::printf("\n");
  print_mode_block("summaries ON (interprocedural effect inference):", on, on_lines);
  std::printf("\nsummary ablation: +%d contract(s) settled (%.1f%% -> %.1f%%), "
              "summary computation %.1f ms\n",
              on.settled() - off.settled(), 100.0 * off.settled_fraction(),
              100.0 * on.settled_fraction(), on.summary_ms);
  const double reduction =
      truth.full_ms <= 0.0 ? 0.0 : 100.0 * (1.0 - on.screened_ms / truth.full_ms);
  std::printf("wall clock: full %.1f ms, screened (summaries on) %.1f ms "
              "(%.1f%% reduction)\n\n",
              truth.full_ms, on.screened_ms, reduction);

  const bool ok = off.disagreements == 0 && on.disagreements == 0 &&
                  on.settled() > off.settled() && on.settled_fraction() >= 0.30 &&
                  on.screened_ms < truth.full_ms && on.interleaving_contracts > 0 &&
                  on.interleaving_settled == on.interleaving_contracts;
  std::printf("shape check: %s — screening settles a third or more of the corpus\n"
              "statically, never contradicts the concolic verdict in either mode,\n"
              "settles strictly more with summaries on, settles every interleaving\n"
              "contract (lock graph or schedule explorer), and cuts the end-to-end\n"
              "checking time.\n\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

/// Checks every contract of every version, one shared analysis per version.
int check_all(const core::CheckOptions& options) {
  const core::Checker checker;
  int violated = 0;
  for (const Workload::Version& version : workload().versions) {
    const staticcheck::Screener analysis(version.program);
    for (const core::SemanticContract& contract : *version.contracts)
      violated += checker.check(analysis, contract, options).violated;
  }
  return violated;
}

void BM_FullCheck(benchmark::State& state) {
  core::CheckOptions options;
  options.static_screen = false;
  for (auto _ : state) benchmark::DoNotOptimize(check_all(options));
}
BENCHMARK(BM_FullCheck)->Unit(benchmark::kMillisecond);

void BM_ScreenedCheck(benchmark::State& state) {
  core::CheckOptions options;
  options.trust_screen_verdicts = true;
  for (auto _ : state) benchmark::DoNotOptimize(check_all(options));
}
BENCHMARK(BM_ScreenedCheck)->Unit(benchmark::kMillisecond);

void screener_only_loop(benchmark::State& state, bool use_summaries) {
  for (auto _ : state) {
    int settled = 0;
    for (const Workload::Version& version : workload().versions) {
      const staticcheck::Screener screener(version.program, use_summaries);
      for (const core::SemanticContract& contract : *version.contracts) {
        if (contract.condition == nullptr) continue;
        const staticcheck::ScreenResult result =
            screener.screen_state_predicate(contract.target_fragment, contract.condition);
        settled += result.verdict != staticcheck::ScreenVerdict::kUnknown ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(settled);
  }
}

void BM_ScreenerOnly_Summaries(benchmark::State& state) {
  screener_only_loop(state, /*use_summaries=*/true);
}
BENCHMARK(BM_ScreenerOnly_Summaries)->Unit(benchmark::kMillisecond);

void BM_ScreenerOnly_Havoc(benchmark::State& state) {
  screener_only_loop(state, /*use_summaries=*/false);
}
BENCHMARK(BM_ScreenerOnly_Havoc)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int status = print_screening_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return status;
}
