// Ablation (§5 open question): can LLM-generated semantics be made reliable?
//
// The paper proposes "a cross-checking mechanism that validates mined
// semantics against test cases, ensuring that inferred rules are grounded in
// actual system behavior." LISA's grounding signal is the sanity check: a
// real rule must have at least one statically verified path (the fixed path)
// on the post-fix codebase. This bench injects hallucination noise into the
// inference backend and measures how well that filter separates faithful
// rules from corrupted ones, and what detection survives filtering.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "lisa/pipeline.hpp"
#include "minilang/sema.hpp"

namespace {

using namespace lisa;

struct NoiseRow {
  double noise = 0.0;
  int contracts = 0;
  int grounded = 0;        // pass the sanity cross-check
  int detections = 0;      // grounded contracts that flag the latent path
  int cases = 0;
};

NoiseRow run_with_noise(double noise, std::uint64_t seed) {
  NoiseRow row;
  row.noise = noise;
  inference::MockLlmOptions llm_options;
  llm_options.noise = noise;
  llm_options.seed = seed;
  const inference::MockLlm llm(llm_options);
  core::CheckOptions options;
  options.run_concolic = false;
  const core::Checker checker;
  for (const corpus::FailureTicket& ticket : corpus::Corpus::all()) {
    if (ticket.kind != corpus::SemanticsKind::kStatePredicate) continue;
    ++row.cases;
    const inference::SemanticsProposal proposal = llm.infer(ticket);
    const core::TranslationResult translation = core::translate(proposal, ticket.system);
    const minilang::Program program = minilang::parse_checked(ticket.patched_source);
    const staticcheck::Screener analysis(program);
    for (const core::SemanticContract& contract : translation.contracts) {
      ++row.contracts;
      const core::ContractCheckReport report = checker.check(analysis, contract, options);
      if (!report.sanity_ok) continue;  // filtered by cross-validation
      ++row.grounded;
      if (report.violated > 0) ++row.detections;
    }
  }
  return row;
}

void print_noise_table() {
  std::printf("=== Ablation: hallucination noise vs cross-validation filter ===\n\n");
  std::printf("%8s %10s %10s %12s %18s\n", "noise", "contracts", "grounded",
              "filtered out", "detections kept");
  for (const double noise : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const NoiseRow row = run_with_noise(noise, 91);
    std::printf("%8.2f %10d %10d %12d %13d/%d\n", row.noise, row.contracts, row.grounded,
                row.contracts - row.grounded, row.detections, row.cases);
  }
  std::printf("\nshape check: at noise 0 every mined rule grounds and every latent path\n"
              "is detected; as hallucination rises, the sanity cross-check discards the\n"
              "corrupted rules (they verify on no path of the real system) instead of\n"
              "letting them produce bogus verdicts — reliability comes from grounding,\n"
              "not from trusting the LLM.\n\n");
}

void BM_NoiseSweep(benchmark::State& state) {
  const double noise = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) benchmark::DoNotOptimize(run_with_noise(noise, 7).grounded);
  state.counters["noise_pct"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_NoiseSweep)->Arg(0)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_noise_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
