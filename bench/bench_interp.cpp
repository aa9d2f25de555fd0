// Substrate benchmark: throughput of the MiniLang front end, of test
// selection, and of the one MiniLang execution core.
//
// Every ticket and commit is parsed before it is checked, and each checked
// contract ranks its program's tests: BM_ParseCorpus parses and checks the 48
// corpus sources, and BM_SelectTests builds a test selector over each parsed
// source and ranks its tests once. BM_CallGraphBuild builds each parsed
// source's structural index (call graph, every CFG and statement header),
// which every evaluation builds once, and BM_SummariesCorpus computes each
// source's interprocedural summaries over a graph built beforehand, the
// gate's hot analysis layer. The CI gate replays test suites on every
// commit; the rest measures Interp on (a) a compute-heavy kernel, (b) the
// full patched corpus suites, and (c) the same suites under concolic replay
// (concolic::Engine, Interp plus its shadow layer), so the cost of the shadow
// layer stays visible.
#include <benchmark/benchmark.h>

#include "analysis/callgraph.hpp"
#include "concolic/engine.hpp"
#include "corpus/ticket.hpp"
#include "inference/embedding.hpp"
#include "minilang/interp.hpp"
#include "minilang/sema.hpp"
#include "staticcheck/summaries.hpp"

namespace {

using namespace lisa::minilang;

const char* kKernel = R"(
fn fib(n: int) -> int {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
fn work() -> int {
  let total = 0;
  let i = 0;
  while (i < 50) {
    total = total + fib(12) % 97;
    i = i + 1;
  }
  return total;
}
)";

std::vector<Program> patched_corpus() {
  std::vector<Program> programs;
  for (const auto& ticket : lisa::corpus::Corpus::all())
    programs.push_back(parse_checked(ticket.patched_source));
  return programs;
}

/// The buggy, patched and latest sources of every case, with the query its
/// contract's tests are ranked against.
struct Source {
  const std::string* text;
  std::string query;
};

std::vector<Source> corpus_sources() {
  std::vector<Source> sources;
  for (const auto& ticket : lisa::corpus::Corpus::all()) {
    for (const std::string* text :
         {&ticket.buggy_source, &ticket.patched_source, &ticket.latest_source})
      if (!text->empty())
        sources.push_back({text, ticket.expected_target + " " + ticket.expected_condition});
  }
  return sources;
}

void BM_ParseCorpus(benchmark::State& state) {
  const std::vector<Source> sources = corpus_sources();
  for (auto _ : state) {
    for (const Source& source : sources)
      benchmark::DoNotOptimize(parse_checked(*source.text).functions.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(sources.size()));
}
BENCHMARK(BM_ParseCorpus)->Unit(benchmark::kMicrosecond);

void BM_SelectTests(benchmark::State& state) {
  const std::vector<Source> sources = corpus_sources();
  std::vector<Program> programs;
  for (const Source& source : sources) programs.push_back(parse_checked(*source.text));
  for (auto _ : state) {
    for (std::size_t i = 0; i < programs.size(); ++i) {
      const lisa::inference::TestSelector selector(programs[i]);
      benchmark::DoNotOptimize(selector.rank(sources[i].query).size());
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(programs.size()));
}
BENCHMARK(BM_SelectTests)->Unit(benchmark::kMicrosecond);

void BM_CallGraphBuild(benchmark::State& state) {
  const std::vector<Source> sources = corpus_sources();
  std::vector<Program> programs;
  for (const Source& source : sources) programs.push_back(parse_checked(*source.text));
  for (auto _ : state) {
    for (const Program& program : programs) {
      const lisa::analysis::CallGraph graph = lisa::analysis::CallGraph::build(program);
      benchmark::DoNotOptimize(&graph);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(programs.size()));
}
BENCHMARK(BM_CallGraphBuild)->Unit(benchmark::kMicrosecond);

void BM_SummariesCorpus(benchmark::State& state) {
  const std::vector<Source> sources = corpus_sources();
  std::vector<Program> programs;
  for (const Source& source : sources) programs.push_back(parse_checked(*source.text));
  std::vector<lisa::analysis::CallGraph> graphs;
  for (const Program& program : programs)
    graphs.push_back(lisa::analysis::CallGraph::build(program));
  for (auto _ : state) {
    for (std::size_t i = 0; i < programs.size(); ++i) {
      const lisa::staticcheck::SummaryMap summaries =
          lisa::staticcheck::SummaryMap::compute(programs[i], graphs[i]);
      benchmark::DoNotOptimize(&summaries);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(programs.size()));
}
BENCHMARK(BM_SummariesCorpus)->Unit(benchmark::kMicrosecond);

void BM_InterpKernel(benchmark::State& state) {
  const Program program = parse_checked(kKernel);
  Interp interp(program);
  interp.set_fuel(1'000'000'000);
  for (auto _ : state) benchmark::DoNotOptimize(interp.call("work", {}).as_int());
}
BENCHMARK(BM_InterpKernel)->Unit(benchmark::kMillisecond);

void BM_InterpCorpusSuites(benchmark::State& state) {
  const std::vector<Program> programs = patched_corpus();
  for (auto _ : state) {
    int passed = 0;
    for (const Program& program : programs) {
      Interp interp(program);
      passed += interp.run_all_tests().first;
    }
    benchmark::DoNotOptimize(passed);
  }
}
BENCHMARK(BM_InterpCorpusSuites)->Unit(benchmark::kMillisecond);

void BM_ConcolicCorpusSuites(benchmark::State& state) {
  const std::vector<Program> programs = patched_corpus();
  lisa::concolic::CheckConfig config;  // no target, no contract: pure replay
  for (auto _ : state) {
    int passed = 0;
    for (const Program& program : programs) {
      lisa::concolic::Engine engine(program);
      for (const FuncDecl* test : program.functions_with("test"))
        passed += engine.run_test(test->name, config).test_passed ? 1 : 0;
    }
    benchmark::DoNotOptimize(passed);
  }
}
BENCHMARK(BM_ConcolicCorpusSuites)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
