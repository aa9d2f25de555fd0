// Schedule exploration: cost per explored interleaving and schedules per
// contract on the three race cases (check-then-act, lost update, missed
// notify), buggy and patched.
//
// Each benchmark runs ScheduleExplorer::explore() over one program version
// exactly as the checker does for one atomicity/liveness contract, and
// reports two counters:
//   * schedules        — interleavings explored per contract (a property of
//                        the search, independent of how threads are run),
//   * us_per_schedule  — wall clock per explored interleaving (the cost of
//                        running one schedule: interpretation plus every
//                        token handoff between MiniLang threads).
// The table printed first checks the verdicts: every buggy version yields a
// violating witness, every patched version drains its space conclusively.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "concolic/schedule.hpp"
#include "corpus/ticket.hpp"
#include "minilang/sema.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace lisa;

struct Version {
  std::string label;  // "<case>/<buggy|patched>"
  bool buggy = false;
  minilang::Program program;
};

const std::vector<Version>& versions() {
  static const std::vector<Version> loaded = [] {
    std::vector<Version> out;
    for (const char* case_id :
         {"zk-session-close-race", "hbase-counter-race", "cass-flush-notify"}) {
      const corpus::FailureTicket* ticket = corpus::Corpus::find(case_id);
      if (ticket == nullptr) continue;
      out.push_back({std::string(case_id) + "/buggy", true,
                     minilang::parse_checked(ticket->buggy_source)});
      out.push_back({std::string(case_id) + "/patched", false,
                     minilang::parse_checked(ticket->patched_source)});
    }
    return out;
  }();
  return loaded;
}

int print_schedule_table() {
  std::printf("=== Schedule exploration on the race cases ===\n\n");
  std::printf("%-32s %10s %12s %16s  %s\n", "case/version", "schedules", "wall ms",
              "us/schedule", "verdict");
  bool ok = versions().size() == 6;
  int total_schedules = 0;
  double total_us = 0.0;
  for (const Version& version : versions()) {
    concolic::ScheduleExplorer explorer(version.program, {});
    const support::Stopwatch timer;
    const concolic::ScheduleExplorationResult result = explorer.explore();
    const double us = timer.elapsed_us();
    total_schedules += result.schedules_explored;
    total_us += us;
    const bool expected = version.buggy
                              ? result.violation_found && !result.witnesses.empty()
                              : !result.violation_found && result.conclusive;
    ok = ok && expected;
    const char* verdict = result.violation_found ? "violation"
                          : result.conclusive    ? "conclusive pass"
                                                 : "inconclusive";
    std::printf("%-32s %10d %12.2f %16.2f  %s%s\n", version.label.c_str(),
                result.schedules_explored, us / 1000.0,
                result.schedules_explored > 0 ? us / result.schedules_explored : 0.0,
                verdict, expected ? "" : "  !! unexpected");
  }
  std::printf("\ntotal: %d schedules, %.2f us/schedule\n\n", total_schedules,
              total_schedules > 0 ? total_us / total_schedules : 0.0);
  std::printf("shape check: %s — every buggy race case yields a violating witness\n"
              "and every patched one is explored conclusively with no violation.\n\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

void explore_loop(benchmark::State& state, const Version& version) {
  double us = 0.0;
  std::int64_t schedules = 0;
  for (auto _ : state) {
    concolic::ScheduleExplorer explorer(version.program, {});
    const support::Stopwatch timer;
    const concolic::ScheduleExplorationResult result = explorer.explore();
    us += timer.elapsed_us();
    schedules += result.schedules_explored;
    benchmark::DoNotOptimize(result.violation_found);
  }
  const double runs = static_cast<double>(state.iterations());
  state.counters["schedules"] = static_cast<double>(schedules) / runs;
  state.counters["us_per_schedule"] = schedules > 0 ? us / static_cast<double>(schedules) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const int status = print_schedule_table();
  for (const Version& version : versions())
    benchmark::RegisterBenchmark(("BM_Explore/" + version.label).c_str(), explore_loop,
                                 std::cref(version))
        ->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return status;
}
