// Fig. 6: low-level semantics should be generalized.
//
// The ZK-2201 fix removed one blocking call from one synchronized block; a
// year later ZK-3531 hit the same pattern in a different serializer. This
// bench compares, over a set of evolution variants:
//   * the NARROW rule  — "no direct write_record call inside a sync block"
//     (what a regression test encodes), and
//   * the GENERAL rule — "no blocking I/O reachable inside any sync block"
//     (the abstracted system-level behaviour the paper advocates),
// measuring recall on seeded recurrences and false positives on safe code.
// Both rules come from the lock-state screen the gate runs for structural
// contracts: the general rule is every diagnostic it reports, the narrow
// rule only those at direct write_record calls. Exits non-zero unless the
// narrow rule scores 1/3 and the general rule 3/3, both with no false
// positive.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "corpus/ticket.hpp"
#include "minilang/sema.hpp"
#include "staticcheck/screener.hpp"
#include "support/strings.hpp"

namespace {

using namespace lisa;

struct Variant {
  const char* name;
  const char* source;
  bool is_bug;  // ground truth: does it contain a blocking-in-sync hazard?
};

// Evolution variants modeled on how the codebase actually changed between
// ZK-2201 and ZK-3531.
const Variant kVariants[] = {
    {"acl-cache serializer (ZK-3531)", R"ml(
struct AclCache { acl_map: map<string, string>; }
struct OutputArchive { records_written: int; }
@entry
fn serialize_acls(cache: AclCache, oa: OutputArchive) {
  sync (cache) {
    let ids = keys(cache.acl_map);
    let i = 0;
    while (i < len(ids)) {
      write_record(oa, ids[i]);
      i = i + 1;
    }
  }
}
)ml",
     true},
    {"indirect blocking via helper", R"ml(
struct Txn { payload: string; }
fn persist_txn(t: Txn) { fsync_log(t); }
@entry
fn commit_txn(t: Txn) {
  sync (t) {
    persist_txn(t);
  }
}
)ml",
     true},
    {"different blocking primitive", R"ml(
struct Peer { addr: string; }
struct Update { data: string; }
@entry
fn broadcast(p: Peer, u: Update) {
  sync (u) {
    network_send(p, u.data);
  }
}
)ml",
     true},
    {"safe: copy under lock, write outside", R"ml(
struct Node2 { data: string; }
struct Archive2 { n: int; }
@entry
fn serialize_safe(node: Node2, oa: Archive2) {
  let data = "";
  sync (node) {
    data = node.data;
  }
  write_record(oa, data);
  oa.n = oa.n + 1;
}
)ml",
     false},
    {"safe: pure computation under lock", R"ml(
struct Counter2 { n: int; }
@entry
fn bump_twice(c: Counter2) {
  sync (c) {
    c.n = c.n + 1;
    c.n = c.n + 1;
  }
  fsync_log(c);
}
)ml",
     false},
};

struct RuleScore {
  int true_positives = 0;
  int false_negatives = 0;
  int false_positives = 0;
};

/// Lock-state diagnostics read "call to <callee> may block while holding
/// monitor ...".
bool flags_direct_write_record(const staticcheck::ScreenResult& screen) {
  for (const staticcheck::Diagnostic& diagnostic : screen.diagnostics)
    if (support::starts_with(diagnostic.message, "call to write_record ")) return true;
  return false;
}

int print_generalization_table() {
  std::printf("=== Fig. 6: narrow vs generalized rule on evolution variants ===\n\n");
  std::printf("%-36s %7s | %-10s %-10s\n", "variant", "is bug", "narrow", "general");
  RuleScore narrow_score;
  RuleScore general_score;
  for (const Variant& variant : kVariants) {
    const minilang::Program program = minilang::parse_checked(variant.source);
    const staticcheck::ScreenResult screen =
        staticcheck::Screener(program).screen_structural();
    const bool narrow_hits = flags_direct_write_record(screen);
    const bool general_hits = !screen.diagnostics.empty();
    std::printf("%-36s %7s | %-10s %-10s\n", variant.name, variant.is_bug ? "yes" : "no",
                narrow_hits ? "FLAGGED" : "-", general_hits ? "FLAGGED" : "-");
    const auto score = [&](RuleScore& s, bool hit) {
      if (variant.is_bug && hit) ++s.true_positives;
      if (variant.is_bug && !hit) ++s.false_negatives;
      if (!variant.is_bug && hit) ++s.false_positives;
    };
    score(narrow_score, narrow_hits);
    score(general_score, general_hits);
  }
  std::printf("\n%-10s recall %d/%d, false positives %d\n", "narrow:",
              narrow_score.true_positives,
              narrow_score.true_positives + narrow_score.false_negatives,
              narrow_score.false_positives);
  std::printf("%-10s recall %d/%d, false positives %d\n", "general:",
              general_score.true_positives,
              general_score.true_positives + general_score.false_negatives,
              general_score.false_positives);
  const bool ok = narrow_score.true_positives == 1 && narrow_score.false_negatives == 2 &&
                  narrow_score.false_positives == 0 && general_score.true_positives == 3 &&
                  general_score.false_negatives == 0 && general_score.false_positives == 0;
  std::printf("\nshape check: %s — the narrow rule catches only the literal write_record-\n"
              "in-sync recurrence and misses helper-indirected or different-primitive\n"
              "blocking; the generalized rule catches all three recurrences with zero\n"
              "false positives on the safe variants.\n\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

void BM_GeneralRuleCheck(benchmark::State& state) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-2201-sync-serialize");
  const minilang::Program program = minilang::parse_checked(ticket->patched_source);
  for (auto _ : state) {
    const staticcheck::Screener screener(program);
    benchmark::DoNotOptimize(screener.screen_structural().diagnostics.size());
  }
}
BENCHMARK(BM_GeneralRuleCheck)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const int shape_failed = print_generalization_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return shape_failed;
}
