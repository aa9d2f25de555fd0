// lisa — command-line front end to the LISA pipeline.
//
// Usage:
//   lisa corpus                       list the incident corpus
//   lisa prompt <case-id>             print the Listing-1 prompt for a ticket
//   lisa infer <case-id>              run inference, print the proposal JSON
//   lisa check <case-id> [--latest|--buggy] [--no-concolic] [--no-prune]
//              [--trace out.json] [--metrics out.json]
//                                     full pipeline; markdown report to stdout;
//                                     --trace writes a Chrome trace-event file
//                                     (open in Perfetto), --metrics a registry
//                                     snapshot
//   lisa profile <system|case-id|all> [--json] [--trace out.json]
//                                     run the corpus slice with tracing on and
//                                     print the per-span cost table (inclusive/
//                                     exclusive ms) plus top SMT hotspots
//   lisa gate <case-id> <file.ml> [--trace out.json] [--metrics out.json]
//             [--report <dir>]        evaluate a commit file against the
//                                     contracts mined from a case; --report
//                                     writes the provenance ledger
//                                     (ledger.jsonl) and a self-contained
//                                     HTML failure report (report.html)
//   lisa explain <case-id> [<contract-id>] [--buggy|--latest] [--json]
//                [--html <file>]      check the case with provenance capture
//                                     on and print each contract's evidence
//                                     chain — screen facts, per-path SMT
//                                     queries, concolic hits, budget charges,
//                                     and a narrated counterexample for
//                                     violations
//   lisa hunt                         §4 bug hunt over the latest releases
//   lisa synth <case-id>              synthesize witness tests for violated
//                                     paths of the patched version
//   lisa explore <case-id>            systematic path exploration: drive every
//                                     synthesizable path with generated tests
//   lisa lint [case-id] [--buggy|--latest] [--json]
//                                     run the staticcheck dataflow analyses
//                                     (nullness, definite assignment, lock
//                                     state, intervals) over corpus programs;
//                                     --json emits machine-readable
//                                     diagnostics plus aggregate counts
//   lisa diff <a.jsonl> <b.jsonl> [--json] [--html <file>]
//   lisa diff --history <file> <i> <j> [--json] [--html <file>]
//                                     deterministic report of what changed
//                                     between two gate runs: verdict flips
//                                     with evidence-chain deltas and damaged
//                                     captures (two ledger files) or
//                                     signature flips + metric deltas (two
//                                     history records by index)
//   lisa trends <history.jsonl> [--kind k] [--label l] [--json] [--html <file>]
//                                     per-metric sparklines over a run-history
//                                     timeline plus the drift findings the
//                                     newest record would raise
//
// `lisa check` and `lisa gate` accept --history <file> to append one
// fingerprinted RunRecord per run to an append-only history store; gate
// additionally runs the drift rules against the recorded baseline and can
// block the commit on a drift finding (never silently — each finding is
// narrated in the report).
//
// Exit code: 0 on success/pass, 1 on violations found/commit blocked,
// 2 on usage or input errors.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/callgraph.hpp"
#include "analysis/paths.hpp"
#include "concolic/explorer.hpp"
#include "concolic/testgen.hpp"
#include "lisa/ci_gate.hpp"
#include "lisa/pipeline.hpp"
#include "lisa/report.hpp"
#include "minilang/sema.hpp"
#include "obs/diff.hpp"
#include "obs/explain.hpp"
#include "obs/history.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "staticcheck/analyses.hpp"
#include "staticcheck/screener.hpp"
#include "staticcheck/slice.hpp"
#include "support/budget.hpp"

namespace {

using namespace lisa;

int usage() {
  std::fprintf(stderr,
               "usage: lisa <command> [args]\n"
               "  corpus | prompt <case> | source <case> [--buggy|--latest] |\n"
               "  infer <case> | check <case> [flags] |\n"
               "  gate <case> <file.ml> [flags] | explain <case> [contract] [flags] |\n"
               "  slice <case> [contract] [--buggy|--latest] [--json] |\n"
               "  diff <a.jsonl> <b.jsonl> | diff --history <file> <i> <j> |\n"
               "  trends <history.jsonl> [--kind k] [--label l] |\n"
               "  hunt | synth <case> | explore <case> |\n"
               "  lint [case] [--buggy|--latest] [--json] |\n"
               "  profile <system|case|all> [--json] [--prom] [--trace out.json]\n"
               "flags for check: --latest --buggy --no-concolic --no-prune\n"
               "                 --trace out.json --metrics out.json\n"
               "flags for gate:  --trace out.json --metrics out.json --report <dir>\n"
               "                 --history-label <s> --drift-window N --drift-warn-only\n"
               "                 --schedule-warn-only\n"
               "flags for explain: --buggy --latest --json --html <file> --ledger <file>\n"
               "flags for diff/trends: --json --html <file>\n"
               "budget flags (check, gate): --deadline-ms N --max-paths N\n"
               "                 --max-smt-queries N --max-steps N --max-schedules N\n"
               "checkpointing (check, gate): --journal out.jsonl --resume\n"
               "run history (check, gate): --history <file> appends one record per\n"
               "run; gate also runs drift detection against the recorded baseline\n"
               "lint with no case runs over every patched corpus program\n"
               "profile runs the corpus slice with tracing on and prints the\n"
               "per-span cost table and top SMT hotspots (--prom: Prometheus text)\n");
  return 2;
}

/// Writes pretty-printed JSON to `path`; reports and returns false on I/O error.
bool write_json_file(const std::string& path, const support::Json& json) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << json.pretty() << "\n";
  return out.good();
}

/// Writes raw text to `path`; reports and returns false on I/O error.
bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << text;
  return out.good();
}

const corpus::FailureTicket* require_case(const std::string& case_id) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find(case_id);
  if (ticket == nullptr) {
    std::fprintf(stderr, "unknown case '%s'; run `lisa corpus` for the list\n",
                 case_id.c_str());
  }
  return ticket;
}

int cmd_corpus() {
  std::printf("%-34s %-10s %6s %-14s %s\n", "case id", "system", "bugs", "original",
              "title");
  for (const corpus::FailureTicket& ticket : corpus::Corpus::all()) {
    std::printf("%-34s %-10s %6d %-14s %s\n", ticket.case_id.c_str(),
                ticket.system.c_str(), ticket.bug_count(), ticket.original.id.c_str(),
                ticket.title.c_str());
  }
  return 0;
}

/// `lisa source <case> [--buggy|--latest]`: print a corpus program verbatim
/// — the handy way to materialize a commit file for `lisa gate`.
int cmd_source(const std::string& case_id, int argc, char** argv) {
  const corpus::FailureTicket* ticket = require_case(case_id);
  if (ticket == nullptr) return 2;
  const std::string* source = &ticket->patched_source;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--buggy") == 0)
      source = &ticket->buggy_source;
    else if (std::strcmp(argv[i], "--latest") == 0)
      source = &ticket->latest_source;
    else
      return usage();
  }
  if (source->empty()) {
    std::fprintf(stderr, "case %s has no such version\n", case_id.c_str());
    return 2;
  }
  std::printf("%s", source->c_str());
  return 0;
}

int cmd_prompt(const std::string& case_id) {
  const corpus::FailureTicket* ticket = require_case(case_id);
  if (ticket == nullptr) return 2;
  std::printf("%s", inference::MockLlm::render_prompt(*ticket).c_str());
  return 0;
}

int cmd_infer(const std::string& case_id) {
  const corpus::FailureTicket* ticket = require_case(case_id);
  if (ticket == nullptr) return 2;
  const inference::SemanticsProposal proposal = inference::MockLlm().infer(*ticket);
  std::printf("%s\n", proposal.to_json().pretty().c_str());
  return 0;
}

/// Parses the shared budget flags (--deadline-ms, --max-paths,
/// --max-smt-queries, --max-steps). Returns false when `flag` is not a
/// budget flag; `i` advances past the consumed value.
bool parse_budget_flag(int argc, char** argv, int* i, support::BudgetLimits* limits) {
  const auto int_value = [&](std::int64_t* out) {
    if (*i + 1 >= argc) return false;
    *out = std::atoll(argv[++*i]);
    return *out > 0;
  };
  if (std::strcmp(argv[*i], "--deadline-ms") == 0) {
    if (*i + 1 >= argc) return false;
    limits->deadline_ms = std::atof(argv[++*i]);
    return limits->deadline_ms > 0.0;
  }
  if (std::strcmp(argv[*i], "--max-paths") == 0) return int_value(&limits->max_paths);
  if (std::strcmp(argv[*i], "--max-smt-queries") == 0)
    return int_value(&limits->max_smt_queries);
  if (std::strcmp(argv[*i], "--max-steps") == 0) return int_value(&limits->max_steps);
  if (std::strcmp(argv[*i], "--max-schedules") == 0)
    return int_value(&limits->max_schedules);
  return false;
}

/// Parses the run flags `check` and `gate` share (--journal, --resume,
/// --history). Returns false when `argv[*i]` is none of them or lacks its
/// value; `i` advances past the consumed value.
bool parse_run_flag(int argc, char** argv, int* i, core::RunOptions* run_options) {
  const auto path_value = [&](std::string* out) {
    if (*i + 1 >= argc) return false;
    *out = argv[++*i];
    return true;
  };
  if (std::strcmp(argv[*i], "--journal") == 0) return path_value(&run_options->journal_path);
  if (std::strcmp(argv[*i], "--history") == 0) return path_value(&run_options->history_path);
  if (std::strcmp(argv[*i], "--resume") != 0) return false;
  run_options->resume = true;
  return true;
}

/// False, with the reason on stderr, when the run flags do not fit together.
bool run_flags_valid(const core::RunOptions& run_options) {
  if (run_options.resume && run_options.journal_path.empty()) {
    std::fprintf(stderr, "--resume requires --journal <path>\n");
    return false;
  }
  return true;
}

/// `--max-schedules N` is both a budget limit and the explorer's own bound:
/// "at most N interleavings total". Exhausting it is a typed inconclusive.
void apply_schedule_limits(const support::BudgetLimits& limits,
                           core::CheckOptions* options) {
  if (limits.max_schedules > 0)
    options->max_schedules = static_cast<int>(limits.max_schedules);
}

int cmd_check(const std::string& case_id, int argc, char** argv) {
  const corpus::FailureTicket* ticket = require_case(case_id);
  if (ticket == nullptr) return 2;
  std::string source = ticket->patched_source;
  std::string trace_path;
  std::string metrics_path;
  core::CheckOptions options;
  core::PipelineRunOptions run_options;
  support::BudgetLimits limits;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--latest") == 0) {
      if (ticket->latest_source.empty()) {
        std::fprintf(stderr, "case %s has no latest version\n", case_id.c_str());
        return 2;
      }
      source = ticket->latest_source;
    } else if (std::strcmp(argv[i], "--buggy") == 0) {
      source = ticket->buggy_source;
    } else if (std::strcmp(argv[i], "--no-concolic") == 0) {
      options.run_concolic = false;
    } else if (std::strcmp(argv[i], "--no-prune") == 0) {
      options.prune_irrelevant = false;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (parse_run_flag(argc, argv, &i, &run_options) ||
               parse_budget_flag(argc, argv, &i, &limits)) {
      // consumed
    } else {
      return usage();
    }
  }
  if (!run_flags_valid(run_options)) return 2;
  if (!trace_path.empty()) obs::tracer().set_enabled(true);
  apply_schedule_limits(limits, &options);
  support::Budget budget(limits);
  if (!limits.unlimited()) options.budget = &budget;
  const core::Pipeline pipeline(inference::MockLlmOptions{}, options);
  const core::PipelineResult result = pipeline.run(*ticket, source, run_options);
  std::printf("%s", core::render_markdown(result).c_str());
  if (options.budget != nullptr) {
    const std::string exhausted_note =
        budget.exhausted() ? " — exhausted: " + budget.exhausted_reason() : "";
    std::string schedule_note;
    if (budget.schedules() > 0)
      schedule_note =
          ", " + std::to_string(static_cast<long long>(budget.schedules())) + " schedules";
    std::printf(
        "_Budget: %lld SMT queries, %lld paths, %lld fork points, %lld steps%s%s; "
        "%d contract(s) inconclusive._\n",
        static_cast<long long>(budget.smt_queries()), static_cast<long long>(budget.paths()),
        static_cast<long long>(budget.fork_points()), static_cast<long long>(budget.steps()),
        schedule_note.c_str(), exhausted_note.c_str(), result.totals.inconclusive);
  }
  if (!trace_path.empty() &&
      !write_json_file(trace_path, obs::tracer().chrome_trace()))
    return 2;
  if (!metrics_path.empty() &&
      !write_json_file(metrics_path, obs::metrics().snapshot()))
    return 2;
  return result.all_passed() ? 0 : 1;
}

int cmd_profile(int argc, char** argv) {
  std::string selector;
  std::string trace_path;
  bool json_output = false;
  bool prom_output = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0)
      json_output = true;
    else if (std::strcmp(argv[i], "--prom") == 0)
      prom_output = true;
    else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
      trace_path = argv[++i];
    else if (argv[i][0] != '-' && selector.empty())
      selector = argv[i];
    else
      return usage();
  }
  if (selector.empty() || (json_output && prom_output)) return usage();

  std::vector<const corpus::FailureTicket*> tickets;
  if (selector == "all") {
    for (const corpus::FailureTicket& ticket : corpus::Corpus::all())
      tickets.push_back(&ticket);
  } else {
    tickets = corpus::Corpus::for_system(selector);
    if (tickets.empty()) {
      const corpus::FailureTicket* ticket = corpus::Corpus::find(selector);
      if (ticket != nullptr) tickets.push_back(ticket);
    }
  }
  if (tickets.empty()) {
    std::fprintf(stderr,
                 "'%s' names neither a system (zookeeper|hdfs|hbase|cassandra), a "
                 "case id, nor 'all'\n",
                 selector.c_str());
    return 2;
  }

  obs::tracer().set_enabled(true);
  obs::tracer().clear();
  obs::metrics().reset();
  const core::Pipeline pipeline;
  int violations = 0;
  for (const corpus::FailureTicket* ticket : tickets) {
    const core::PipelineResult result = pipeline.run(*ticket, ticket->patched_source);
    violations += result.total_violations();
  }
  const std::vector<obs::SpanRecord> spans = obs::tracer().snapshot();
  const obs::CostTable table = obs::build_cost_table(spans);

  if (prom_output) {
    // Scrape-ready exposition of the same registry the JSON snapshot reads.
    std::printf("%s", obs::metrics().render_prometheus().c_str());
  } else if (json_output) {
    support::JsonObject root;
    root["selector"] = selector;
    root["cases"] = tickets.size();
    root["violations"] = violations;
    root["profile"] = table.to_json();
    root["metrics"] = obs::metrics().snapshot();
    std::printf("%s\n", support::Json(std::move(root)).pretty().c_str());
  } else {
    std::printf("=== lisa profile: %s (%zu case%s, %zu spans) ===\n\n", selector.c_str(),
                tickets.size(), tickets.size() == 1 ? "" : "s", spans.size());
    std::printf("%s", table.render().c_str());
  }
  if (!trace_path.empty() &&
      !write_json_file(trace_path, obs::tracer().chrome_trace()))
    return 2;
  return 0;
}

int cmd_gate(const std::string& case_id, const std::string& path, int argc, char** argv) {
  const corpus::FailureTicket* ticket = require_case(case_id);
  if (ticket == nullptr) return 2;
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot read commit file %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();

  core::GateRunOptions run_options;
  support::BudgetLimits limits;
  std::string trace_path;
  std::string metrics_path;
  std::string report_dir;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
      trace_path = argv[++i];
    else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc)
      metrics_path = argv[++i];
    else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc)
      report_dir = argv[++i];
    else if (std::strcmp(argv[i], "--history-label") == 0 && i + 1 < argc)
      run_options.history_label = argv[++i];
    else if (std::strcmp(argv[i], "--drift-window") == 0 && i + 1 < argc)
      run_options.drift.window = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--drift-warn-only") == 0)
      run_options.drift.fail_gate = false;
    else if (std::strcmp(argv[i], "--schedule-warn-only") == 0)
      run_options.schedule_warn_only = true;
    else if (parse_run_flag(argc, argv, &i, &run_options) ||
             parse_budget_flag(argc, argv, &i, &limits)) {
      // consumed
    } else {
      return usage();
    }
  }
  if (run_options.history_path.empty() &&
      (!run_options.history_label.empty() || !run_options.drift.fail_gate)) {
    std::fprintf(stderr, "--history-label/--drift-* require --history <file>\n");
    return 2;
  }
  if (!run_flags_valid(run_options)) return 2;
  if (!trace_path.empty()) obs::tracer().set_enabled(true);

  const inference::SemanticsProposal proposal = inference::MockLlm().infer(*ticket);
  core::TranslationResult translation = core::translate(proposal, ticket->system);
  core::ContractStore store;
  store.add_all(std::move(translation.contracts));
  core::CheckOptions options;
  options.run_concolic = false;
  apply_schedule_limits(limits, &options);
  support::Budget budget(limits);
  if (!limits.unlimited()) options.budget = &budget;
  obs::ProvenanceLedger ledger;
  if (!report_dir.empty()) run_options.ledger = &ledger;
  const core::GateDecision decision =
      core::CiGate(options).evaluate(buffer.str(), store, run_options);
  std::printf("%s", core::render_markdown(decision).c_str());
  if (!report_dir.empty()) {
    std::error_code dir_error;
    std::filesystem::create_directories(report_dir, dir_error);
    if (dir_error) {
      std::fprintf(stderr, "cannot create %s: %s\n", report_dir.c_str(),
                   dir_error.message().c_str());
      return 2;
    }
    const std::string ledger_path = report_dir + "/ledger.jsonl";
    const std::string html_path = report_dir + "/report.html";
    if (!ledger.write_jsonl(ledger_path)) {
      std::fprintf(stderr, "cannot write %s\n", ledger_path.c_str());
      return 2;
    }
    if (!write_text_file(html_path, obs::render_ledger_html(ledger))) return 2;
    std::fprintf(stderr, "gate report: %s, %s\n", ledger_path.c_str(), html_path.c_str());
  }
  if (!trace_path.empty() &&
      !write_json_file(trace_path, obs::tracer().chrome_trace()))
    return 2;
  if (!metrics_path.empty() &&
      !write_json_file(metrics_path, obs::metrics().snapshot()))
    return 2;
  return decision.allowed ? 0 : 1;
}

int cmd_explain(const std::string& case_id, int argc, char** argv) {
  const corpus::FailureTicket* ticket = require_case(case_id);
  if (ticket == nullptr) return 2;
  std::string source = ticket->patched_source;
  std::string contract_id;
  std::string html_path;
  std::string ledger_path;
  bool json_output = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--latest") == 0) {
      if (ticket->latest_source.empty()) {
        std::fprintf(stderr, "case %s has no latest version\n", case_id.c_str());
        return 2;
      }
      source = ticket->latest_source;
    } else if (std::strcmp(argv[i], "--buggy") == 0) {
      source = ticket->buggy_source;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_output = true;
    } else if (std::strcmp(argv[i], "--html") == 0 && i + 1 < argc) {
      html_path = argv[++i];
    } else if (std::strcmp(argv[i], "--ledger") == 0 && i + 1 < argc) {
      ledger_path = argv[++i];
    } else if (argv[i][0] != '-' && contract_id.empty()) {
      contract_id = argv[i];
    } else {
      return usage();
    }
  }

  obs::ProvenanceLedger ledger;
  core::PipelineRunOptions run_options;
  run_options.ledger = &ledger;
  const core::Pipeline pipeline;
  const core::PipelineResult result = pipeline.run(*ticket, source, run_options);
  if (result.inference_failed) {
    std::fprintf(stderr, "inference failed: %s\n", result.inference_error.c_str());
    return 2;
  }
  if (!contract_id.empty() && ledger.find(contract_id) == nullptr) {
    std::fprintf(stderr, "no contract '%s' in this case; captured:", contract_id.c_str());
    for (const std::string& id : ledger.contract_ids())
      std::fprintf(stderr, " %s", id.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  if (json_output) {
    if (contract_id.empty()) {
      std::printf("%s\n", ledger.to_json().pretty().c_str());
    } else {
      std::printf("%s\n", ledger.find(contract_id)->to_json().pretty().c_str());
    }
  } else {
    for (const std::string& id : ledger.contract_ids()) {
      if (!contract_id.empty() && id != contract_id) continue;
      std::printf("%s", obs::render_capture_text(*ledger.find(id)).c_str());
    }
  }
  if (!html_path.empty() &&
      !write_text_file(html_path, obs::render_ledger_html(ledger)))
    return 2;
  if (!ledger_path.empty() && !ledger.write_jsonl(ledger_path)) {
    std::fprintf(stderr, "cannot write %s\n", ledger_path.c_str());
    return 2;
  }
  return result.all_passed() ? 0 : 1;
}

/// `lisa slice <case> [contract] [--buggy|--latest] [--json]`: the verdict
/// cone of each contract — the functions, statements, footprint, and write
/// sites the verdict can depend on, plus the slice fingerprint that keys
/// incremental re-checking. Deterministic: two runs print identical bytes.
int cmd_slice(const std::string& case_id, int argc, char** argv) {
  const corpus::FailureTicket* ticket = require_case(case_id);
  if (ticket == nullptr) return 2;
  std::string source = ticket->patched_source;
  std::string contract_id;
  bool json_output = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--latest") == 0) {
      if (ticket->latest_source.empty()) {
        std::fprintf(stderr, "case %s has no latest version\n", case_id.c_str());
        return 2;
      }
      source = ticket->latest_source;
    } else if (std::strcmp(argv[i], "--buggy") == 0) {
      source = ticket->buggy_source;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_output = true;
    } else if (argv[i][0] != '-' && contract_id.empty()) {
      contract_id = argv[i];
    } else {
      return usage();
    }
  }

  const inference::SemanticsProposal proposal = inference::MockLlm().infer(*ticket);
  core::TranslationResult translation = core::translate(proposal, ticket->system);
  if (!contract_id.empty()) {
    bool found = false;
    for (const core::SemanticContract& contract : translation.contracts)
      found = found || contract.id == contract_id;
    if (!found) {
      std::fprintf(stderr, "no contract '%s' in this case; translated:", contract_id.c_str());
      for (const core::SemanticContract& contract : translation.contracts)
        std::fprintf(stderr, " %s", contract.id.c_str());
      std::fprintf(stderr, "\n");
      return 2;
    }
  }

  const minilang::Program program = minilang::parse_checked(source);
  const staticcheck::Screener analysis(program);
  const staticcheck::SliceEngine& engine = analysis.slicer();

  support::JsonArray entries;
  for (const core::SemanticContract& contract : translation.contracts) {
    if (!contract_id.empty() && contract.id != contract_id) continue;
    const staticcheck::SliceRequest request =
        core::contract_slice_request(contract, /*run_concolic=*/true);
    const staticcheck::SliceResult slice = engine.slice(request);
    if (json_output) {
      support::JsonObject entry;
      entry["contract_id"] = contract.id;
      entry["target_fragment"] = contract.target_fragment;
      entry["fingerprint"] = slice.fingerprint;
      entry["degraded"] = slice.degraded;
      support::JsonArray footprint;
      for (const std::string& path : slice.footprint)
        footprint.push_back(support::Json(path));
      entry["footprint"] = support::Json(std::move(footprint));
      support::JsonArray targets;
      for (const std::string& target : slice.targets)
        targets.push_back(support::Json(target));
      entry["targets"] = support::Json(std::move(targets));
      support::JsonArray functions;
      for (const std::string& fn : slice.functions)
        functions.push_back(support::Json(fn));
      entry["functions"] = support::Json(std::move(functions));
      support::JsonArray statements;
      for (const staticcheck::SliceStatement& stmt : slice.statements) {
        support::JsonObject item;
        item["function"] = stmt.function;
        item["line"] = stmt.line;
        item["column"] = stmt.column;
        item["role"] = stmt.role;
        item["text"] = stmt.text;
        statements.push_back(support::Json(std::move(item)));
      }
      entry["statements"] = support::Json(std::move(statements));
      support::JsonArray writes;
      for (const staticcheck::SliceWriteSite& site : slice.footprint_writes) {
        support::JsonObject item;
        item["function"] = site.function;
        item["line"] = site.line;
        item["column"] = site.column;
        item["path"] = site.path;
        item["literal_construction"] = site.literal_construction;
        writes.push_back(support::Json(std::move(item)));
      }
      entry["footprint_writes"] = support::Json(std::move(writes));
      entries.push_back(support::Json(std::move(entry)));
      continue;
    }
    std::printf("contract %s target '%s'\n", contract.id.c_str(),
                contract.target_fragment.c_str());
    std::printf("  fingerprint %s%s\n", slice.fingerprint.c_str(),
                slice.degraded ? " (degraded: whole-program cone)" : "");
    if (!slice.footprint.empty()) {
      std::printf("  footprint:");
      for (const std::string& path : slice.footprint) std::printf(" %s", path.c_str());
      std::printf("\n");
    }
    for (const std::string& target : slice.targets)
      std::printf("  target %s\n", target.c_str());
    std::printf("  cone (%zu function(s)):", slice.functions.size());
    for (const std::string& fn : slice.functions) std::printf(" %s", fn.c_str());
    std::printf("\n");
    for (const staticcheck::SliceStatement& stmt : slice.statements)
      std::printf("  [%-7s] %s:%d:%d: %s\n", stmt.role.c_str(), stmt.function.c_str(),
                  stmt.line, stmt.column, stmt.text.c_str());
    for (const staticcheck::SliceWriteSite& site : slice.footprint_writes)
      std::printf("  write %s:%d:%d: %s%s\n", site.function.c_str(), site.line,
                  site.column, site.path.c_str(),
                  site.literal_construction ? " (literal construction)" : "");
    std::printf("\n");
  }
  if (json_output) {
    support::JsonObject root;
    root["case"] = case_id;
    root["contracts"] = support::Json(std::move(entries));
    std::printf("%s\n", support::Json(std::move(root)).pretty().c_str());
  }
  return 0;
}

/// `lisa diff`: what changed between two gate runs. Two ledger files give
/// the rich evidence-delta form; `--history <file> <i> <j>` diffs two
/// records of a run-history store by index. Deterministic: the same two
/// inputs always render identical bytes (asserted by scripts/check.sh).
/// Exits 1 on a verdict flip or a damaged ledger capture.
int cmd_diff(int argc, char** argv) {
  std::string history_path;
  std::string html_path;
  bool json_output = false;
  std::vector<std::string> positional;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--history") == 0 && i + 1 < argc)
      history_path = argv[++i];
    else if (std::strcmp(argv[i], "--json") == 0)
      json_output = true;
    else if (std::strcmp(argv[i], "--html") == 0 && i + 1 < argc)
      html_path = argv[++i];
    else if (argv[i][0] != '-')
      positional.push_back(argv[i]);
    else
      return usage();
  }
  if (positional.size() != 2) return usage();

  obs::DiffReport report;
  if (!history_path.empty()) {
    obs::RunHistory history(history_path);
    if (!history.load()) {
      std::fprintf(stderr, "cannot read history %s\n", history_path.c_str());
      return 2;
    }
    const std::vector<obs::RunRecord>& records = history.records();
    const long index_a = std::atol(positional[0].c_str());
    const long index_b = std::atol(positional[1].c_str());
    const long count = static_cast<long>(records.size());
    if (index_a < 0 || index_a >= count || index_b < 0 || index_b >= count) {
      std::fprintf(stderr, "history has %ld record(s); indices must be in [0, %ld)\n",
                   count, count);
      return 2;
    }
    report = obs::diff_runs(records[static_cast<std::size_t>(index_a)],
                            records[static_cast<std::size_t>(index_b)]);
  } else {
    obs::ProvenanceLedger ledger_a;
    obs::ProvenanceLedger ledger_b;
    if (!ledger_a.load_jsonl(positional[0])) {
      std::fprintf(stderr, "cannot read ledger %s\n", positional[0].c_str());
      return 2;
    }
    if (!ledger_b.load_jsonl(positional[1])) {
      std::fprintf(stderr, "cannot read ledger %s\n", positional[1].c_str());
      return 2;
    }
    report = obs::diff_ledgers(ledger_a, ledger_b);
  }
  if (json_output)
    std::printf("%s\n", report.to_json().pretty().c_str());
  else
    std::printf("%s", obs::render_diff_text(report).c_str());
  if (!html_path.empty() && !write_text_file(html_path, obs::render_diff_html(report)))
    return 2;
  return report.verdict_flips() > 0 || report.damaged_captures > 0 ? 1 : 0;
}

/// One-line unicode sparkline scaled to the series' own [min, max].
std::string sparkline(const std::vector<double>& values) {
  static const char* kGlyphs[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  double lo = values.empty() ? 0.0 : values.front();
  double hi = lo;
  for (const double value : values) {
    lo = std::min(lo, value);
    hi = std::max(hi, value);
  }
  std::string out;
  for (const double value : values) {
    const int index =
        hi > lo ? static_cast<int>((value - lo) / (hi - lo) * 7.0 + 0.5) : 3;
    out += kGlyphs[std::max(0, std::min(7, index))];
  }
  return out;
}

/// `lisa trends`: per-metric sparklines over each (kind, label) timeline of
/// a run-history store, plus the drift findings the newest record raises
/// against its own baseline.
int cmd_trends(int argc, char** argv) {
  std::string history_path;
  std::string kind_filter;
  std::string label_filter;
  std::string html_path;
  bool json_output = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--kind") == 0 && i + 1 < argc)
      kind_filter = argv[++i];
    else if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc)
      label_filter = argv[++i];
    else if (std::strcmp(argv[i], "--json") == 0)
      json_output = true;
    else if (std::strcmp(argv[i], "--html") == 0 && i + 1 < argc)
      html_path = argv[++i];
    else if (argv[i][0] != '-' && history_path.empty())
      history_path = argv[i];
    else
      return usage();
  }
  if (history_path.empty()) return usage();
  obs::RunHistory history(history_path);
  if (!history.load()) {
    std::fprintf(stderr, "cannot read history %s\n", history_path.c_str());
    return 2;
  }

  // Timelines in first-seen order; (kind, label) is the baseline key.
  std::vector<std::pair<std::string, std::string>> timelines;
  for (const obs::RunRecord& record : history.records()) {
    if (!kind_filter.empty() && record.kind != kind_filter) continue;
    if (!label_filter.empty() && record.label != label_filter) continue;
    const auto key = std::make_pair(record.kind, record.label);
    if (std::find(timelines.begin(), timelines.end(), key) == timelines.end())
      timelines.push_back(key);
  }

  support::JsonArray timeline_entries;
  std::string text;
  std::string html_body;
  for (const auto& [kind, label] : timelines) {
    const std::vector<const obs::RunRecord*> records = history.matching(kind, label);
    // Metric names across the whole timeline, sorted for determinism.
    std::map<std::string, std::vector<double>> series;
    for (const obs::RunRecord* record : records)
      for (const auto& [name, value] : record->metrics) series[name].push_back(value);
    std::vector<obs::DriftFinding> findings;
    if (records.size() >= 2) {
      const std::vector<const obs::RunRecord*> baseline(records.begin(),
                                                        records.end() - 1);
      findings = obs::detect_drift(baseline, *records.back());
    }

    if (json_output || !html_path.empty()) {
      support::JsonObject entry;
      entry["kind"] = kind;
      entry["label"] = label;
      entry["runs"] = static_cast<std::int64_t>(records.size());
      support::JsonObject metric_entries;
      for (const auto& [name, values] : series) {
        support::JsonObject metric;
        support::JsonArray value_entries;
        for (const double value : values) value_entries.push_back(support::Json(value));
        metric["values"] = support::Json(std::move(value_entries));
        metric["latest"] = values.back();
        metric["sparkline"] = sparkline(values);
        metric_entries[name] = support::Json(std::move(metric));
      }
      entry["metrics"] = support::Json(std::move(metric_entries));
      support::JsonArray finding_entries;
      for (const obs::DriftFinding& finding : findings)
        finding_entries.push_back(finding.to_json());
      entry["drift"] = support::Json(std::move(finding_entries));
      timeline_entries.push_back(support::Json(std::move(entry)));
    }
    text += "=== " + kind + " " + label + " (" + std::to_string(records.size()) +
            " run(s)) ===\n";
    for (const auto& [name, values] : series) {
      char line[224];
      std::snprintf(line, sizeof(line), "  %-20s %s  latest %.2f\n", name.c_str(),
                    sparkline(values).c_str(), values.back());
      text += line;
    }
    for (const obs::DriftFinding& finding : findings)
      text += std::string("  ") + (finding.fails_gate ? "[DRIFT] " : "[warn]  ") +
              finding.kind + " (" + finding.subject + "): " + finding.cause + "\n";
    text += "\n";
  }
  if (json_output) {
    support::JsonObject root;
    root["history"] = history_path;
    root["timelines"] = support::Json(std::move(timeline_entries));
    std::printf("%s\n", support::Json(std::move(root)).pretty().c_str());
  } else {
    std::printf("%s", text.c_str());
  }
  if (!html_path.empty()) {
    const std::string html = obs::html_page(
        "LISA gate trends",
        "pre{background:#f2f2f7;padding:1rem;border-radius:6px;overflow-x:auto}\n",
        "<pre>\n" + obs::html_escape(text) + "</pre>\n");
    if (!write_text_file(html_path, html)) return 2;
  }
  return 0;
}

int cmd_hunt() {
  int found = 0;
  for (const char* case_id :
       {"hbase-27671-snapshot-ttl", "hdfs-13924-observer-locations"}) {
    const corpus::FailureTicket* ticket = corpus::Corpus::find(case_id);
    const core::Pipeline pipeline;
    const core::PipelineResult result = pipeline.run(*ticket, ticket->latest_source);
    std::printf("%s\n", core::render_markdown(result).c_str());
    found += result.total_violations();
  }
  std::printf("total new findings: %d\n", found);
  return found > 0 ? 1 : 0;
}

int cmd_synth(const std::string& case_id) {
  const corpus::FailureTicket* ticket = require_case(case_id);
  if (ticket == nullptr) return 2;
  const inference::SemanticsProposal proposal = inference::MockLlm().infer(*ticket);
  core::TranslationResult translation = core::translate(proposal, ticket->system);
  if (translation.contracts.empty() || !translation.contracts[0].condition) {
    std::fprintf(stderr, "case has no state-predicate contract to synthesize for\n");
    return 2;
  }
  const core::SemanticContract& contract = translation.contracts[0];
  const minilang::Program program = minilang::parse_checked(ticket->patched_source);
  const analysis::CallGraph graph = analysis::CallGraph::build(program);
  analysis::TreeOptions tree_options;
  tree_options.contract_condition = contract.condition;
  // Unpruned: synthesis must satisfy every guard on the way to the target,
  // including those the contract does not mention.
  tree_options.prune_irrelevant = false;
  const analysis::ExecutionTree tree =
      analysis::build_execution_tree(program, graph, contract.target_fragment, tree_options);
  int produced = 0;
  int sequence = 1;
  for (const analysis::ExecutionPath& path : tree.paths) {
    const auto witness =
        concolic::synthesize_path_test(program, path, /*violating=*/true, sequence);
    if (!witness.has_value()) continue;
    ++sequence;
    const bool confirmed = concolic::replay_synthesized_test(
                               program, *witness, contract.target_fragment, contract.condition)
                               .reached;
    std::printf("// witness for %s (model %s) — %s\n%s\n",
                path.call_chain.front().c_str(), witness->model_text.c_str(),
                confirmed ? "CONFIRMED by concolic replay" : "unconfirmed",
                witness->source.c_str());
    if (confirmed) ++produced;
  }
  if (produced == 0)
    std::printf("// no synthesizable witness (state may be container-mediated; "
                "a human-authored test is needed)\n");
  return 0;
}

int cmd_explore(const std::string& case_id) {
  const corpus::FailureTicket* ticket = require_case(case_id);
  if (ticket == nullptr) return 2;
  const inference::SemanticsProposal proposal = inference::MockLlm().infer(*ticket);
  core::TranslationResult translation = core::translate(proposal, ticket->system);
  if (translation.contracts.empty() || !translation.contracts[0].condition) {
    std::fprintf(stderr, "case has no state-predicate contract to explore\n");
    return 2;
  }
  const core::SemanticContract& contract = translation.contracts[0];
  const minilang::Program program = minilang::parse_checked(ticket->patched_source);
  const concolic::ExplorationReport report =
      concolic::explore(program, contract.target_fragment, contract.condition);
  std::printf("exploring <%s> %s... over %zu path(s)\n\n", contract.condition_text.c_str(),
              contract.target_fragment.c_str(), report.paths.size());
  for (const concolic::ExploredPath& path : report.paths) {
    std::string chain;
    for (const std::string& fn : path.call_chain) {
      if (!chain.empty()) chain += " -> ";
      chain += fn;
    }
    std::printf("[%-19s] %s\n    %s\n", concolic::explored_verdict_name(path.verdict),
                chain.c_str(), path.detail.c_str());
    if (!path.test_source.empty()) std::printf("%s\n", path.test_source.c_str());
  }
  std::printf("summary: %d verified, %d violated, %d infeasible, %d need a human\n",
              report.verified, report.violated, report.infeasible, report.human_needed);
  return report.violated > 0 ? 1 : 0;
}

/// Lints one program version; prints diagnostics and returns the error count.
int lint_source(const std::string& label, const std::string& source) {
  minilang::Program program;
  try {
    program = minilang::parse_checked(source);
  } catch (const std::exception& error) {
    std::printf("%s: does not build: %s\n", label.c_str(), error.what());
    return 1;
  }
  const std::vector<staticcheck::Diagnostic> diagnostics =
      staticcheck::lint_program(program);
  int errors = 0;
  for (const staticcheck::Diagnostic& diagnostic : diagnostics) {
    std::printf("%s/%s\n", label.c_str(), diagnostic.render().c_str());
    if (diagnostic.severity == staticcheck::Severity::kError) ++errors;
  }
  if (diagnostics.empty()) std::printf("%s: clean\n", label.c_str());
  return errors;
}

/// Machine-readable lint: one entry per program plus aggregate counts.
/// Returns the error count, like lint_source.
int lint_source_json(const std::string& label, const std::string& source,
                     support::JsonArray* programs, int* warnings, int* notes) {
  support::JsonObject entry;
  entry["case"] = label;
  minilang::Program program;
  try {
    program = minilang::parse_checked(source);
  } catch (const std::exception& error) {
    entry["builds"] = false;
    entry["error"] = std::string(error.what());
    programs->push_back(support::Json(std::move(entry)));
    return 1;
  }
  entry["builds"] = true;
  const std::vector<staticcheck::Diagnostic> diagnostics =
      staticcheck::lint_program(program);
  int errors = 0;
  support::JsonArray rendered;
  for (const staticcheck::Diagnostic& diagnostic : diagnostics) {
    support::JsonObject item;
    item["function"] = diagnostic.function;
    item["line"] = diagnostic.loc.line;
    item["column"] = diagnostic.loc.column;
    item["severity"] = std::string(staticcheck::severity_name(diagnostic.severity));
    item["analysis"] = diagnostic.analysis;
    item["message"] = diagnostic.message;
    rendered.push_back(support::Json(std::move(item)));
    switch (diagnostic.severity) {
      case staticcheck::Severity::kError: ++errors; break;
      case staticcheck::Severity::kWarning: ++*warnings; break;
      case staticcheck::Severity::kNote: ++*notes; break;
    }
  }
  entry["diagnostics"] = support::Json(std::move(rendered));
  entry["errors"] = errors;
  programs->push_back(support::Json(std::move(entry)));
  return errors;
}

int cmd_lint(int argc, char** argv) {
  std::string case_id;
  bool use_buggy = false;
  bool use_latest = false;
  bool json_output = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--buggy") == 0)
      use_buggy = true;
    else if (std::strcmp(argv[i], "--latest") == 0)
      use_latest = true;
    else if (std::strcmp(argv[i], "--json") == 0)
      json_output = true;
    else if (argv[i][0] != '-' && case_id.empty())
      case_id = argv[i];
    else
      return usage();
  }
  if (use_buggy && use_latest) return usage();

  std::vector<const corpus::FailureTicket*> tickets;
  if (!case_id.empty()) {
    const corpus::FailureTicket* ticket = require_case(case_id);
    if (ticket == nullptr) return 2;
    tickets.push_back(ticket);
  } else {
    for (const corpus::FailureTicket& ticket : corpus::Corpus::all())
      tickets.push_back(&ticket);
  }

  int errors = 0;
  int warnings = 0;
  int notes = 0;
  support::JsonArray programs;
  int linted = 0;
  for (const corpus::FailureTicket* ticket : tickets) {
    const std::string& source = use_buggy    ? ticket->buggy_source
                                : use_latest ? ticket->latest_source
                                             : ticket->patched_source;
    if (source.empty()) {
      std::fprintf(stderr, "case %s has no such version\n", ticket->case_id.c_str());
      if (!case_id.empty()) return 2;
      continue;
    }
    ++linted;
    errors += json_output
                  ? lint_source_json(ticket->case_id, source, &programs, &warnings, &notes)
                  : lint_source(ticket->case_id, source);
  }
  if (json_output) {
    support::JsonObject root;
    root["programs"] = support::Json(std::move(programs));
    support::JsonObject summary;
    summary["programs"] = linted;
    summary["errors"] = errors;
    summary["warnings"] = warnings;
    summary["notes"] = notes;
    root["summary"] = support::Json(std::move(summary));
    std::printf("%s\n", support::Json(std::move(root)).pretty().c_str());
  }
  return errors > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "corpus") return cmd_corpus();
    if (command == "source" && argc >= 3) return cmd_source(argv[2], argc - 3, argv + 3);
    if (command == "prompt" && argc >= 3) return cmd_prompt(argv[2]);
    if (command == "infer" && argc >= 3) return cmd_infer(argv[2]);
    if (command == "check" && argc >= 3) return cmd_check(argv[2], argc - 3, argv + 3);
    if (command == "gate" && argc >= 4) return cmd_gate(argv[2], argv[3], argc - 4, argv + 4);
    if (command == "explain" && argc >= 3) return cmd_explain(argv[2], argc - 3, argv + 3);
    if (command == "slice" && argc >= 3) return cmd_slice(argv[2], argc - 3, argv + 3);
    if (command == "diff") return cmd_diff(argc - 2, argv + 2);
    if (command == "trends") return cmd_trends(argc - 2, argv + 2);
    if (command == "hunt") return cmd_hunt();
    if (command == "synth" && argc >= 3) return cmd_synth(argv[2]);
    if (command == "explore" && argc >= 3) return cmd_explore(argv[2]);
    if (command == "lint") return cmd_lint(argc - 2, argv + 2);
    if (command == "profile") return cmd_profile(argc - 2, argv + 2);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
  return usage();
}
