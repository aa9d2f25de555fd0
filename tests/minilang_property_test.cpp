// Property tests over randomly generated MiniLang programs:
//   * print→parse→print is a fixpoint (printer/parser agreement),
//   * generated programs pass the semantic checker,
//   * concolic replay (Interp plus the shadow layer) and plain concrete
//     replay agree on results, failure text and target arrivals — on the
//     generated programs and on every @test of the incident corpus.
#include <gtest/gtest.h>

#include "analysis/callgraph.hpp"
#include "concolic/engine.hpp"
#include "corpus/ticket.hpp"
#include "minilang/interp.hpp"
#include "minilang/parser.hpp"
#include "minilang/printer.hpp"
#include "minilang/sema.hpp"
#include "smt/minilang_bridge.hpp"
#include "support/rng.hpp"

namespace lisa::minilang {
namespace {

/// Generates a random but well-formed MiniLang program with one @test driver
/// that exercises arithmetic, branching, loops, struct state, a guarded
/// "operation" call, and — each with some probability — sync blocks,
/// try/throw, containers, spawn with wait/notify/join_all, a @blocking call
/// followed by now(), and recursion deeper than 200 frames.
class ProgramGenerator {
 public:
  explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    std::string out;
    out += "struct State { a: int; b: int; flag: bool; total: int; }\n\n";
    out += "fn operate(s: State, amount: int) -> int {\n"
           "  s.total = s.total + amount;\n"
           "  return s.total;\n"
           "}\n\n";
    out += "fn bump(s: State, n: int) {\n"
           "  sync (s) {\n"
           "    if (s.flag) {\n"
           "      wait(s);\n"
           "    }\n"
           "    s.total = s.total + n;\n"
           "    notify_all(s);\n"
           "  }\n"
           "}\n\n";
    out += "@blocking\nfn persist(s: State) {\n  s.b = s.b + 1;\n}\n\n";
    out += "fn depth(n: int) -> int {\n"
           "  if (n == 0) {\n"
           "    return 0;\n"
           "  }\n"
           "  return 1 + depth(n - 1);\n"
           "}\n\n";
    // A few worker functions with random bodies.
    const int workers = 2 + static_cast<int>(rng_.next_below(3));
    for (int i = 0; i < workers; ++i) out += worker(i);
    // The test driver calls each worker with random arguments.
    out += "@test\nfn test_driver() {\n";
    out += "  let s = new State { a: " + std::to_string(rng_.next_in(-5, 5)) +
           ", b: " + std::to_string(rng_.next_in(-5, 5)) +
           ", flag: " + (rng_.next_bool() ? "true" : "false") + ", total: 0 };\n";
    for (int i = 0; i < workers; ++i) {
      out += "  let r" + std::to_string(i) + " = worker" + std::to_string(i) + "(s, " +
             std::to_string(rng_.next_in(-8, 8)) + ");\n";
      out += "  print(\"r" + std::to_string(i) + "=\", r" + std::to_string(i) + ");\n";
    }
    if (rng_.next_bool(0.5)) {
      out += "  spawn bump(s, " + std::to_string(rng_.next_in(1, 5)) + ");\n";
      out += "  spawn bump(s, " + std::to_string(rng_.next_in(1, 5)) + ");\n";
      out += "  join_all();\n";
    }
    if (rng_.next_bool(0.5)) {
      const int calls = 1 + static_cast<int>(rng_.next_below(3));
      for (int i = 0; i < calls; ++i) out += "  persist(s);\n";
      out += "  assert(now() == " + std::to_string(5 * calls) +
             ", \"each blocking call advances the clock\");\n";
    }
    if (rng_.next_bool(0.5))
      out += "  assert(depth(" + std::to_string(rng_.next_in(201, 250)) + ") > 200);\n";
    out += "  print(\"total=\", s.total);\n";
    out += "}\n";
    return out;
  }

 private:
  std::string expr_over(const std::vector<std::string>& ints, int depth) {
    if (depth == 0 || rng_.next_bool(0.4)) {
      if (rng_.next_bool(0.5)) return ints[rng_.pick_index(ints.size())];
      return std::to_string(rng_.next_in(-9, 9));
    }
    static const char* ops[] = {"+", "-", "*"};
    return "(" + expr_over(ints, depth - 1) + " " + ops[rng_.next_below(3)] + " " +
           expr_over(ints, depth - 1) + ")";
  }

  std::string cond_over(const std::vector<std::string>& ints) {
    static const char* cmps[] = {"<", "<=", ">", ">=", "==", "!="};
    std::string out = expr_over(ints, 1) + " " + cmps[rng_.next_below(6)] + " " +
                      expr_over(ints, 1);
    if (rng_.next_bool(0.3)) out += rng_.next_bool() ? " && s.flag" : " || s.flag";
    return out;
  }

  std::string worker(int index) {
    std::vector<std::string> ints = {"x", "s.a", "s.b"};
    std::string body;
    const int statements = 2 + static_cast<int>(rng_.next_below(4));
    int locals = 0;
    const auto fresh = [&](const char* stem) {
      return stem + std::to_string(index) + "_" + std::to_string(locals++);
    };
    for (int i = 0; i < statements; ++i) {
      switch (rng_.next_below(7)) {
        case 0: {
          const std::string name = fresh("v");
          body += "  let " + name + " = " + expr_over(ints, 2) + ";\n";
          ints.push_back(name);
          break;
        }
        case 1:
          body += "  if (" + cond_over(ints) + ") {\n    s.a = " + expr_over(ints, 1) +
                  ";\n  } else {\n    s.b = " + expr_over(ints, 1) + ";\n  }\n";
          break;
        case 2: {
          // Bounded loop: a fresh counter guarantees termination.
          const std::string counter = fresh("i");
          body += "  let " + counter + " = 0;\n  while (" + counter + " < " +
                  std::to_string(1 + rng_.next_below(4)) + ") {\n    s.total = s.total + 1;\n    " +
                  counter + " = " + counter + " + 1;\n  }\n";
          break;
        }
        case 3:
          body += "  sync (s) {\n    if (" + cond_over(ints) + ") {\n      s.a = " +
                  expr_over(ints, 1) + ";\n    }\n  }\n";
          break;
        case 4:
          body += "  try {\n    if (" + cond_over(ints) + ") {\n      throw \"boom \" + " +
                  expr_over(ints, 1) + ";\n    }\n    s.b = " + expr_over(ints, 1) +
                  ";\n  } catch (e) {\n    s.total = s.total + len(e);\n  }\n";
          break;
        case 5: {
          const std::string list = fresh("l");
          const std::string map = fresh("m");
          body += "  let " + list + " = list_new();\n  push(" + list + ", " + expr_over(ints, 1) +
                  ");\n  let " + map + " = map_new();\n  put(" + map + ", \"k\", " +
                  expr_over(ints, 1) + ");\n  s.total = s.total + " + list + "[0] + get(" + map +
                  ", \"k\") + len(" + list + ");\n";
          break;
        }
        default:
          body += "  if (" + cond_over(ints) + ") {\n    operate(s, " + expr_over(ints, 1) +
                  ");\n  }\n";
          break;
      }
    }
    return "fn worker" + std::to_string(index) + "(s: State, x: int) -> int {\n" + body +
           "  return " + expr_over(ints, 1) + ";\n}\n\n";
  }

  support::Rng rng_;
};

class RandomProgram : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgram, PrintParsePrintIsFixpoint) {
  const std::string source = ProgramGenerator(static_cast<std::uint64_t>(GetParam())).generate();
  const Program once = parse(source);
  const std::string printed = program_text(once);
  const Program twice = parse(printed);
  EXPECT_EQ(printed, program_text(twice)) << source;
}

TEST_P(RandomProgram, GeneratedProgramsAreSemanticallyClean) {
  const std::string source = ProgramGenerator(static_cast<std::uint64_t>(GetParam())).generate();
  const Program program = parse(source);
  const auto diags = check(program);
  EXPECT_TRUE(diags.empty()) << source << "\nfirst: "
                             << (diags.empty() ? "" : diags[0].message);
}

TEST_P(RandomProgram, ConcolicEngineMatchesInterpreter) {
  const std::string source = ProgramGenerator(static_cast<std::uint64_t>(GetParam())).generate();
  const Program program = parse_checked(source);

  // Concrete replay, counting how often the target operation runs.
  struct CountCalls : ExecObserver {
    int operate_calls = 0;
    void on_call(const FuncDecl& fn) override {
      if (fn.name == "operate") ++operate_calls;
    }
  } counter;
  Interp interp(program);
  interp.set_observer(&counter);
  const bool interp_ok = interp.run_test("test_driver");
  const std::string interp_error = interp.last_error();

  concolic::Engine engine(program);
  concolic::CheckConfig config;
  const analysis::CallGraph graph = analysis::CallGraph::build(program);
  for (const analysis::StatementHeader* target : graph.targets("operate("))
    config.target_stmt_ids.push_back(target->stmt->id);
  config.contract = *smt::parse_condition("s.flag");
  const concolic::RunResult run = engine.run_test("test_driver", config);

  EXPECT_EQ(interp_ok, run.test_passed) << source << "\ninterp error: " << interp_error
                                        << "\nconcolic error: " << run.failure;
  if (!interp_ok) {
    EXPECT_EQ(interp_error, run.failure) << source;
  }
  EXPECT_EQ(static_cast<int>(run.hits.size()), counter.operate_calls) << source;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgram, ::testing::Range(1, 41));

// ---------------------------------------------------------------------------
// Differential: concolic replay must agree with concrete replay on every
// @test of the corpus (buggy, patched and latest).
// ---------------------------------------------------------------------------

class CorpusDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusDifferential, ConcolicMatchesInterpreterOnAllTests) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find(GetParam());
  ASSERT_NE(ticket, nullptr);
  const concolic::CheckConfig config;  // no target statement
  for (const std::string* source :
       {&ticket->buggy_source, &ticket->patched_source, &ticket->latest_source}) {
    if (source->empty()) continue;
    const Program program = parse_checked(*source);
    concolic::Engine engine(program);
    for (const FuncDecl* test : program.functions_with("test")) {
      Interp interp(program);
      const bool interp_ok = interp.run_test(test->name);
      const concolic::RunResult run = engine.run_test(test->name, config);
      EXPECT_EQ(interp_ok, run.test_passed) << ticket->case_id << " " << test->name
                                            << "\ninterp: " << interp.last_error()
                                            << "\nconcolic: " << run.failure;
      EXPECT_EQ(interp.last_error(), run.failure) << ticket->case_id << " " << test->name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCases, CorpusDifferential, ::testing::ValuesIn([] {
                           std::vector<std::string> ids;
                           for (const auto& ticket : corpus::Corpus::all())
                             ids.push_back(ticket.case_id);
                           return ids;
                         }()));

}  // namespace
}  // namespace lisa::minilang
