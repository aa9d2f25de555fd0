// Unit tests for the MiniLang interpreter: evaluation, control flow,
// builtins, exceptions, the virtual clock, and the blocking observer.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>

#include "minilang/interp.hpp"
#include "minilang/sema.hpp"

namespace lisa::minilang {
namespace {

Value run(const std::string& body_program, const std::string& fn = "main",
          std::vector<Value> args = {}) {
  static std::vector<std::unique_ptr<Program>> keepalive;
  keepalive.push_back(std::make_unique<Program>(parse_checked(body_program)));
  Interp interp(*keepalive.back());
  return interp.call(fn, std::move(args));
}

TEST(Interp, ArithmeticAndComparison) {
  EXPECT_EQ(run("fn main() -> int { return (2 + 3) * 4 - 10 / 2; }").as_int(), 15);
  EXPECT_TRUE(run("fn main() -> bool { return 7 % 3 == 1; }").as_bool());
  EXPECT_TRUE(run("fn main() -> bool { return \"abc\" < \"abd\"; }").as_bool());
  EXPECT_EQ(run("fn main() -> string { return \"n=\" + 4; }").as_string(), "n=4");
}

TEST(Interp, ShortCircuitEvaluation) {
  // Division by zero on the right side must not evaluate when short-circuited.
  EXPECT_FALSE(
      run("fn main() -> bool { let x = 0; return x != 0 && 10 / x > 1; }").as_bool());
  EXPECT_TRUE(
      run("fn main() -> bool { let x = 0; return x == 0 || 10 / x > 1; }").as_bool());
}

TEST(Interp, WhileLoopAndBreakContinue) {
  const std::string program = R"(
fn main() -> int {
  let total = 0;
  let i = 0;
  while (true) {
    i = i + 1;
    if (i > 10) { break; }
    if (i % 2 == 0) { continue; }
    total = total + i;
  }
  return total;
}
)";
  EXPECT_EQ(run(program).as_int(), 25);  // 1+3+5+7+9
}

TEST(Interp, StructsAndFieldMutation) {
  const std::string program = R"(
struct Point { x: int; y: int; }
fn bump(p: Point) { p.x = p.x + 1; }
fn main() -> int {
  let p = new Point { x: 1, y: 2 };
  bump(p);
  bump(p);
  return p.x * 10 + p.y;
}
)";
  EXPECT_EQ(run(program).as_int(), 32);  // reference semantics
}

TEST(Interp, DefaultFieldInitialization) {
  const std::string program = R"(
struct S { n: int; b: bool; s: string; xs: list<int>; m: map<string, int>; ref: S?; }
fn main() -> bool {
  let s = new S {};
  return s.n == 0 && s.b == false && s.s == "" && len(s.xs) == 0 && len(s.m) == 0
      && s.ref == null;
}
)";
  EXPECT_TRUE(run(program).as_bool());
}

TEST(Interp, ListAndMapBuiltins) {
  const std::string program = R"(
fn main() -> int {
  let xs = list_new();
  push(xs, 10);
  push(xs, 20);
  xs[1] = 25;
  let m = map_new();
  put(m, "a", 1);
  put(m, 7, 2);
  let ks = keys(m);
  let total = xs[0] + xs[1] + len(ks);
  if (has(m, "a")) { total = total + get(m, "a"); }
  del(m, "a");
  if (get(m, "a") == null) { total = total + 100; }
  if (contains(xs, 25)) { total = total + 1000; }
  return total;
}
)";
  EXPECT_EQ(run(program).as_int(), 1138);
}

TEST(Interp, NullPointerBecomesMiniThrow) {
  const std::string program = R"(
struct S { x: int; }
fn main() -> int { let s: S? = null; return s.x; }
)";
  EXPECT_THROW(run(program), MiniThrow);
}

TEST(Interp, IndexOutOfBoundsThrows) {
  EXPECT_THROW(run("fn main() -> int { let xs = list_new(); return xs[0]; }"), MiniThrow);
}

TEST(Interp, DivideByZeroThrows) {
  EXPECT_THROW(run("fn main() -> int { let z = 0; return 1 / z; }"), MiniThrow);
}

TEST(Interp, TryCatchHandlesThrow) {
  const std::string program = R"(
fn risky(n: int) -> int {
  if (n > 2) { throw "too big"; }
  return n;
}
fn main() -> string {
  try {
    let v = risky(5);
    return "no throw";
  } catch (e) {
    return "caught: " + e;
  }
}
)";
  EXPECT_EQ(run(program).as_string(), "caught: too big");
}

TEST(Interp, UncaughtThrowEscapesToHost) {
  try {
    run("fn main() { throw \"kaboom\"; }");
    FAIL() << "expected MiniThrow";
  } catch (const MiniThrow& thrown) {
    EXPECT_EQ(thrown.value().as_string(), "kaboom");
  }
}

TEST(Interp, RecursionWorksAndDepthIsBounded) {
  const std::string fib = R"(
fn fib(n: int) -> int {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
)";
  Program program = parse_checked(fib);
  Interp interp(program);
  EXPECT_EQ(interp.call("fib", {Value::of_int(12)}).as_int(), 144);

  Program runaway = parse_checked("fn loop_forever(n: int) -> int { return loop_forever(n); }");
  Interp interp2(runaway);
  EXPECT_THROW(interp2.call("loop_forever", {Value::of_int(0)}), InterpError);
}

TEST(Interp, FuelLimitStopsInfiniteLoops) {
  Program program = parse_checked("fn main() { while (true) { advance_clock(1); } }");
  Interp interp(program);
  interp.set_fuel(10'000);
  EXPECT_THROW(interp.call("main", {}), InterpError);
}

TEST(Interp, VirtualClockAdvances) {
  Program program = parse_checked(R"(
fn main() -> int {
  let t0 = now();
  advance_clock(250);
  write_record(t0, "x");
  return now() - t0;
}
)");
  Interp interp(program);
  interp.set_blocking_latency_ms(7);
  EXPECT_EQ(interp.call("main", {}).as_int(), 257);
}

class BlockingObserver : public ExecObserver {
 public:
  void on_blocking(const std::string& name, int sync_depth) override {
    events.emplace_back(name, sync_depth);
  }
  std::vector<std::pair<std::string, int>> events;
};

TEST(Interp, ObserverSeesBlockingInsideSync) {
  Program program = parse_checked(R"(
struct Lock { id: int; }
fn main() {
  let l = new Lock { id: 1 };
  write_record(l, "outside");
  sync (l) {
    write_record(l, "inside");
  }
}
)");
  Interp interp(program);
  BlockingObserver observer;
  interp.set_observer(&observer);
  interp.call("main", {});
  ASSERT_EQ(observer.events.size(), 2u);
  EXPECT_EQ(observer.events[0].second, 0);
  EXPECT_EQ(observer.events[1].second, 1);
}

TEST(Interp, PrintAccumulatesOutput) {
  Program program = parse_checked(R"(fn main() { print("a", 1); print("b"); })");
  Interp interp(program);
  interp.call("main", {});
  EXPECT_EQ(interp.take_output(), "a 1\nb\n");
  EXPECT_EQ(interp.take_output(), "");
}

TEST(Interp, RunAllTestsCountsPassAndFail) {
  Program program = parse_checked(R"(
@test
fn test_ok() { assert(1 + 1 == 2, "math"); }
@test
fn test_fails() { assert(false, "expected failure"); }
fn helper() {}
)");
  Interp interp(program);
  const auto [passed, failed] = interp.run_all_tests();
  EXPECT_EQ(passed, 1);
  EXPECT_EQ(failed, 1);
  EXPECT_NE(interp.last_error().find("expected failure"), std::string::npos);
}

TEST(Interp, CoverageTracksExecutedStatements) {
  Program program = parse_checked(R"(
fn main(flag: bool) -> int {
  if (flag) {
    return 1;
  }
  return 2;
}
)");
  struct Coverage final : ExecObserver {
    void on_stmt(const FuncDecl& fn, const Stmt& stmt) override {
      (void)fn;
      ids.insert(stmt.id);
    }
    std::unordered_set<int> ids;
  } coverage;
  Interp interp(program);
  interp.set_observer(&coverage);
  interp.call("main", {Value::of_bool(true)});
  const std::size_t after_true = coverage.ids.size();
  interp.call("main", {Value::of_bool(false)});
  EXPECT_GT(coverage.ids.size(), after_true);
}

TEST(Interp, MethodSugarDispatch) {
  const std::string program = R"(
struct Counter { n: int; }
fn inc(c: Counter, by: int) -> int {
  c.n = c.n + by;
  return c.n;
}
fn main() -> int {
  let c = new Counter { n: 5 };
  return c.inc(3);
}
)";
  EXPECT_EQ(run(program).as_int(), 8);
}

TEST(Interp, SyncDepthRestoredOnReturnAndThrow) {
  Program program = parse_checked(R"(
struct L { id: int; }
fn leaves_sync_by_return(l: L) -> int {
  sync (l) {
    return 1;
  }
}
fn leaves_sync_by_throw(l: L) {
  sync (l) {
    throw "out";
  }
}
fn main() -> int {
  let l = new L { id: 1 };
  let a = leaves_sync_by_return(l);
  try {
    leaves_sync_by_throw(l);
  } catch (e) {
    a = a + 1;
  }
  // If sync depth leaked, this blocking call would look "inside sync".
  write_record(l, "x");
  return a;
}
)");
  Interp interp(program);
  BlockingObserver observer;
  interp.set_observer(&observer);
  EXPECT_EQ(interp.call("main", {}).as_int(), 2);
  ASSERT_EQ(observer.events.size(), 1u);
  EXPECT_EQ(observer.events[0].second, 0);
}

TEST(Interp, BreakOutOfSyncInsideLoopBalances) {
  Program program = parse_checked(R"(
struct L { id: int; }
fn main() -> int {
  let l = new L { id: 1 };
  let i = 0;
  while (i < 5) {
    sync (l) {
      if (i == 2) { break; }
    }
    i = i + 1;
  }
  write_record(l, "after");
  return i;
}
)");
  Interp interp(program);
  BlockingObserver observer;
  interp.set_observer(&observer);
  EXPECT_EQ(interp.call("main", {}).as_int(), 2);
  ASSERT_EQ(observer.events.size(), 1u);
  EXPECT_EQ(observer.events[0].second, 0);
}

TEST(Interp, ContinueInsideSyncBalancesMonitors) {
  Program program = parse_checked(R"(
struct L { id: int; }
fn main() -> int {
  let l = new L { id: 1 };
  let i = 0;
  let work = 0;
  while (i < 4) {
    i = i + 1;
    sync (l) {
      if (i % 2 == 0) { continue; }
      work = work + 1;
    }
  }
  fsync_log(l);
  return work;
}
)");
  Interp interp(program);
  BlockingObserver observer;
  interp.set_observer(&observer);
  EXPECT_EQ(interp.call("main", {}).as_int(), 2);
  ASSERT_EQ(observer.events.size(), 1u);
  EXPECT_EQ(observer.events[0].second, 0);  // monitors released by continue
}

TEST(Interp, NestedTryRethrowReachesOuter) {
  const std::string program = R"(
fn main() -> string {
  try {
    try {
      throw "inner";
    } catch (e) {
      throw "re: " + e;
    }
  } catch (e2) {
    return e2;
  }
}
)";
  EXPECT_EQ(run(program).as_string(), "re: inner");
}

TEST(Interp, HandlerInCallerCatchesCalleeThrow) {
  const std::string program = R"(
fn deep(n: int) -> int {
  if (n == 0) { throw "bottom"; }
  return deep(n - 1);
}
fn main() -> string {
  try {
    deep(5);
    return "no throw";
  } catch (e) {
    return "caught " + e;
  }
}
)";
  EXPECT_EQ(run(program).as_string(), "caught bottom");
}

/// The message of the InterpError that `program`'s main raises, or "".
std::string engine_error(const std::string& program) {
  try {
    run(program);
  } catch (const InterpError& error) {
    return error.what();
  }
  return "";
}

TEST(Interp, TypeConfusionIsATypedEngineError) {
  // Each of these used to escape as std::bad_variant_access.
  EXPECT_EQ(engine_error(R"(fn main() -> int { return min("a", 1); })"), "min() on non-int");
  EXPECT_EQ(engine_error(R"(fn main() -> int { return abs(true); })"), "abs() on non-int");
  EXPECT_EQ(engine_error(R"(fn main() { advance_clock("soon"); })"),
            "advance_clock() on non-int");
  EXPECT_EQ(engine_error(R"(fn main() { let m = map_new(); put(m, true, 1); })"),
            "put() on non-string-or-int key");
  EXPECT_EQ(engine_error(R"(fn main() { let l = list_new(); push(l, 1); let x = l["0"]; })"),
            "list index is not an int");
  EXPECT_EQ(engine_error(R"(fn main() { let l = list_new(); push(l, 1); l[null] = 2; })"),
            "list index is not an int");
  EXPECT_EQ(engine_error(R"(fn main() { let m = map_new(); let x = m[true]; })"),
            "map key is not a string or int");
  // Misuse that was already typed keeps its message; valid calls keep working.
  EXPECT_EQ(engine_error(R"(fn main() { let m = map_new(); push(m, 1); })"),
            "push() on non-list");
  EXPECT_EQ(engine_error(R"(fn main() { let x = len(1); })"), "len() on non-container");
  EXPECT_EQ(engine_error(R"(fn main() { let x = min(1); })"), "builtin min expects 2 args");
  EXPECT_EQ(run(R"(fn main() -> int { let m = map_new(); put(m, 7, 3); return get(m, "7"); })")
                .as_int(),
            3);
}

TEST(Interp, MinIntDividedByMinusOneWrapsLikeJava) {
  EXPECT_EQ(run("fn main() -> int { return (0 - 9223372036854775807 - 1) / (0 - 1); }").as_int(),
            INT64_MIN);
  EXPECT_EQ(run("fn main() -> int { return (0 - 9223372036854775807 - 1) % (0 - 1); }").as_int(),
            0);
  EXPECT_EQ(run("fn main() -> int { return 7 / (0 - 1); }").as_int(), -7);
  EXPECT_EQ(run("fn main() -> int { return (0 - 7) % 3; }").as_int(), -1);
}

TEST(Interp, IntArithmeticWrapsLikeJava) {
  const std::string max = "let x = 9223372036854775807; ";
  EXPECT_TRUE(run("fn main() -> bool { " + max + "return x + 1 < 0; }").as_bool());
  EXPECT_TRUE(run("fn main() -> bool { " + max + "return -x - 2 == x; }").as_bool());
  EXPECT_EQ(run("fn main() -> int { " + max + "return x * 2; }").as_int(), -2);
  EXPECT_EQ(run("fn main() -> int { " + max + "return -(-x - 1); }").as_int(), INT64_MIN);
  EXPECT_EQ(run("fn main() -> int { " + max + "return abs(-x - 1); }").as_int(), INT64_MIN);
  // The virtual clock wraps the same way, by advance_clock or a blocking call.
  EXPECT_EQ(run("fn main() -> int { " + max + "advance_clock(x); advance_clock(1); return now(); }")
                .as_int(),
            INT64_MIN);
  EXPECT_TRUE(run("fn main() -> bool { " + max + "advance_clock(x); write_record(1, \"r\"); "
                  "return now() < 0; }")
                  .as_bool());
}

/// Records the executing thread's call stack and sync depth at each statement.
class StackObserver final : public ExecObserver {
 public:
  bool wants_state() override { return true; }
  void on_state(const FuncDecl& fn, const Stmt& stmt, StateAccess& state) override {
    (void)fn, (void)stmt;
    stack.clear();
    for (const FuncDecl* call : state.call_stack()) stack.push_back(call->name);
    sync_depth = state.sync_depth();
  }
  std::vector<std::string> stack;
  int sync_depth = -1;
};

TEST(Interp, CallAndSyncStateRestoredAfterManyCaughtThrows) {
  // Each throw leaves two calls and a sync. 300 of them would pass the
  // 256-call depth limit if a call's depth outlived its exception.
  Program program = parse_checked(R"(
struct L { id: int; }
fn inner(l: L) {
  sync (l) {
    throw "boom";
  }
}
fn outer(l: L) {
  inner(l);
}
fn main() -> int {
  let l = new L { id: 1 };
  let caught = 0;
  while (caught < 300) {
    try {
      outer(l);
    } catch (e) {
      caught = caught + 1;
    }
  }
  return caught;
}
)");
  Interp interp(program);
  StackObserver observer;
  interp.set_observer(&observer);
  EXPECT_EQ(interp.call("main", {}).as_int(), 300);
  // The last statement observed is main's return, after the loop.
  EXPECT_EQ(observer.stack, std::vector<std::string>{"main"});
  EXPECT_EQ(observer.sync_depth, 0);
}

}  // namespace
}  // namespace lisa::minilang
