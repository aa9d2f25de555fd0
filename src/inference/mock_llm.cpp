#include "inference/mock_llm.hpp"

#include <chrono>
#include <set>
#include <thread>

#include "corpus/diff.hpp"
#include "minilang/builtins.hpp"
#include "minilang/parser.hpp"
#include "minilang/printer.hpp"
#include "minilang/sema.hpp"
#include "obs/metrics.hpp"
#include "support/faultpoint.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace lisa::inference {

using minilang::Expr;
using minilang::FuncDecl;
using minilang::Program;
using minilang::Stmt;
using minilang::StmtPtr;

namespace {

/// Collects the root identifiers of every access path in `expr`.
void collect_roots(const Expr& expr, std::set<std::string>& out) {
  if (expr.kind == Expr::Kind::kVar) {
    out.insert(expr.text);
    return;
  }
  if (expr.kind == Expr::Kind::kField) {
    // Descend to the path root.
    collect_roots(*expr.args[0], out);
    return;
  }
  for (const minilang::ExprPtr& arg : expr.args) collect_roots(*arg, out);
}

/// First call expression inside a statement (pre-order), or nullptr.
const Expr* first_call(const Expr& expr) {
  if (expr.kind == Expr::Kind::kCall) return &expr;
  for (const minilang::ExprPtr& arg : expr.args) {
    const Expr* found = first_call(*arg);
    if (found != nullptr) return found;
  }
  return nullptr;
}

const Expr* first_call_in_stmt(const Stmt& stmt) {
  if (stmt.expr) {
    const Expr* found = first_call(*stmt.expr);
    if (found != nullptr) return found;
  }
  if (stmt.expr2) {
    const Expr* found = first_call(*stmt.expr2);
    if (found != nullptr) return found;
  }
  return nullptr;
}

/// True if every statement of `body` exits the function or raises — the
/// early-exit guard shape.
bool is_early_exit_body(const std::vector<StmtPtr>& body) {
  if (body.empty()) return false;
  for (const StmtPtr& stmt : body)
    if (stmt->kind != Stmt::Kind::kThrow && stmt->kind != Stmt::Kind::kReturn) return false;
  return true;
}

/// Locates the block containing `needle` and its index within that block.
struct StmtContext {
  const std::vector<StmtPtr>* block = nullptr;
  std::size_t index = 0;
};

bool find_context(const std::vector<StmtPtr>& stmts, const Stmt* needle, StmtContext* out) {
  for (std::size_t i = 0; i < stmts.size(); ++i) {
    if (stmts[i].get() == needle) {
      out->block = &stmts;
      out->index = i;
      return true;
    }
    if (find_context(stmts[i]->body, needle, out)) return true;
    if (find_context(stmts[i]->else_body, needle, out)) return true;
  }
  return false;
}

/// Pre-order scan collecting early-exit guards that appear before `target`.
/// Returns false once `target` is reached (stopping the scan).
bool collect_preceding_guards(const std::vector<StmtPtr>& stmts, const Stmt* target,
                              const Stmt* skip,
                              std::vector<const Expr*>* guards) {
  for (const StmtPtr& stmt : stmts) {
    if (stmt.get() == target) return false;
    if (stmt.get() != skip && stmt->kind == Stmt::Kind::kIf &&
        is_early_exit_body(stmt->body) && stmt->else_body.empty()) {
      guards->push_back(stmt->expr.get());
    }
    if (!collect_preceding_guards(stmt->body, target, skip, guards)) return false;
    if (!collect_preceding_guards(stmt->else_body, target, skip, guards)) return false;
  }
  return true;
}

/// True if the expression (transitively) calls a blocking builtin.
bool contains_blocking_call(const Expr& expr, std::string* name) {
  if (expr.kind == Expr::Kind::kCall && minilang::is_blocking_builtin(expr.text)) {
    *name = expr.text;
    return true;
  }
  for (const minilang::ExprPtr& arg : expr.args)
    if (contains_blocking_call(*arg, name)) return true;
  return false;
}

std::string negate_text(const std::string& expr_text) { return "!(" + expr_text + ")"; }

/// True when the program contains at least one `sync` statement.
bool has_sync_stmt(const Program& program) {
  bool found = false;
  program.for_each_stmt([&](const FuncDecl&, const Stmt& stmt) {
    if (stmt.kind == Stmt::Kind::kSync) found = true;
  });
  return found;
}

/// True when the program contains at least one `spawn` statement — the
/// discriminator between interleaving tickets settled statically (lockset /
/// lock-order over entry points) and tickets whose bug only exists under a
/// real thread schedule (check-then-act, lost update, missed notify).
bool has_spawn_stmt(const Program& program) {
  bool found = false;
  program.for_each_stmt([&](const FuncDecl&, const Stmt& stmt) {
    if (stmt.kind == Stmt::Kind::kSpawn) found = true;
  });
  return found;
}

/// First field name read anywhere in `expr` (pre-order), or "".
std::string first_field_read(const Expr& expr) {
  if (expr.kind == Expr::Kind::kField) return expr.text;
  for (const minilang::ExprPtr& arg : expr.args) {
    std::string nested = first_field_read(*arg);
    if (!nested.empty()) return nested;
  }
  return "";
}

/// First `while` loop in `stmts` (recursive) whose body calls wait() — the
/// guarded-wait shape a missed-notify patch introduces.
const Stmt* find_wait_loop(const std::vector<StmtPtr>& stmts) {
  for (const StmtPtr& stmt : stmts) {
    if (stmt->kind == Stmt::Kind::kWhile) {
      for (const StmtPtr& inner : stmt->body) {
        const Expr* call = first_call_in_stmt(*inner);
        const minilang::Builtin* builtin =
            call != nullptr ? minilang::find_builtin(call->text) : nullptr;
        if (builtin != nullptr && builtin->sched == minilang::SchedOp::kWait) return stmt.get();
      }
    }
    const Stmt* nested = find_wait_loop(stmt->body);
    if (nested != nullptr) return nested;
    nested = find_wait_loop(stmt->else_body);
    if (nested != nullptr) return nested;
  }
  return nullptr;
}

/// First field name written by an assignment in `stmts` (recursive), or "".
std::string first_field_write(const std::vector<StmtPtr>& stmts) {
  for (const StmtPtr& stmt : stmts) {
    if (stmt->kind == Stmt::Kind::kAssign && stmt->expr &&
        stmt->expr->kind == Expr::Kind::kField)
      return stmt->expr->text;
    std::string nested = first_field_write(stmt->body);
    if (!nested.empty()) return nested;
    nested = first_field_write(stmt->else_body);
    if (!nested.empty()) return nested;
  }
  return "";
}

}  // namespace

std::string MockLlm::render_prompt(const corpus::FailureTicket& ticket) {
  const Program before = minilang::parse(ticket.buggy_source);
  const Program after = minilang::parse(ticket.patched_source);
  const corpus::ProgramDiff diff = corpus::diff_programs(before, after);
  std::string prompt =
      "You are an AI assistant that extracts violated low-level semantics from a "
      "past system failure.\n"
      "You will receive three inputs:\n"
      "  Failure description and developer discussion\n"
      "  Code patch (the diff)\n"
      "  Source code after the patch has been applied\n"
      "Steps: identify the root cause; identify the high-level semantics; identify "
      "the low-level semantics; translate it into one condition statement and one "
      "target statement; describe your reasoning; repeat for all unique checks.\n"
      "Output JSON: {\"high_level_semantics\": ..., \"low_level_semantics\": "
      "{\"description\", \"target_statement\", \"condition_statement\"}, "
      "\"reasoning\"}\n\n";
  prompt += "== Failure description ==\n" + ticket.description + "\n\n";
  prompt += "== Code patch ==\n" + corpus::render_diff(diff) + "\n";
  prompt += "== Patched source ==\n" + ticket.patched_source + "\n";
  return prompt;
}

SemanticsProposal MockLlm::infer(const corpus::FailureTicket& ticket) const {
  if (options_.latency_spike_ms > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(options_.latency_spike_ms));
  const support::FaultAction fault = support::faultpoint("infer.propose");
  if (fault == support::FaultAction::kFail || fault == support::FaultAction::kTimeout) {
    obs::metrics().counter("fault.infer.propose").add();
    throw InferenceError(ticket.case_id,
                         std::string("injected backend ") +
                             support::fault_action_name(fault),
                         /*transient=*/true);
  }
  if (transient_remaining_.load(std::memory_order_relaxed) > 0 &&
      transient_remaining_.fetch_sub(1, std::memory_order_relaxed) > 0)
    throw InferenceError(ticket.case_id, "transient backend error (configured fault)",
                         /*transient=*/true);
  bool malformed = fault == support::FaultAction::kMalformed;
  if (malformed) obs::metrics().counter("fault.infer.propose").add();
  if (malformed_remaining_.load(std::memory_order_relaxed) > 0 &&
      malformed_remaining_.fetch_sub(1, std::memory_order_relaxed) > 0)
    malformed = true;
  if (malformed) {
    // A structurally broken response: echoes the case but carries a
    // low-level semantics with no target or condition, which
    // validate_proposal rejects (the re-prompt path in infer_with_retry).
    SemanticsProposal bad;
    bad.case_id = ticket.case_id;
    bad.low_level.emplace_back();
    bad.reasoning = "(malformed response)";
    return bad;
  }

  const Program before = minilang::parse_checked(ticket.buggy_source);
  const Program after = minilang::parse_checked(ticket.patched_source);
  const corpus::ProgramDiff diff = corpus::diff_programs(before, after);

  SemanticsProposal proposal;
  proposal.case_id = ticket.case_id;
  std::string reasoning =
      "Root cause localized from the patch diff of " + ticket.case_id + ". ";

  // ---- Interleaving rule: missed notify fixed by a guarded wait loop -------
  // Lost-wakeup tickets on spawning programs are patched by moving the
  // check-and-wait under the monitor and re-checking in a loop; the
  // checkable rule is liveness — every schedule must eventually observe the
  // condition — which only the schedule explorer can decide.
  const bool spawning = has_spawn_stmt(before) || has_spawn_stmt(after);
  const bool notify_language =
      support::contains_ci(ticket.description, "notify") ||
      support::contains_ci(ticket.description, "wakeup") ||
      support::contains_ci(ticket.description, "signal");
  if (spawning && notify_language) {
    for (const corpus::DiffEntry& added : diff.added) {
      if (added.stmt->kind != Stmt::Kind::kSync || added.stmt->expr == nullptr)
        continue;
      const Stmt* loop = find_wait_loop(added.stmt->body);
      if (loop == nullptr || loop->expr == nullptr) continue;
      const std::string field = first_field_read(*loop->expr);
      if (field.empty()) continue;
      proposal.kind = corpus::SemanticsKind::kInterleavingSensitive;
      proposal.pattern = "eventually";
      proposal.high_level_semantics =
          "A waiter blocked on a condition must eventually observe it under "
          "every thread schedule: a wakeup signal that can land between the "
          "check and the wait is a lost-notify hang.";
      LowLevelSemantics low;
      low.description =
          "Under every interleaving, a thread that waits on '" + field +
          "' must eventually be woken and observe the condition; no schedule "
          "may strand the waiter after the signal has fired.";
      low.target_statement = "wait(";
      low.condition_statement = "eventually(" + field + ")";
      proposal.low_level.push_back(std::move(low));
      reasoning +=
          "The patch moved the check of '" + field +
          "' and the wait into one monitor region with a re-check loop; the "
          "generalized rule quantifies over schedules — the waiter must "
          "eventually proceed in every interleaving, not just the serial one.";
      proposal.reasoning = reasoning;
      return proposal;
    }
  }

  // ---- Interleaving rule: check-then-act / lost update made atomic ---------
  // Atomicity tickets on spawning programs are patched by wrapping the
  // multi-step access in a monitor; the rule quantifies over interleavings
  // (the region must appear indivisible in every schedule), so it is decided
  // by the schedule explorer, not the static lockset screen.
  const bool atomic_language =
      support::contains_ci(ticket.description, "check-then-act") ||
      support::contains_ci(ticket.description, "lost update") ||
      support::contains_ci(ticket.description, "read-modify-write") ||
      support::contains_ci(ticket.description, "atomic");
  if (spawning && atomic_language) {
    for (const corpus::DiffEntry& added : diff.added) {
      if (added.stmt->kind != Stmt::Kind::kSync || added.stmt->expr == nullptr)
        continue;
      const std::string monitor = minilang::expr_text(*added.stmt->expr);
      const std::string field = first_field_write(added.stmt->body);
      if (field.empty() || monitor.empty()) continue;
      proposal.kind = corpus::SemanticsKind::kInterleavingSensitive;
      proposal.pattern = "atomic";
      proposal.high_level_semantics =
          "A multi-step access of shared state must be indivisible: no other "
          "thread may observe or mutate the state between the check (or "
          "read) and the act (or write).";
      LowLevelSemantics low;
      low.description =
          "The region updating field '" + field + "' under monitor '" + monitor +
          "' must execute atomically in every interleaving; a schedule that "
          "interleaves another thread inside it is a violation.";
      low.target_statement = field;
      low.condition_statement = "atomic(" + monitor + ")";
      proposal.low_level.push_back(std::move(low));
      reasoning +=
          "The patch wrapped the multi-step update of '" + field +
          "' in sync (" + monitor +
          "); generalized from the patched site to atomicity of the region "
          "under every thread schedule, which serial replay cannot check.";
      proposal.reasoning = reasoning;
      return proposal;
    }
  }

  // ---- Interleaving rule: lock-order inversion fixed by the patch ----------
  // Deadlock tickets talk about lock ordering; the checkable rule is global
  // acyclicity of the acquisition-order graph, settled by the static
  // concurrency pass (staticcheck/concurrency.hpp).
  const bool deadlock_language =
      support::contains_ci(ticket.description, "deadlock") ||
      support::contains_ci(ticket.description, "lock order") ||
      support::contains_ci(ticket.description, "inversion");
  if (deadlock_language && has_sync_stmt(before)) {
    proposal.kind = corpus::SemanticsKind::kInterleavingSensitive;
    proposal.pattern = "lock_order_acyclic";
    proposal.high_level_semantics =
        "Threads must acquire monitors in one global order: any cycle in the "
        "lock-acquisition-order graph is a potential deadlock.";
    LowLevelSemantics low;
    low.description =
        "The lock-acquisition-order graph over every thread entry point must "
        "be acyclic; nested monitor acquisitions must follow a single global "
        "order.";
    low.target_statement = "sync (";
    low.condition_statement = "lock_order_acyclic";
    proposal.low_level.push_back(std::move(low));
    reasoning +=
        "The ticket describes threads waiting on each other's monitors; the "
        "patch re-establishes a single acquisition order, so the generalized "
        "rule is acyclicity of the global lock-order graph rather than the "
        "one inverted pair that was patched.";
    proposal.reasoning = reasoning;
    return proposal;
  }

  // ---- Interleaving rule: unguarded shared-field access (race) -------------
  // Race tickets are fixed by wrapping the access (or the call reaching it)
  // in a sync block; the rule is that every access of the field must hold
  // that monitor.
  const bool race_language = support::contains_ci(ticket.description, "race") ||
                             support::contains_ci(ticket.description, "atomicity");
  if (race_language) {
    for (const corpus::DiffEntry& added : diff.added) {
      if (added.stmt->kind != Stmt::Kind::kSync || added.stmt->expr == nullptr)
        continue;
      const std::string monitor = minilang::expr_text(*added.stmt->expr);
      // The guarded field: written directly in the new sync body, or inside
      // the first function the body calls (the patch wrapped the call).
      std::string field = first_field_write(added.stmt->body);
      if (field.empty()) {
        for (const StmtPtr& inner : added.stmt->body) {
          const Expr* call = first_call_in_stmt(*inner);
          if (call == nullptr) continue;
          const FuncDecl* callee = after.find_function(call->text);
          if (callee != nullptr) field = first_field_write(callee->body);
          if (!field.empty()) break;
        }
      }
      if (field.empty() || monitor.empty()) continue;
      proposal.kind = corpus::SemanticsKind::kInterleavingSensitive;
      proposal.pattern = "guarded_field";
      proposal.high_level_semantics =
          "Shared mutable state has one guard monitor: every thread must hold "
          "it across reads and writes of the guarded field.";
      LowLevelSemantics low;
      low.description = "Every access of field '" + field +
                        "' must execute while monitor '" + monitor +
                        "' is held; a write outside the monitor is a data race.";
      low.target_statement = field;
      low.condition_statement = "holds(" + monitor + ")";
      proposal.low_level.push_back(std::move(low));
      reasoning += "The patch wrapped the access to '" + field + "' in sync (" +
                   monitor +
                   "); generalized from the patched site to every access of "
                   "the field under the Eraser lockset discipline.";
      proposal.reasoning = reasoning;
      return proposal;
    }
  }

  // ---- Structural rule: blocking call moved out of a sync region ----------
  const bool blocking_language =
      support::contains_ci(ticket.description, "blocked") ||
      support::contains_ci(ticket.description, "blocking") ||
      support::contains_ci(ticket.description, "synchronized") ||
      support::contains_ci(ticket.description, "monitor");
  if (blocking_language) {
    for (const corpus::DiffEntry& removed : diff.removed) {
      std::string blocking_name;
      if (removed.stmt->expr == nullptr ||
          !contains_blocking_call(*removed.stmt->expr, &blocking_name))
        continue;
      proposal.kind = corpus::SemanticsKind::kStructuralPattern;
      proposal.pattern = "no_blocking_in_sync";
      proposal.high_level_semantics =
          "The request pipeline must never stall on I/O while holding a monitor: "
          "blocking calls are forbidden inside synchronized regions.";
      LowLevelSemantics low;
      low.description =
          "No blocking I/O (" + blocking_name + " and equivalents) may execute while a "
          "monitor is held; copy state under the lock and perform the I/O outside.";
      low.target_statement = blocking_name + "(";
      low.condition_statement = "sync_depth == 0";
      proposal.low_level.push_back(std::move(low));
      reasoning +=
          "The patch moved the blocking call " + blocking_name + " out of the "
          "synchronized block; generalized to the class of serialization patterns "
          "per the ticket discussion rather than the single function that was "
          "patched.";
      proposal.reasoning = reasoning;
      return proposal;
    }
  }

  // ---- State-predicate rules: added guards ---------------------------------
  proposal.kind = corpus::SemanticsKind::kStatePredicate;
  std::set<std::string> emitted;
  for (const corpus::DiffEntry& added : diff.added) {
    if (added.stmt->kind != Stmt::Kind::kIf) continue;
    const FuncDecl* fn = after.find_function(added.function);
    if (fn == nullptr) continue;

    std::string condition_text;
    const Stmt* target = nullptr;
    if (is_early_exit_body(added.stmt->body) && added.stmt->else_body.empty()) {
      // Early-exit shape: the protected statement follows the guard.
      StmtContext context;
      if (!find_context(fn->body, added.stmt, &context)) continue;
      for (std::size_t i = context.index + 1; i < context.block->size(); ++i) {
        if (first_call_in_stmt(*(*context.block)[i]) != nullptr) {
          target = (*context.block)[i].get();
          break;
        }
      }
      condition_text = negate_text(minilang::expr_text(*added.stmt->expr));
    } else {
      // Guard-wrap shape: the protected call sits inside the branch body.
      for (const StmtPtr& inner : added.stmt->body) {
        if (first_call_in_stmt(*inner) != nullptr) {
          target = inner.get();
          break;
        }
      }
      condition_text = minilang::expr_text(*added.stmt->expr);
    }
    if (target == nullptr) continue;

    // Condition completion: conjoin the negations of pre-existing early-exit
    // guards over the same variable roots that dominate the target.
    std::set<std::string> roots;
    collect_roots(*added.stmt->expr, roots);
    std::vector<const Expr*> preceding;
    collect_preceding_guards(fn->body, target, added.stmt, &preceding);
    std::string completed;
    for (const Expr* guard : preceding) {
      std::set<std::string> guard_roots;
      collect_roots(*guard, guard_roots);
      const bool shared = std::any_of(guard_roots.begin(), guard_roots.end(),
                                      [&](const std::string& r) { return roots.count(r) > 0; });
      if (!shared) continue;
      if (!completed.empty()) completed += " && ";
      completed += negate_text(minilang::expr_text(*guard));
    }
    if (!completed.empty()) completed += " && ";
    completed += condition_text;

    // Generalize the target from the concrete statement to the callee.
    const Expr* call = first_call_in_stmt(*target);
    const std::string target_fragment = call->text + "(";

    const std::string key = target_fragment + "|" + completed;
    if (!emitted.insert(key).second) continue;

    LowLevelSemantics low;
    low.description = "Before any call to " + call->text + ", the condition (" + completed +
                      ") must hold in the calling context.";
    low.target_statement = target_fragment;
    low.condition_statement = completed;
    proposal.low_level.push_back(std::move(low));
    reasoning += "Added guard `" + minilang::stmt_header_text(*added.stmt) + "` in " +
                 added.function + " protects `" + minilang::stmt_header_text(*target) +
                 "`; completed with dominating guards over the same state and "
                 "generalized to every call site of " +
                 call->text + ". ";
  }

  proposal.high_level_semantics =
      "After this fix, the " + ticket.system + " " + ticket.feature +
      " feature guarantees: " +
      (proposal.low_level.empty() ? std::string("(no checkable rule extracted)")
                                  : proposal.low_level.front().description);
  proposal.reasoning = reasoning;

  // ---- Noise injection (hallucination model for the §5 ablation) ----------
  if (options_.noise > 0.0) {
    support::Rng rng(options_.seed * 1315423911ULL + ticket.case_id.size());
    for (LowLevelSemantics& low : proposal.low_level) {
      if (!rng.next_bool(options_.noise)) continue;
      switch (rng.next_below(3)) {
        case 0: {  // drop the leading conjunct
          const std::size_t pos = low.condition_statement.find("&&");
          if (pos != std::string::npos)
            low.condition_statement =
                std::string(support::trim(low.condition_statement.substr(pos + 2)));
          break;
        }
        case 1:  // flip the whole condition
          low.condition_statement = negate_text(low.condition_statement);
          break;
        default:  // hallucinate a variable root
          low.condition_statement = support::replace_all(
              low.condition_statement, low.condition_statement.substr(0, 0), "");
          low.condition_statement = "ghost_flag && " + low.condition_statement;
          break;
      }
    }
  }
  return proposal;
}

}  // namespace lisa::inference
