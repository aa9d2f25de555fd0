// Interprocedural function summaries — SCC-ordered effect inference.
//
// Every analysis in analyses.hpp goes blind at a call without these: a call
// kills all heap facts, any tracked object passed as an argument "escapes",
// and only the coarse syntactic `reaches_blocking` bit survives. This module
// computes, per MiniLang function:
//
//   * MOD/REF sets — field names the function (transitively) writes / reads,
//     plus the parameter indices it may write through, so callers havoc only
//     what the callee can actually touch;
//   * may-throw / may-block and the net monitor effect on normal return and
//     on throw unwind (block-structured `sync` makes both zero; the summary
//     proves it instead of assuming it);
//   * nullness transfer — return nullability and param-rooted facts that
//     hold on every normal return (a callee that null-checks its parameter
//     makes the caller's argument non-null after the call);
//   * return-value intervals, iterated to a widened fixpoint on recursive
//     SCCs (bottom-up over the Tarjan condensation, callees before callers);
//   * top-down boundary facts — for non-entry functions, the join of every
//     call site's argument state, so analyses of a helper start from what
//     its callers actually pass.
//
// Builtins have no bodies; they get a fixed effect table (container
// mutators write through their container argument, everything else is
// effect-free on user heap). All analyses accept a `const SummaryMap*`;
// passing nullptr reproduces the PR 2 havoc-everything behaviour, which is
// the ablation baseline in bench_static_screening.
#pragma once

#include <compare>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/callgraph.hpp"
#include "staticcheck/analyses.hpp"

namespace lisa::staticcheck {

/// Source anchor for concurrency facts (function + position). Kept tiny so
/// summary sets stay cheap to compare in the fixpoint.
struct SummarySite {
  std::string function;
  int line = 0;
  int column = 0;

  auto operator<=>(const SummarySite&) const = default;
};

/// One observed lock-acquisition ordering: `second` is acquired while
/// `first` is held. `function`/`line`/`column` locate the *inner*
/// acquisition; `via` names the one-hop callee the edge was imported
/// through (empty for a direct nested `sync`). Storing only one hop keeps
/// the edge set finite on recursive SCCs.
struct LockOrderEdge {
  std::string first;   // monitor already held (caller namespace)
  std::string second;  // monitor acquired under it
  std::string function;
  int line = 0;
  int column = 0;
  std::string via;

  auto operator<=>(const LockOrderEdge&) const = default;
};

/// One shared-field access with the must-held lockset in force when it
/// executes. `base` is the access path of the owning object ("store" for
/// `store.pending`), rewritten into the caller's namespace on import.
struct FieldAccessSite {
  std::string function;
  int line = 0;
  int column = 0;
  bool is_write = false;
  std::string base;
  std::set<std::string> lockset;  // must-held monitors at the access

  auto operator<=>(const FieldAccessSite&) const = default;
};

/// Everything the summary knows about accesses to one field name.
struct FieldLockSummary {
  std::set<FieldAccessSite> sites;
  /// Set when the site cap dropped accesses; consumers must not prove
  /// safety from a truncated set.
  bool truncated = false;

  bool operator==(const FieldLockSummary& other) const {
    return sites == other.sites && truncated == other.truncated;
  }
};

struct FunctionSummary {
  enum class Nullability { kUnknown, kNonNull, kNull };

  // --- effects (field-name abstraction, matching write_kills) ---
  std::set<std::string> mod_fields;   // fields possibly written, transitively
  std::set<std::string> ref_fields;   // fields possibly read, transitively
  std::set<std::size_t> mod_params;   // params the callee may write through
                                      // (or store into a container)
  bool opaque_effects = false;        // calls something with unknown effects

  // --- exceptional / blocking behaviour ---
  bool may_throw = false;  // an uncaught throw can leave the function
  bool may_block = false;  // a blocking call is CFG-reachable from entry
  int net_monitor_normal = 0;  // monitors held at normal return minus entry
  int net_monitor_throw = 0;   // same along throw unwinds out of the function

  // --- nullness / interval transfer ---
  Nullability return_nullness = Nullability::kUnknown;
  /// Param-rooted facts holding on every normal return ("s" or "s.session"),
  /// valid only because MiniLang callees cannot rebind caller locals and the
  /// summary drops params the callee itself rebinds.
  std::map<std::string, NullFact> nullness_on_return;
  /// Over-approximation of every returned integer; top when unknown, empty
  /// (lo > hi) while a recursive fixpoint is still climbing.
  Interval return_interval;

  // --- top-down boundary facts (join over every call site) ---
  std::map<std::string, NullFact> boundary_nullness;
  std::map<std::string, Interval> boundary_intervals;

  // --- concurrency (entry-relative, transitive through calls) ---
  /// Monitors the function (or a callee) may acquire, keyed by canonical
  /// monitor path in this function's namespace; the value locates the
  /// innermost acquisition site.
  std::map<std::string, SummarySite> acquired_locks;
  /// Lock-acquisition orderings observed in this function or imported from
  /// callees (monitor names rewritten through the call's arguments).
  std::set<LockOrderEdge> lock_order_edges;
  /// Shared-field accesses with their must-held locksets.
  std::map<std::string, FieldLockSummary> field_locks;
  /// Set when the fixpoint degraded to conservative (or a callee did):
  /// the concurrency sets above are incomplete and must not prove safety.
  bool concurrency_degraded = false;
};

/// What a single call may do to the caller's state. Derived from the callee
/// summary (or the builtin effect table) by `SummaryMap::effect_of`.
struct CallEffect {
  /// Unknown callee or opaque effects: kill every heap fact, escape every
  /// argument — the legacy conservative rule.
  bool havoc_all = false;
  /// Valid when !havoc_all: fields whose facts the call kills.
  const std::set<std::string>* mod_fields = nullptr;
  /// Valid when !havoc_all: argument indices that may be written through.
  const std::set<std::size_t>* mod_params = nullptr;
  /// Container mutators (put/push/del) write through or store every
  /// argument, but cannot write struct fields — field facts survive.
  bool writes_all_params = false;

  [[nodiscard]] bool kills_field(const std::string& field) const {
    return havoc_all || (mod_fields != nullptr && mod_fields->count(field) > 0);
  }
  [[nodiscard]] bool writes_param(std::size_t index) const {
    return havoc_all || writes_all_params ||
           (mod_params != nullptr && mod_params->count(index) > 0);
  }
};

class SummaryMap {
 public:
  struct Stats {
    int components = 0;
    int recursive_components = 0;
    /// Extra fixpoint rounds spent on recursive components (0 when the
    /// program is call-acyclic).
    int fixpoint_iterations = 0;
    double elapsed_ms = 0.0;
  };

  /// Computes summaries for every function of `program`, bottom-up over the
  /// call-graph condensation. `program` must outlive the map.
  [[nodiscard]] static SummaryMap compute(const minilang::Program& program,
                                          const analysis::CallGraph& graph);

  /// Summary of a user-defined function, or nullptr (builtins, unknown, or
  /// a function whose component compute() has not reached yet).
  [[nodiscard]] const FunctionSummary* find(const std::string& name) const;
  /// The same, by declaration: `fn` is a function of the program (the
  /// summary is its name's, as find(fn->name) would return) or nullptr,
  /// as for a builtin's Expr::callee. Looks up by position, not by name.
  [[nodiscard]] const FunctionSummary* find(const minilang::FuncDecl* fn) const;

  /// Call-site effect of calling `callee`, builtins included.
  [[nodiscard]] CallEffect effect_of(const std::string& callee) const;
  /// The same for a call expression, through its resolved Expr::callee.
  [[nodiscard]] CallEffect effect_of(const minilang::Expr& call) const;

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  [[nodiscard]] CallEffect effect(const minilang::FuncDecl* callee,
                                  std::string_view name) const;
  [[nodiscard]] std::size_t position(const minilang::FuncDecl& fn) const {
    return slot_[static_cast<std::size_t>(&fn - program_->functions.data())];
  }

  const minilang::Program* program_ = nullptr;
  /// By function position: the summary, and whether compute() has reached
  /// it. Only the first function of each name is summarized; `slot_` maps
  /// every position to that function's (CallGraph::function_index).
  std::vector<FunctionSummary> summaries_;
  std::vector<char> summarized_;
  std::vector<std::size_t> slot_;
  Stats stats_;
};

}  // namespace lisa::staticcheck
