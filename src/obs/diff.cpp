#include "obs/diff.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "support/strings.hpp"

namespace lisa::obs {

using support::Json;
using support::JsonArray;
using support::JsonObject;

namespace {

std::string or_absent(const std::string& verdict) {
  return verdict.empty() ? "(absent)" : verdict;
}

/// Stable identity of one static path inside a report: call chain plus
/// target statement. Two runs explored "the same path" iff the keys match.
std::string path_key(const PathReport& path) {
  return support::join(path.call_chain, " -> ") + " #" + std::to_string(path.target_stmt_id);
}

/// Evidence-chain delta notes between two captures of the same contract,
/// in fixed rule order so the report is byte-stable.
std::vector<std::string> capture_notes(const ContractCapture& a, const ContractCapture& b) {
  std::vector<std::string> notes;
  const ContractCheckReport& ra = a.report;
  const ContractCheckReport& rb = b.report;

  if (ra.screen_verdict != rb.screen_verdict || ra.screen_reason != rb.screen_reason)
    notes.push_back("screen: " + or_absent(ra.screen_verdict) +
                    (ra.screen_reason.empty() ? "" : " (" + ra.screen_reason + ")") + " -> " +
                    or_absent(rb.screen_verdict) +
                    (rb.screen_reason.empty() ? "" : " (" + rb.screen_reason + ")"));
  if (ra.slice_fp != rb.slice_fp)
    notes.push_back("slice fingerprint: " + or_absent(ra.slice_fp) + " -> " +
                    or_absent(rb.slice_fp));

  // Paths: keyed by chain + target; verdict changes, appearances, vanishings.
  std::map<std::string, const PathReport*> paths_a;
  std::map<std::string, const PathReport*> paths_b;
  for (const PathReport& path : ra.paths) paths_a[path_key(path)] = &path;
  for (const PathReport& path : rb.paths) paths_b[path_key(path)] = &path;
  for (const auto& [key, path] : paths_a) {
    const std::string verdict = path_verdict_name(path->verdict);
    const auto it = paths_b.find(key);
    if (it == paths_b.end()) {
      notes.push_back("path vanished: " + key + " [" + verdict + "]");
    } else if (path->verdict != it->second->verdict) {
      std::string note = "path " + key + ": " + verdict + " -> " +
                         path_verdict_name(it->second->verdict);
      if (!it->second->counterexample.empty())
        note += " (counterexample " + it->second->counterexample + ")";
      notes.push_back(std::move(note));
    }
  }
  for (const auto& [key, path] : paths_b)
    if (paths_a.find(key) == paths_a.end())
      notes.push_back("path appeared: " + key + " [" + path_verdict_name(path->verdict) + "]");

  // SMT queries: keyed by content digest. A digest present on both sides
  // with a different status is a changed solver outcome — the strongest
  // "same question, different answer" signal a diff can surface.
  std::map<std::string, std::string> smt_a;  // digest -> status
  std::map<std::string, std::string> smt_b;
  for (const SmtQueryEvidence& query : a.smt_queries) smt_a[query.digest] = query.status;
  for (const SmtQueryEvidence& query : b.smt_queries) smt_b[query.digest] = query.status;
  int smt_vanished = 0;
  int smt_appeared = 0;
  for (const auto& [digest, status] : smt_a) {
    const auto it = smt_b.find(digest);
    if (it == smt_b.end())
      ++smt_vanished;
    else if (status != it->second)
      notes.push_back("smt " + digest + ": " + status + " -> " + it->second);
  }
  for (const auto& [digest, status] : smt_b)
    if (smt_a.find(digest) == smt_a.end()) ++smt_appeared;
  if (smt_vanished > 0 || smt_appeared > 0)
    notes.push_back("smt queries: " + std::to_string(smt_appeared) + " new, " +
                    std::to_string(smt_vanished) + " vanished (" +
                    std::to_string(a.smt_queries.size()) + " -> " +
                    std::to_string(b.smt_queries.size()) + ")");

  // Concolic hits: outcome multiset per (test, target).
  std::map<std::string, std::string> hits_a;
  std::map<std::string, std::string> hits_b;
  for (const HitEvidence& hit : a.hits)
    hits_a[hit.test + " @ " + hit.function + "#" + std::to_string(hit.stmt_id)] = hit.outcome;
  for (const HitEvidence& hit : b.hits)
    hits_b[hit.test + " @ " + hit.function + "#" + std::to_string(hit.stmt_id)] = hit.outcome;
  for (const auto& [key, outcome] : hits_a) {
    const auto it = hits_b.find(key);
    if (it == hits_b.end())
      notes.push_back("hit vanished: " + key + " [" + outcome + "]");
    else if (outcome != it->second)
      notes.push_back("hit " + key + ": " + outcome + " -> " + it->second);
  }
  for (const auto& [key, outcome] : hits_b)
    if (hits_a.find(key) == hits_a.end())
      notes.push_back("hit appeared: " + key + " [" + outcome + "]");

  if (a.budget.exhausted != b.budget.exhausted)
    notes.push_back(std::string("budget: ") +
                    (a.budget.exhausted ? "exhausted (" + a.budget.resource + ")"
                                        : "within limits") +
                    " -> " +
                    (b.budget.exhausted ? "exhausted (" + b.budget.resource + ")"
                                        : "within limits"));

  if (a.narration.kind != b.narration.kind ||
      a.narration.reproduced != b.narration.reproduced) {
    const auto describe = [](const Narration& narration) {
      if (narration.kind.empty()) return std::string("(none)");
      return narration.kind + (narration.reproduced ? " (reproduced)" : "");
    };
    notes.push_back("narration: " + describe(a.narration) + " -> " + describe(b.narration));
  }
  return notes;
}

}  // namespace

int DiffReport::verdict_flips() const {
  int flips = 0;
  for (const ContractDelta& contract : contracts)
    if (contract.flipped) ++flips;
  return flips;
}

Json DiffReport::to_json() const {
  JsonObject root;
  root["label_a"] = label_a;
  root["label_b"] = label_b;
  root["fingerprint_a"] = fingerprint_a;
  root["fingerprint_b"] = fingerprint_b;
  root["identical"] = identical();
  root["verdict_flips"] = verdict_flips();
  root["contracts_unchanged"] = contracts_unchanged;
  JsonArray contract_entries;
  for (const ContractDelta& contract : contracts) {
    JsonObject entry;
    entry["contract_id"] = contract.contract_id;
    entry["before"] = contract.before;
    entry["after"] = contract.after;
    entry["flipped"] = contract.flipped;
    JsonArray note_entries;
    for (const std::string& note : contract.notes) note_entries.push_back(Json(note));
    entry["notes"] = Json(std::move(note_entries));
    contract_entries.push_back(Json(std::move(entry)));
  }
  root["contracts"] = Json(std::move(contract_entries));
  JsonArray metric_entries;
  for (const MetricDelta& metric : metrics) {
    JsonObject entry;
    entry["name"] = metric.name;
    entry["before"] = metric.before;
    entry["after"] = metric.after;
    entry["delta"] = metric.delta();
    metric_entries.push_back(Json(std::move(entry)));
  }
  root["metrics"] = Json(std::move(metric_entries));
  return Json(std::move(root));
}

DiffReport diff_ledgers(const ProvenanceLedger& a, const ProvenanceLedger& b) {
  DiffReport report;
  report.label_a = "ledger " + a.run_fingerprint();
  report.label_b = "ledger " + b.run_fingerprint();
  report.fingerprint_a = a.run_fingerprint();
  report.fingerprint_b = b.run_fingerprint();

  std::set<std::string> ids;
  for (const std::string& id : a.contract_ids()) ids.insert(id);
  for (const std::string& id : b.contract_ids()) ids.insert(id);
  for (const std::string& id : ids) {  // std::set: sorted, deterministic
    const ContractCapture* before = a.find(id);
    const ContractCapture* after = b.find(id);
    ContractDelta delta;
    delta.contract_id = id;
    delta.before = before != nullptr ? before->report.verdict_name() : "";
    delta.after = after != nullptr ? after->report.verdict_name() : "";
    if (before != nullptr && after != nullptr) {
      delta.flipped = delta.before != delta.after;
      delta.notes = capture_notes(*before, *after);
      if (!delta.flipped && delta.notes.empty()) {
        ++report.contracts_unchanged;
        continue;
      }
    }
    report.contracts.push_back(std::move(delta));
  }
  return report;
}

DiffReport diff_runs(const RunRecord& a, const RunRecord& b) {
  DiffReport report;
  report.label_a = a.kind + " " + a.label;
  report.label_b = b.kind + " " + b.label;
  report.fingerprint_a = a.input_fingerprint;
  report.fingerprint_b = b.input_fingerprint;

  std::set<std::string> ids;
  for (const auto& [id, outcome] : a.contracts) ids.insert(id);
  for (const auto& [id, outcome] : b.contracts) ids.insert(id);
  for (const std::string& id : ids) {
    const auto before_it = a.contracts.find(id);
    const auto after_it = b.contracts.find(id);
    const ContractOutcome* before = before_it != a.contracts.end() ? &before_it->second : nullptr;
    const ContractOutcome* after = after_it != b.contracts.end() ? &after_it->second : nullptr;
    ContractDelta delta;
    delta.contract_id = id;
    delta.before = before != nullptr ? before->verdict : "";
    delta.after = after != nullptr ? after->verdict : "";
    if (before != nullptr && after != nullptr) {
      delta.flipped = before->verdict != after->verdict;
      if (!delta.flipped && before->signature_digest != after->signature_digest)
        delta.notes.push_back("verdict signature changed: " + before->signature_digest +
                              " -> " + after->signature_digest);
      if (before->slice_fp != after->slice_fp)
        delta.notes.push_back("slice fingerprint: " + or_absent(before->slice_fp) + " -> " +
                              or_absent(after->slice_fp));
      if (!delta.flipped && delta.notes.empty()) {
        ++report.contracts_unchanged;
        continue;
      }
    }
    report.contracts.push_back(std::move(delta));
  }

  std::set<std::string> metric_names;
  for (const auto& [name, value] : a.metrics) metric_names.insert(name);
  for (const auto& [name, value] : b.metrics) metric_names.insert(name);
  for (const std::string& name : metric_names) {
    const auto before = a.metrics.find(name);
    const auto after = b.metrics.find(name);
    MetricDelta delta;
    delta.name = name;
    delta.before = before != a.metrics.end() ? before->second : 0.0;
    delta.after = after != b.metrics.end() ? after->second : 0.0;
    if (delta.before == delta.after) continue;
    report.metrics.push_back(std::move(delta));
  }
  return report;
}

std::string render_diff_text(const DiffReport& report) {
  std::string out;
  out += "=== lisa diff: " + report.label_a + " -> " + report.label_b + " ===\n";
  out += "fingerprints: " + or_absent(report.fingerprint_a) + " -> " +
         or_absent(report.fingerprint_b) +
         (report.fingerprint_a == report.fingerprint_b ? " (same inputs)" : "") + "\n\n";
  if (report.identical()) {
    out += "no differences: " + std::to_string(report.contracts_unchanged) +
           " contract(s) decided identically\n";
    return out;
  }
  out += "verdict flips: " + std::to_string(report.verdict_flips()) + "\n";
  out += "contracts changed: " + std::to_string(report.contracts.size()) + " (unchanged " +
         std::to_string(report.contracts_unchanged) + ")\n\n";
  for (const ContractDelta& contract : report.contracts) {
    out += (contract.flipped ? "[FLIP] " : "[edit] ") + contract.contract_id + ": " +
           or_absent(contract.before) + " -> " + or_absent(contract.after) + "\n";
    for (const std::string& note : contract.notes) out += "    " + note + "\n";
  }
  if (!report.metrics.empty()) {
    out += "\nmetrics:\n";
    for (const MetricDelta& metric : report.metrics) {
      char line[192];
      std::snprintf(line, sizeof(line), "  %-28s %12.2f -> %12.2f  (%+.2f)\n",
                    metric.name.c_str(), metric.before, metric.after, metric.delta());
      out += line;
    }
  }
  return out;
}

std::string html_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c; break;
    }
  }
  return out;
}

const char* verdict_class(const std::string& verdict) {
  if (verdict == "violated") return "bad";
  if (verdict == "passed") return "good";
  return "warn";
}

std::string html_page(const std::string& title, const std::string& extra_css,
                      const std::string& body) {
  return "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n<title>" +
         html_escape(title) +
         "</title>\n<style>\n"
         "body{font-family:system-ui,sans-serif;margin:2rem auto;max-width:64rem;"
         "color:#1a1a2e;line-height:1.45}\n"
         "code{background:#f2f2f7;padding:0 .2em;border-radius:3px;"
         "font-size:.92em;word-break:break-all}\n"
         "table{border-collapse:collapse;margin:.5rem 0;width:100%}\n"
         "th,td{border:1px solid #d8d8e0;padding:.25rem .5rem;text-align:left;"
         "vertical-align:top;font-size:.9rem}\n"
         "th{background:#f7f7fb}\n"
         ".badge{padding:.1em .5em;border-radius:1em;font-size:.85em;color:#fff}\n"
         ".badge.bad,td.bad{background:#c0392b;color:#fff}\n"
         ".badge.good,td.good{background:#1e8449;color:#fff}\n"
         ".badge.warn{background:#b9770e}\n"
         ".meta{color:#555;font-size:.9rem;margin:.2rem 0}\n" +
         extra_css + "</style></head><body>\n<h1>" + html_escape(title) + "</h1>\n" + body +
         "</body></html>\n";
}

std::string render_diff_html(const DiffReport& report) {
  std::string out;
  out += "<p class=\"meta\"><code>" + html_escape(report.label_a) + "</code> &rarr; <code>" +
         html_escape(report.label_b) + "</code> · fingerprints <code>" +
         html_escape(or_absent(report.fingerprint_a)) + "</code> &rarr; <code>" +
         html_escape(or_absent(report.fingerprint_b)) + "</code></p>\n";
  const char* const notes_css = "ul.notes{margin:.2rem 0 .6rem 1.2rem;font-size:.9rem}\n";
  if (report.identical()) {
    out += "<p>No differences: " + std::to_string(report.contracts_unchanged) +
           " contract(s) decided identically.</p>\n";
    return html_page("LISA gate diff", notes_css, out);
  }
  out += "<p><strong>" + std::to_string(report.verdict_flips()) +
         " verdict flip(s)</strong>, " + std::to_string(report.contracts.size()) +
         " contract(s) changed, " + std::to_string(report.contracts_unchanged) +
         " unchanged.</p>\n";
  for (const ContractDelta& contract : report.contracts) {
    out += "<h3><code>" + html_escape(contract.contract_id) + "</code> <span class=\"badge " +
           verdict_class(contract.before) + "\">" +
           html_escape(or_absent(contract.before)) + "</span> &rarr; <span class=\"badge " +
           verdict_class(contract.after) + "\">" +
           html_escape(or_absent(contract.after)) + "</span>" +
           (contract.flipped ? " — verdict flip" : "") + "</h3>\n";
    if (!contract.notes.empty()) {
      out += "<ul class=\"notes\">\n";
      for (const std::string& note : contract.notes)
        out += "<li>" + html_escape(note) + "</li>\n";
      out += "</ul>\n";
    }
  }
  if (!report.metrics.empty()) {
    out += "<h3>Metrics</h3><table><tr><th>metric</th><th>before</th><th>after</th>"
           "<th>delta</th></tr>\n";
    for (const MetricDelta& metric : report.metrics)
      out += "<tr><td><code>" + html_escape(metric.name) + "</code></td><td>" +
             format_value(metric.before) + "</td><td>" + format_value(metric.after) +
             "</td><td>" + format_value(metric.delta()) + "</td></tr>\n";
    out += "</table>\n";
  }
  return html_page("LISA gate diff", notes_css, out);
}

}  // namespace lisa::obs
