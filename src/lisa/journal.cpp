#include "lisa/journal.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>

#include "support/jsonl.hpp"
#include "support/log.hpp"

namespace lisa::core {

using support::Json;
using support::JsonObject;

namespace {

constexpr const char* kJournalKind = "lisa-check";
constexpr std::int64_t kJournalVersion = 1;

}  // namespace

std::string CheckJournal::fingerprint(const std::string& inputs) {
  // FNV-1a 64-bit (support/jsonl.hpp): stable across runs, cheap, and good
  // enough to tell "same inputs" from "different inputs" — the journal is a
  // cache keyed by it, not a security boundary.
  return support::fnv1a_fingerprint(inputs);
}

bool CheckJournal::load(const std::string& expected_fingerprint) {
  entries_.clear();
  std::ifstream in(path_);
  if (!in) return false;
  std::string line;
  if (!std::getline(in, line)) return false;
  if (!support::jsonl_header_matches(line, kJournalKind, kJournalVersion,
                                     expected_fingerprint)) {
    support::log(support::LogLevel::warn, "journal ", path_,
                 " does not match this run's inputs; starting fresh");
    return false;
  }
  std::size_t dropped = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      ContractCheckReport report = ContractCheckReport::from_json(Json::parse(line));
      if (report.contract_id.empty()) {
        ++dropped;
        continue;
      }
      entries_[report.contract_id] = std::move(report);
    } catch (const std::exception&) {
      // A torn tail from a crash mid-append: everything before it is good.
      ++dropped;
    }
  }
  if (dropped > 0)
    support::log(support::LogLevel::warn, "journal ", path_, ": dropped ", dropped,
                 " unreadable entr(ies)");
  support::log(support::LogLevel::info, "journal ", path_, ": loaded ",
               entries_.size(), " checkpointed report(s)");
  return true;
}

bool CheckJournal::begin(const std::string& fingerprint) {
  std::ofstream out(path_, std::ios::trunc);
  if (!out) {
    support::log(support::LogLevel::warn, "journal ", path_,
                 " cannot be opened for writing; checkpointing disabled");
    writable_ = false;
    return false;
  }
  out << support::jsonl_header(kJournalKind, kJournalVersion, fingerprint) << "\n";
  writable_ = static_cast<bool>(out);
  return writable_;
}

void CheckJournal::record(const ContractCheckReport& report) {
  if (!writable_ || path_.empty()) return;
  std::ofstream out(path_, std::ios::app);
  if (!out) return;
  out << report.to_json().dump() << "\n";
  out.flush();
}

const ContractCheckReport* CheckJournal::find(const std::string& contract_id) const {
  const auto it = entries_.find(contract_id);
  return it == entries_.end() ? nullptr : &it->second;
}

const ContractCheckReport* CheckJournal::replayable(const SemanticContract& contract,
                                                    const staticcheck::Screener& analysis,
                                                    bool run_concolic) const {
  const ContractCheckReport* checkpointed = find(contract.id);
  if (checkpointed == nullptr || !checkpointed->conclusive() || checkpointed->slice_fp.empty())
    return nullptr;
  return checkpointed->slice_fp ==
                 contract_slice_fingerprint(analysis.slicer(), contract, run_concolic)
             ? checkpointed
             : nullptr;
}

std::int64_t record_outcomes(const std::vector<ContractCheckReport>& reports,
                             const obs::ProvenanceLedger& ledger, obs::RunRecord& record) {
  std::int64_t total_smt_queries = 0;
  std::vector<std::string> smt_digests;
  for (const ContractCheckReport& report : reports) {
    obs::ContractOutcome outcome;
    outcome.passed = report.passed();
    outcome.conclusive = report.conclusive();
    outcome.verdict = !outcome.conclusive ? "inconclusive"
                      : outcome.passed    ? "passed"
                                          : "violated";
    outcome.signature_digest = support::fnv1a_fingerprint(report.verdict_signature());
    outcome.slice_fp = report.slice_fp;
    if (const obs::ContractCapture* capture = ledger.find(report.contract_id)) {
      outcome.smt_queries = static_cast<std::int64_t>(capture->smt_queries.size());
      for (const obs::SmtQueryEvidence& query : capture->smt_queries)
        smt_digests.push_back(query.digest);
    }
    total_smt_queries += outcome.smt_queries;
    record.contracts[report.contract_id] = std::move(outcome);
  }
  if (!smt_digests.empty()) {
    std::sort(smt_digests.begin(), smt_digests.end());
    std::string joined;
    for (const std::string& digest : smt_digests) joined += digest + "\n";
    record.smt_digest = support::fnv1a_fingerprint(joined);
  }
  return total_smt_queries;
}

}  // namespace lisa::core
