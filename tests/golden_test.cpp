// Zero verdict flips as a test. For every corpus case and version (buggy,
// patched, and latest where it exists) the full pipeline runs with a
// provenance ledger, and each contract's verdict signature and the FNV-1a
// digest of its ledger capture line are compared with the committed
// tests/golden/corpus_verdicts.json. Ledger lines carry no timings, so the
// file is byte-stable across runs and builds.
//
// A change that means to move a verdict or a witness regenerates the file
// with scripts/update_golden.sh (which sets LISA_UPDATE_GOLDEN=1) and
// explains each changed entry.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/ticket.hpp"
#include "lisa/pipeline.hpp"
#include "obs/provenance.hpp"
#include "support/json.hpp"
#include "support/jsonl.hpp"
#include "support/strings.hpp"

namespace {

using namespace lisa;
using support::Json;
using support::JsonArray;
using support::JsonObject;

constexpr const char* kGoldenPath = LISA_GOLDEN_FILE;

/// One line per array element, so a changed path or witness is one changed
/// line in the file's diff.
Json signature_lines(const std::string& signature) {
  JsonArray lines;
  for (const std::string& line : support::split(signature, '\n')) lines.emplace_back(line);
  return Json(std::move(lines));
}

/// Digest of each top-level field of a capture line: the whole-line digest
/// says that the evidence moved, these say where.
Json field_digests(const Json& capture) {
  JsonObject fields;
  for (const auto& [key, value] : capture.as_object())
    fields[key] = support::fnv1a_fingerprint(value.dump());
  return Json(std::move(fields));
}

/// Every entry, keyed "<case>@<version>#<contract>".
std::map<std::string, Json> compute_entries() {
  std::map<std::string, Json> entries;
  const core::Pipeline pipeline;
  for (const corpus::FailureTicket& ticket : corpus::Corpus::all()) {
    const std::vector<std::pair<std::string, const std::string*>> versions = {
        {"buggy", &ticket.buggy_source},
        {"patched", &ticket.patched_source},
        {"latest", &ticket.latest_source}};
    for (const auto& [version, source] : versions) {
      if (source->empty()) continue;
      obs::ProvenanceLedger ledger;
      core::PipelineRunOptions run_options;
      run_options.ledger = &ledger;
      const core::PipelineResult result = pipeline.run(ticket, *source, run_options);
      for (const core::ContractCheckReport& report : result.reports) {
        const obs::ContractCapture* capture = ledger.find(report.contract_id);
        const Json capture_json = capture != nullptr ? capture->to_json() : Json();
        JsonObject entry;
        entry["case"] = ticket.case_id;
        entry["version"] = version;
        entry["contract"] = report.contract_id;
        entry["signature"] = signature_lines(report.verdict_signature());
        entry["capture_digest"] = support::fnv1a_fingerprint(capture_json.dump());
        entry["capture_fields"] =
            capture_json.is_object() ? field_digests(capture_json) : Json(JsonObject{});
        entries[ticket.case_id + "@" + version + "#" + report.contract_id] =
            Json(std::move(entry));
      }
    }
  }
  return entries;
}

Json document(const std::map<std::string, Json>& entries) {
  JsonArray list;
  for (const auto& [key, entry] : entries) list.push_back(entry);
  JsonObject root;
  root["schema"] = "lisa-corpus-verdicts";
  root["version"] = 1;
  root["entries"] = Json(std::move(list));
  return Json(std::move(root));
}

std::string joined(const Json& lines) {
  std::string out;
  for (const Json& line : lines.as_array()) out += "    " + line.as_string() + "\n";
  return out;
}

TEST(GoldenVerdicts, CorpusMatchesCommittedFile) {
  const std::map<std::string, Json> computed = compute_entries();
  ASSERT_FALSE(computed.empty());

  if (std::getenv("LISA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath);
    out << document(computed).pretty() << "\n";
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    std::printf("wrote %zu entries to %s\n", computed.size(), kGoldenPath);
    return;
  }

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in.good()) << "missing " << kGoldenPath << "; run scripts/update_golden.sh";
  std::stringstream text;
  text << in.rdbuf();
  const Json golden = Json::parse(text.str());
  ASSERT_EQ(golden.get_string("schema"), "lisa-corpus-verdicts");
  std::map<std::string, Json> expected;
  for (const Json& entry : golden.at("entries").as_array())
    expected[entry.get_string("case") + "@" + entry.get_string("version") + "#" +
             entry.get_string("contract")] = entry;

  for (const auto& [key, entry] : computed) {
    const auto it = expected.find(key);
    if (it == expected.end()) {
      ADD_FAILURE() << key << ": new contract, not in the golden file\n"
                    << "  signature:\n" << joined(entry.at("signature"));
      continue;
    }
    const Json& want = it->second;
    const bool same_signature = want.at("signature").dump() == entry.at("signature").dump();
    const bool same_capture = want.get_string("capture_digest") ==
                              entry.get_string("capture_digest");
    if (same_signature && same_capture) continue;
    std::string fields;
    const JsonObject& now_fields = entry.at("capture_fields").as_object();
    const JsonObject& old_fields = want.at("capture_fields").as_object();
    for (const auto& [field, digest] : now_fields) {
      const auto old = old_fields.find(field);
      if (old == old_fields.end() || old->second.as_string() != digest.as_string())
        fields += " " + field;
    }
    for (const auto& [field, digest] : old_fields)
      if (now_fields.find(field) == now_fields.end()) fields += " " + field + "(gone)";
    ADD_FAILURE() << key << ": " << (same_signature ? "evidence" : "verdict signature")
                  << " changed\n"
                  << "  golden signature:\n" << joined(want.at("signature"))
                  << "  current signature:\n" << joined(entry.at("signature"))
                  << "  capture fields that differ:" << (fields.empty() ? " none" : fields);
  }
  for (const auto& [key, entry] : expected)
    if (computed.find(key) == computed.end())
      ADD_FAILURE() << key << ": in the golden file, but no longer produced\n"
                    << "  signature:\n" << joined(entry.at("signature"));
}

}  // namespace
