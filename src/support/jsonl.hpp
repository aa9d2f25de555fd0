// Shared JSONL framing: fingerprinted headers over line-oriented JSON
// files.
//
// Two artifacts use the format — the provenance ledger (obs/provenance.hpp,
// kind "lisa-ledger"), which is also the file `--journal` names and
// `--resume` replays from, and the run history (obs/history.hpp, kind
// "lisa-history"). Each starts with a one-line header
//
//   {"journal":"<kind>","version":N,"fingerprint":"<hex>"}
//
// followed by one JSON document per line. The fingerprint records the run's
// identifying inputs. This header centralizes the hash, the header and the
// reader so the formats cannot drift apart.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "support/json.hpp"

namespace lisa::support {

/// FNV-1a 64-bit content hash as lowercase hex. Stable across runs and
/// builds, cheap, and collision-resistant enough for cache keying — none of
/// the consumers treat it as a security boundary.
[[nodiscard]] std::string fnv1a_fingerprint(const std::string& inputs);

/// The header line (no trailing newline) for a journal of `kind`.
[[nodiscard]] std::string jsonl_header(const std::string& kind, std::int64_t version,
                                       const std::string& fingerprint);

/// Longest line read_jsonl buffers. Far above anything LISA writes: the
/// longest corpus line is a 10.6 KB ledger capture, and a capture at the
/// 4,096-path cap, which lists each path once (in its report, at up to
/// about 620 bytes a path on the corpus), would be about 2.5 MB.
inline constexpr std::size_t kMaxJsonlLineBytes = std::size_t{64} << 20;

/// What read_jsonl found besides the records it handed over.
struct JsonlRead {
  bool matched = false;     // the first line is a header of the expected kind
  std::string fingerprint;  // the header's fingerprint, when matched
  std::size_t dropped = 0;  // record lines torn, over-long or refused
};

/// Reads a file written as jsonl_header(kind, version, fingerprint) plus one
/// JSON document per line, whatever its fingerprint. Each record line that
/// parses goes to `on_record`; one that does not parse, or that `on_record`
/// refuses (returns false or throws), is dropped. A line is buffered only up
/// to kMaxJsonlLineBytes and then skipped to its newline: an over-long
/// header is the wrong kind, an over-long record is dropped like a torn
/// line.
[[nodiscard]] JsonlRead read_jsonl(const std::string& path, const std::string& kind,
                                   std::int64_t version,
                                   const std::function<bool(const Json&)>& on_record);

}  // namespace lisa::support
