#include "support/jsonl.hpp"

#include <fstream>
#include <sstream>

namespace lisa::support {

std::string fnv1a_fingerprint(const std::string& inputs) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : inputs) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  std::ostringstream out;
  out << std::hex << hash;
  return out.str();
}

std::string jsonl_header(const std::string& kind, std::int64_t version,
                         const std::string& fingerprint) {
  JsonObject header;
  header["journal"] = kind;
  header["version"] = version;
  header["fingerprint"] = fingerprint;
  return Json(std::move(header)).dump();
}

namespace {

/// Reads the next line, without its newline, into `line`; false at end of
/// file. A line longer than kMaxJsonlLineBytes is read to its newline but
/// comes back as "\n", which never parses: its buffer is released at once.
bool next_line(std::istream& in, std::string& line) {
  line.clear();
  std::streambuf& buffer = *in.rdbuf();
  int c = buffer.sbumpc();
  if (c == std::streambuf::traits_type::eof()) return false;
  bool over_long = false;
  for (; c != std::streambuf::traits_type::eof() && c != '\n'; c = buffer.sbumpc()) {
    if (line.size() < kMaxJsonlLineBytes)
      line.push_back(static_cast<char>(c));
    else
      over_long = true;
  }
  if (over_long) std::string("\n").swap(line);
  return true;
}

}  // namespace

JsonlRead read_jsonl(const std::string& path, const std::string& kind, std::int64_t version,
                     const std::function<bool(const Json&)>& on_record) {
  JsonlRead read;
  std::ifstream in(path);
  std::string line;
  if (!in || !next_line(in, line)) return read;
  try {
    const Json header = Json::parse(line);
    if (header.get_string("journal") != kind || header.get_int("version") != version)
      return read;
    read.fingerprint = header.get_string("fingerprint");
  } catch (const std::exception&) {
    return read;
  }
  read.matched = true;
  while (next_line(in, line)) {
    if (line.empty()) continue;
    try {
      if (!on_record(Json::parse(line))) ++read.dropped;
    } catch (const std::exception&) {
      // A torn tail from a crash mid-append, or an over-long line:
      // everything else is good.
      ++read.dropped;
    }
  }
  return read;
}

}  // namespace lisa::support
