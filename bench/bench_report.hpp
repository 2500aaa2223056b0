// Machine-readable perf baseline: every bench can serialize its timings to
// a small JSON artifact (schema "cdpf-bench/1") so CI and developers can
// diff performance across revisions with tools/bench_compare.py instead of
// eyeballing console tables. Header-only; strings are escaped by the
// library's shared support::json_escape.
#pragma once

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/json_escape.hpp"

namespace cdpf::bench {

/// One timed entry in the report. For google-benchmark kernels,
/// `iterations`/`iterations_per_second` describe the benchmark loop; for
/// whole-run benches they are the Monte Carlo trial count and trials/s.
struct BenchEntry {
  std::string name;
  double wall_seconds = 0.0;
  std::size_t iterations = 0;
  double iterations_per_second = 0.0;
};

/// Best-effort git revision of the working tree, read straight from .git
/// (no subprocess): resolves HEAD through one level of symbolic ref, then
/// packed-refs. "unknown" outside a repository.
inline std::string git_revision() {
  // Walk up from the working directory to find the repository root.
  std::string prefix;
  for (int depth = 0; depth < 8; ++depth) {
    std::ifstream head(prefix + ".git/HEAD");
    if (!head) {
      prefix += "../";
      continue;
    }
    std::string line;
    std::getline(head, line);
    const std::string ref_prefix = "ref: ";
    if (line.rfind(ref_prefix, 0) != 0) {
      return line;  // detached HEAD: the line is the hash itself
    }
    const std::string ref = line.substr(ref_prefix.size());
    std::ifstream ref_file(prefix + ".git/" + ref);
    if (ref_file) {
      std::string hash;
      std::getline(ref_file, hash);
      if (!hash.empty()) {
        return hash;
      }
    }
    std::ifstream packed(prefix + ".git/packed-refs");
    for (std::string entry; std::getline(packed, entry);) {
      if (entry.size() == ref.size() + 41 &&
          entry.compare(41, std::string::npos, ref) == 0) {
        return entry.substr(0, 40);
      }
    }
    break;
  }
  return "unknown";
}

/// Serialize the report. `context` carries free-form key/value metadata
/// (bench binary name, flags, worker count, ...).
inline std::string to_json(
    const std::vector<BenchEntry>& entries,
    const std::vector<std::pair<std::string, std::string>>& context = {}) {
  std::ostringstream os;
  os.precision(17);
  os << "{\n  \"schema\": \"cdpf-bench/1\",\n";
  os << "  \"git_revision\": \"" << support::json_escape(git_revision()) << "\",\n";
  os << "  \"context\": {";
  for (std::size_t i = 0; i < context.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \"" << support::json_escape(context[i].first)
       << "\": \"" << support::json_escape(context[i].second) << "\"";
  }
  os << (context.empty() ? "" : "\n  ") << "},\n";
  os << "  \"benchmarks\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const BenchEntry& e = entries[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": \"" << support::json_escape(e.name)
       << "\", \"wall_seconds\": " << e.wall_seconds
       << ", \"iterations\": " << e.iterations
       << ", \"iterations_per_second\": " << e.iterations_per_second << "}";
  }
  os << (entries.empty() ? "" : "\n  ") << "]\n}\n";
  return os.str();
}

/// Write the report to `path`; returns false (and leaves no partial file
/// behind beyond what the failed stream wrote) on I/O failure.
inline bool write_report(
    const std::string& path, const std::vector<BenchEntry>& entries,
    const std::vector<std::pair<std::string, std::string>>& context = {}) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << to_json(entries, context);
  return static_cast<bool>(out);
}

}  // namespace cdpf::bench
