// The library's one JSON module: the string escaper every writer shares
// (trace, metrics, shard snapshots) and the one reader (shard snapshots, and
// the tests that validate the writers' output).
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cdpf::support {

/// `text` as the body of a JSON string literal (without the surrounding
/// quotes): '"' and '\\' are backslash-escaped, '\n' and '\t' become "\n"
/// and "\t", and every other control character below 0x20 becomes "\u00XX".
/// All other bytes pass through unchanged.
std::string json_escape(std::string_view text);

/// One parsed JSON value. Object members keep their document order; every
/// number is a double.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// The first member named `key`, or null when there is none.
  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
};

/// Parse one JSON document: recursive descent over the full grammar
/// (objects, arrays, strings with escapes, numbers, true/false/null), so
/// malformed input fails with a position instead of undefined behavior.
/// Throws cdpf::Error("JSON: <what> at offset <n>").
JsonValue parse_json(const std::string& text);

}  // namespace cdpf::support
