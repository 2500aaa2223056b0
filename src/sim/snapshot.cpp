#include "sim/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/check.hpp"
#include "support/json.hpp"

namespace cdpf::sim {
namespace {

using support::JsonValue;

/// Doubles travel as the hex of their IEEE-754 bit pattern so the
/// round trip is bitwise exact for every value, including -0.0, denormals
/// and infinities (the merged run must be byte-identical to the unsharded
/// one, and %.17g round-tripping is one strtod implementation bug away
/// from silently breaking that).
std::string encode_double(double value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(value)));
  return buf;
}

double decode_double(const std::string& text) {
  if (text.size() != 18 || text.compare(0, 2, "0x") != 0) {
    throw Error("cdpf-shard: bad double encoding '" + text +
                "' (want 0x + 16 hex digits)");
  }
  char* end = nullptr;
  const unsigned long long bits = std::strtoull(text.c_str() + 2, &end, 16);
  if (end != text.c_str() + text.size()) {
    throw Error("cdpf-shard: bad double encoding '" + text + "'");
  }
  return std::bit_cast<double>(static_cast<std::uint64_t>(bits));
}

const JsonValue& require(const JsonValue& doc, const std::string& key,
                         JsonValue::Kind kind, const char* kind_name) {
  const JsonValue* value = doc.find(key);
  if (value == nullptr) {
    throw Error("cdpf-shard: missing field '" + key + "'");
  }
  if (value->kind != kind) {
    throw Error("cdpf-shard: field '" + key + "' must be " + kind_name);
  }
  return *value;
}

std::size_t require_index(const JsonValue& doc, const std::string& key) {
  const JsonValue& value = require(doc, key, JsonValue::Kind::kNumber, "a number");
  if (value.number < 0.0 || value.number != static_cast<double>(
                                                static_cast<std::size_t>(value.number))) {
    throw Error("cdpf-shard: field '" + key + "' must be a non-negative integer");
  }
  return static_cast<std::size_t>(value.number);
}

}  // namespace

std::string ShardSpec::to_string() const {
  return std::to_string(index) + "/" + std::to_string(count);
}

ShardSpec parse_shard(const std::string& text) {
  const auto slash = text.find('/');
  CDPF_CHECK_MSG(slash != std::string::npos && slash > 0 && slash + 1 < text.size(),
                 "--shard expects i/N (e.g. 0/3), got: " + text);
  const auto parse_part = [&](const std::string& part) -> std::size_t {
    char* end = nullptr;
    const unsigned long long value = std::strtoull(part.c_str(), &end, 10);
    CDPF_CHECK_MSG(end == part.c_str() + part.size() && !part.empty() &&
                       std::isdigit(static_cast<unsigned char>(part[0])) != 0,
                   "--shard expects i/N with non-negative integers, got: " + text);
    return static_cast<std::size_t>(value);
  };
  ShardSpec spec;
  spec.index = parse_part(text.substr(0, slash));
  spec.count = parse_part(text.substr(slash + 1));
  CDPF_CHECK_MSG(spec.count >= 1, "--shard count must be >= 1, got: " + text);
  CDPF_CHECK_MSG(spec.index < spec.count,
                 "--shard index must be < count, got: " + text);
  return spec;
}

std::string ShardSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\n  \"schema\": \"cdpf-shard/1\",\n";
  os << "  \"experiment\": \"" << support::json_escape(experiment) << "\",\n";
  os << "  \"config\": \"" << support::json_escape(config) << "\",\n";
  os << "  \"shard_index\": " << shard.index << ",\n";
  os << "  \"shard_count\": " << shard.count << ",\n";
  os << "  \"slot_count\": " << slot_count << ",\n";
  os << "  \"slots\": [";
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const auto& [slot, record] = slots[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"slot\": " << slot << ", \"values\": [";
    for (std::size_t j = 0; j < record.values.size(); ++j) {
      os << (j == 0 ? "" : ", ") << '"' << encode_double(record.values[j]) << '"';
    }
    os << "]}";
  }
  os << (slots.empty() ? "" : "\n  ") << "]\n}\n";
  return os.str();
}

ShardSnapshot ShardSnapshot::parse(const std::string& json) {
  JsonValue doc;
  try {
    doc = support::parse_json(json);
  } catch (const Error& e) {
    throw Error(std::string("cdpf-shard ") + e.what());
  }
  if (doc.kind != JsonValue::Kind::kObject) {
    throw Error("cdpf-shard: document must be a JSON object");
  }
  const JsonValue& schema =
      require(doc, "schema", JsonValue::Kind::kString, "a string");
  if (schema.string != "cdpf-shard/1") {
    throw Error("cdpf-shard: unsupported schema '" + schema.string +
                "' (want cdpf-shard/1)");
  }
  ShardSnapshot snapshot;
  snapshot.experiment =
      require(doc, "experiment", JsonValue::Kind::kString, "a string").string;
  snapshot.config = require(doc, "config", JsonValue::Kind::kString, "a string").string;
  snapshot.shard.index = require_index(doc, "shard_index");
  snapshot.shard.count = require_index(doc, "shard_count");
  snapshot.slot_count = require_index(doc, "slot_count");
  if (snapshot.shard.count == 0 || snapshot.shard.index >= snapshot.shard.count) {
    throw Error("cdpf-shard: invalid shard " + snapshot.shard.to_string());
  }
  const JsonValue& slots = require(doc, "slots", JsonValue::Kind::kArray, "an array");
  for (const JsonValue& entry : slots.array) {
    if (entry.kind != JsonValue::Kind::kObject) {
      throw Error("cdpf-shard: each slot must be an object");
    }
    const std::size_t slot = require_index(entry, "slot");
    const JsonValue& values =
        require(entry, "values", JsonValue::Kind::kArray, "an array");
    SlotRecord record;
    record.values.reserve(values.array.size());
    for (const JsonValue& v : values.array) {
      if (v.kind != JsonValue::Kind::kString) {
        throw Error("cdpf-shard: slot values must be bit-pattern strings");
      }
      record.values.push_back(decode_double(v.string));
    }
    snapshot.slots.emplace_back(slot, std::move(record));
  }
  return snapshot;
}

ShardSnapshot ShardSnapshot::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("cdpf-shard: cannot read snapshot: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse(buffer.str());
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

void ShardSnapshot::write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw Error("cdpf-shard: cannot open snapshot for writing: " + path);
  }
  out << to_json();
  if (!out) {
    throw Error("cdpf-shard: write failed: " + path);
  }
}

std::vector<SlotRecord> merge_snapshots(const std::vector<ShardSnapshot>& shards) {
  CDPF_CHECK_MSG(!shards.empty(), "merge needs at least one snapshot");
  const ShardSnapshot& first = shards.front();
  for (const ShardSnapshot& s : shards) {
    if (s.experiment != first.experiment) {
      throw Error("shard merge: experiment mismatch ('" + s.experiment + "' vs '" +
                  first.experiment + "')");
    }
    if (s.config != first.config) {
      throw Error("shard merge: config mismatch between shards:\n  " + s.config +
                  "\n  " + first.config);
    }
    if (s.slot_count != first.slot_count) {
      throw Error("shard merge: slot count mismatch (" +
                  std::to_string(s.slot_count) + " vs " +
                  std::to_string(first.slot_count) + ")");
    }
    if (s.shard.count != first.shard.count) {
      throw Error("shard merge: shard count mismatch (" + s.shard.to_string() +
                  " vs " + first.shard.to_string() + ")");
    }
  }
  const std::size_t shard_count = first.shard.count;
  if (shards.size() != shard_count) {
    throw Error("shard merge: got " + std::to_string(shards.size()) +
                " snapshot(s) for " + std::to_string(shard_count) + " shard(s)");
  }
  std::vector<bool> seen(shard_count, false);
  for (const ShardSnapshot& s : shards) {
    if (seen[s.shard.index]) {
      throw Error("shard merge: duplicate shard " + s.shard.to_string());
    }
    seen[s.shard.index] = true;
  }
  for (std::size_t i = 0; i < shard_count; ++i) {
    if (!seen[i]) {
      throw Error("shard merge: missing shard " + std::to_string(i) + "/" +
                  std::to_string(shard_count));
    }
  }

  std::vector<SlotRecord> merged(first.slot_count);
  std::vector<bool> filled(first.slot_count, false);
  for (const ShardSnapshot& s : shards) {
    for (const auto& [slot, record] : s.slots) {
      if (slot >= s.slot_count) {
        throw Error("shard merge: slot " + std::to_string(slot) +
                    " out of range (slot count " + std::to_string(s.slot_count) + ")");
      }
      if (!s.shard.owns_slot(slot)) {
        throw Error("shard merge: shard " + s.shard.to_string() +
                    " carries slot " + std::to_string(slot) + " it does not own");
      }
      if (filled[slot]) {
        throw Error("shard merge: slot " + std::to_string(slot) +
                    " present more than once");
      }
      filled[slot] = true;
      merged[slot] = record;
    }
  }
  for (std::size_t slot = 0; slot < merged.size(); ++slot) {
    if (!filled[slot]) {
      throw Error("shard merge: slot " + std::to_string(slot) +
                  " missing from every shard");
    }
  }
  return merged;
}

}  // namespace cdpf::sim
