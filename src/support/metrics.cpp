#include "support/metrics.hpp"

#include <fstream>
#include <sstream>

#include "support/check.hpp"
#include "support/json.hpp"

namespace cdpf::support {

std::string MetricsSnapshot::to_json() const {
  std::ostringstream out;
  out << "{\"schema\":\"cdpf-metrics/1\",\"metrics\":[";
  bool first = true;
  for (const Entry& entry : entries) {
    if (!first) {
      out << ",";
    }
    first = false;
    // Every metric is a counter; "kind" stays for the cdpf-metrics/1 schema.
    out << "\n{\"name\":\"" << json_escape(entry.name) << "\",\"kind\":\"counter\"";
    if (!entry.unit.empty()) {
      out << ",\"unit\":\"" << json_escape(entry.unit) << "\"";
    }
    out << ",\"count\":" << entry.count << "}";
  }
  out << "\n]}\n";
  return out.str();
}

bool MetricsSnapshot::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << to_json();
  return static_cast<bool>(out);
}

MetricsRegistry::Id MetricsRegistry::counter(std::string_view name,
                                             std::string_view unit) {
  std::lock_guard lock(mutex_);
  if (auto it = by_name_.find(name); it != by_name_.end()) {
    return it->second;
  }
  const Id id = size_;
  CDPF_CHECK_MSG(id < kChunkCells * kMaxChunks, "too many registered metrics");
  if (id % kChunkCells == 0) {
    chunks_[id / kChunkCells] = std::make_unique<Cell[]>(kChunkCells);
  }
  ++size_;
  Cell& cell = this->cell(id);
  cell.name.assign(name);
  cell.unit.assign(unit);
  by_name_.emplace(cell.name, id);
  return id;
}

void MetricsRegistry::add(Id id, std::uint64_t delta) {
  cell(id).count.fetch_add(delta, std::memory_order_relaxed);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot out;
  out.entries.reserve(size_);
  for (Id id = 0; id < size_; ++id) {
    const Cell& cell = this->cell(id);
    MetricsSnapshot::Entry entry;
    entry.name = cell.name;
    entry.unit = cell.unit;
    entry.count = cell.count.load(std::memory_order_relaxed);
    out.entries.push_back(std::move(entry));
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (Id id = 0; id < size_; ++id) {
    cell(id).count.store(0, std::memory_order_relaxed);
  }
}

MetricsRegistry& global_metrics() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace cdpf::support
