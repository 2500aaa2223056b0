#include "support/metrics.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <sstream>

#include "support/check.hpp"
#include "support/json_escape.hpp"

namespace cdpf::support {

namespace {

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

}  // namespace

const MetricsSnapshot::Entry* MetricsSnapshot::find(std::string_view name) const {
  for (const Entry& entry : entries) {
    if (entry.name == name) {
      return &entry;
    }
  }
  return nullptr;
}

MetricsSnapshot MetricsSnapshot::delta(const MetricsSnapshot& before,
                                       const MetricsSnapshot& after) {
  MetricsSnapshot out;
  out.entries.reserve(after.entries.size());
  for (const Entry& entry : after.entries) {
    Entry d = entry;
    const Entry* base = before.find(entry.name);
    if (base != nullptr && base->kind == entry.kind) {
      if (entry.kind == MetricKind::kCounter) {
        d.count = entry.count - std::min(base->count, entry.count);
      } else if (entry.kind == MetricKind::kHistogram) {
        d.count = entry.count - std::min(base->count, entry.count);
        d.value = entry.value - base->value;
        for (std::size_t i = 0;
             i < d.buckets.size() && i < base->buckets.size(); ++i) {
          d.buckets[i] -= std::min(base->buckets[i], d.buckets[i]);
        }
      }
      // Gauges pass through: a level, not a flow.
    }
    out.entries.push_back(std::move(d));
  }
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream out;
  out << "{\"schema\":\"cdpf-metrics/1\",\"metrics\":[";
  bool first = true;
  for (const Entry& entry : entries) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\n{\"name\":\"" << json_escape(entry.name) << "\",\"kind\":\""
        << kind_name(entry.kind) << "\"";
    if (!entry.unit.empty()) {
      out << ",\"unit\":\"" << json_escape(entry.unit) << "\"";
    }
    if (entry.kind == MetricKind::kCounter) {
      out << ",\"count\":" << entry.count;
    } else if (entry.kind == MetricKind::kGauge) {
      out << ",\"value\":" << entry.value;
    } else {
      out << ",\"count\":" << entry.count << ",\"sum\":" << entry.value
          << ",\"bounds\":[";
      for (std::size_t i = 0; i < entry.bounds.size(); ++i) {
        out << (i > 0 ? "," : "") << entry.bounds[i];
      }
      out << "],\"buckets\":[";
      for (std::size_t i = 0; i < entry.buckets.size(); ++i) {
        out << (i > 0 ? "," : "") << entry.buckets[i];
      }
      out << "]";
    }
    out << "}";
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

MetricsRegistry::Id MetricsRegistry::get_or_create(std::string_view name,
                                                   std::string_view unit,
                                                   MetricKind kind,
                                                   std::vector<double> bounds) {
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
  cell.kind = kind;
  cell.bounds = std::move(bounds);
  if (kind == MetricKind::kHistogram) {
    // +1: terminal overflow bucket for samples above the last bound.
    for (std::size_t i = 0; i < cell.bounds.size() + 1; ++i) {
      cell.buckets.emplace_back(0);
    }
  }
  by_name_.emplace(cell.name, id);
  return id;
}

MetricsRegistry::Id MetricsRegistry::counter(std::string_view name,
                                             std::string_view unit) {
  return get_or_create(name, unit, MetricKind::kCounter, {});
}

MetricsRegistry::Id MetricsRegistry::gauge(std::string_view name,
                                           std::string_view unit) {
  return get_or_create(name, unit, MetricKind::kGauge, {});
}

MetricsRegistry::Id MetricsRegistry::histogram(std::string_view name,
                                               std::vector<double> bounds,
                                               std::string_view unit) {
  return get_or_create(name, unit, MetricKind::kHistogram, std::move(bounds));
}

void MetricsRegistry::add(Id id, std::uint64_t delta) {
  cell(id).count.fetch_add(delta, std::memory_order_relaxed);
}

void MetricsRegistry::set(Id id, double value) {
  cell(id).value_bits.store(std::bit_cast<std::uint64_t>(value),
                            std::memory_order_relaxed);
}

void MetricsRegistry::observe(Id id, double value) {
  Cell& cell = this->cell(id);
  cell.count.fetch_add(1, std::memory_order_relaxed);
  // Sum as fixed-point nanounits would lose range; the histogram sum is the
  // one value that is *not* order-exact under concurrency, so accumulate it
  // with a CAS loop over the double payload and document the caveat in
  // DESIGN.md §8 (counter exactness is what the acceptance bar needs).
  std::uint64_t expected = cell.value_bits.load(std::memory_order_relaxed);
  for (;;) {
    const double current = std::bit_cast<double>(expected);
    const std::uint64_t desired = std::bit_cast<std::uint64_t>(current + value);
    if (cell.value_bits.compare_exchange_weak(expected, desired,
                                              std::memory_order_relaxed)) {
      break;
    }
  }
  std::size_t bucket = cell.bounds.size();  // terminal overflow bucket
  for (std::size_t i = 0; i < cell.bounds.size(); ++i) {
    if (value <= cell.bounds[i]) {
      bucket = i;
      break;
    }
  }
  cell.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
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
    entry.kind = cell.kind;
    entry.count = cell.count.load(std::memory_order_relaxed);
    entry.value =
        std::bit_cast<double>(cell.value_bits.load(std::memory_order_relaxed));
    entry.bounds = cell.bounds;
    entry.buckets.reserve(cell.buckets.size());
    for (const auto& bucket : cell.buckets) {
      entry.buckets.push_back(bucket.load(std::memory_order_relaxed));
    }
    out.entries.push_back(std::move(entry));
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (Id id = 0; id < size_; ++id) {
    Cell& cell = this->cell(id);
    cell.count.store(0, std::memory_order_relaxed);
    cell.value_bits.store(0, std::memory_order_relaxed);
    for (auto& bucket : cell.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
  }
}

MetricsRegistry& global_metrics() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace cdpf::support
