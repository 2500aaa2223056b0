// Metrics registry: named, unit-annotated monotonic counters behind one
// snapshot API, unifying the repo's ad-hoc accounting (wsn::CommStats byte /
// message / reception totals, iteration and estimate counts) into a single
// value space.
//
// Design constraints, in order:
//   * Exactness. Counters are unsigned 64-bit integers with atomic
//     increments, so totals folded from concurrently running Monte-Carlo
//     trials are bit-identical to a serial fold for any worker count —
//     the same determinism contract sim::run_slots_ordered makes
//     (DESIGN.md §6), and what lets a metrics snapshot reproduce
//     wsn::CommStats totals exactly.
//   * Thread safety without locks on the update path. add() is a lock-free
//     atomic; only registration and snapshot take the registry mutex (both
//     off the per-iteration path).
//   * Stable handles. Registration returns a dense Id; cells live in
//     fixed-size chunks under a fixed top-level table, so handles and
//     concurrent updates survive later registrations, and an update never
//     reads memory a concurrent registration writes.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace cdpf::support {

/// Point-in-time copy of every registered counter. Snapshots are plain
/// data: serializable (to_json()/write_json()) and safe to keep after the
/// registry moves on.
struct MetricsSnapshot {
  struct Entry {
    std::string name;
    std::string unit;
    std::uint64_t count = 0;
  };
  std::vector<Entry> entries;

  /// Compact JSON object, schema `cdpf-metrics/1`.
  std::string to_json() const;
  /// to_json() to a file; false when the file cannot be written.
  bool write_json(const std::string& path) const;
};

class MetricsRegistry {
 public:
  using Id = std::size_t;

  /// Register (or look up — name is the identity) a monotonic counter.
  Id counter(std::string_view name, std::string_view unit = "");

  /// Counter += delta. Lock-free; exact for any thread interleaving.
  void add(Id id, std::uint64_t delta = 1);

  MetricsSnapshot snapshot() const;
  /// Zero every count; registrations (names, ids) survive.
  void reset();

 private:
  struct Cell {
    std::string name;
    std::string unit;
    std::atomic<std::uint64_t> count{0};
  };

  Cell& cell(Id id) const { return chunks_[id / kChunkCells][id % kChunkCells]; }

  static constexpr std::size_t kChunkCells = 64;
  static constexpr std::size_t kMaxChunks = 256;  // 16384 metrics

  mutable std::mutex mutex_;  // registration + snapshot only
  // Neither the table nor a chunk ever moves (a deque's block map does, as
  // it grows), and registration writes only a slot no issued Id points
  // into, so the lock-free update path never races with it.
  std::array<std::unique_ptr<Cell[]>, kMaxChunks> chunks_;
  std::size_t size_ = 0;
  std::map<std::string, Id, std::less<>> by_name_;
};

/// The process-wide registry the simulation layer folds run accounting into
/// and the `--metrics` CLI flag snapshots. Library code never resets it;
/// scopes that want a clean window (sim::ObservabilityScope) do.
MetricsRegistry& global_metrics();

}  // namespace cdpf::support
