// The declarative experiment-running API of the sharded Monte-Carlo
// execution plane.
//
// A RunSpec names an experiment and pins everything that must agree
// between processes cooperating on one run: trial count, seed policy,
// shard selector, and the experiment-specific configuration that goes
// into the snapshot's config digest. An ExperimentRunner executes the
// spec over a caller-provided slot job in one of three modes:
//
//   * plain    — compute every slot locally, return the full record set;
//   * shard    — compute only the slots `--shard i/N` owns, write a
//                cdpf-shard/1 snapshot, return nothing (the caller skips
//                reporting);
//   * merge    — load one snapshot per shard, validate, fuse, and return
//                the full record set exactly as the plain run would have
//                produced it (bitwise: records travel as IEEE-754 bit
//                patterns).
//
// Because trial seeds depend only on (root seed, slot index) and
// aggregation folds in ascending slot order, the three modes are
// interchangeable: shard + merge output is byte-identical to plain.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/snapshot.hpp"

namespace cdpf::sim {

/// Run `count` independent jobs — Monte Carlo trials or per-variant
/// measurements — with `job(i)` producing slot i. With more than one worker,
/// min(workers, count) threads each pull single slot indices from a shared
/// cursor until none is left; otherwise the calling thread runs every slot.
/// Each job writes only its own pre-sized slot and the caller folds the
/// returned vector serially in ascending slot order, so every aggregate is
/// identical for any worker count (see DESIGN.md). `job` must be
/// self-contained: derive the trial RNG from the slot index, never share
/// mutable state across slots.
///
/// Every slot runs even when some throw; afterwards the exception of the
/// lowest-index failing slot is rethrown, so the serial and threaded paths
/// report the same error.
template <typename Result, typename JobFn>
std::vector<Result> run_slots_ordered(std::size_t count, std::size_t workers,
                                      JobFn job) {
  // std::vector<bool> packs slots into shared words: concurrent writes race.
  static_assert(!std::is_same_v<Result, bool>, "use a byte-sized slot type");
  std::vector<Result> results(count);
  std::atomic<std::size_t> cursor{0};
  std::mutex error_mutex;
  std::size_t error_slot = count;
  std::exception_ptr error;
  auto drain = [&] {
    for (std::size_t i = cursor++; i < count; i = cursor++) {
      try {
        results[i] = job(i);
      } catch (...) {
        const std::lock_guard lock(error_mutex);
        if (i < error_slot) {
          error_slot = i;
          error = std::current_exception();
        }
      }
    }
  };
  const std::size_t threads = std::min(workers, count);
  if (threads > 1) {
    // jthreads join on destruction, so a failed spawn still waits for the
    // threads already draining before the stack they reference unwinds.
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back(drain);
    }
  } else {
    drain();
  }
  if (error) {
    std::rethrow_exception(error);
  }
  return results;
}

/// Everything a distributed experiment run must agree on, in one value.
/// Fields that feed the config digest (experiment, trials, seed, config)
/// must match across shards for a merge to be accepted; workers and the
/// shard selector are per-process choices and deliberately excluded.
struct RunSpec {
  std::string experiment;      // registry key, e.g. "fig6"
  std::size_t trials = 10;     // Monte-Carlo repetitions per sweep cell
  std::uint64_t seed = 0;      // root seed of the per-slot seed streams
  std::size_t workers = 1;     // local thread count (not part of digest)
  ShardSpec shard;             // which slots this process owns
  /// Snapshot output path for shard mode; empty selects the default
  /// "<experiment>.shard-<i>of<N>.json" in the working directory.
  std::string shard_out;
  /// Non-empty switches the runner to merge mode: one snapshot per shard.
  std::vector<std::string> merge_paths;
  /// Experiment-specific (key, value) pairs folded into the config digest
  /// so shards of differently-configured runs refuse to fuse.
  std::vector<std::pair<std::string, std::string>> config;
};

/// Executes a RunSpec over a per-slot job. One runner instance handles all
/// three modes; benches branch only on whether run() returned records.
class ExperimentRunner {
 public:
  /// Validates the spec (shard and merge are mutually exclusive; merge
  /// needs at least one path). Throws cdpf::Error on conflict.
  explicit ExperimentRunner(RunSpec spec);

  using SlotJob = std::function<SlotRecord(std::size_t slot)>;

  /// Run the experiment's `slot_count` slots through `job`.
  ///
  ///   * merge mode: `job` is never called; snapshots are loaded,
  ///     validated against this spec's digest, fused, and returned.
  ///   * shard mode: owned slots run (parallel over spec.workers), the
  ///     snapshot is written to snapshot_path(), and nullopt is returned.
  ///   * plain mode: every slot runs and the full record set is returned.
  ///     With --shard-out set a 0/1 snapshot is also written.
  ///
  /// Throws cdpf::Error on snapshot I/O or validation failure.
  std::optional<std::vector<SlotRecord>> run(std::size_t slot_count,
                                             const SlotJob& job);

  /// Canonical configuration fingerprint embedded in snapshots; merge
  /// refuses shards whose digest differs.
  std::string config_digest(std::size_t slot_count) const;

  /// Where shard mode wrote (or will write) its snapshot; empty in plain
  /// mode without --shard-out and in merge mode.
  const std::string& snapshot_path() const { return snapshot_path_; }

  const RunSpec& spec() const { return spec_; }

 private:
  RunSpec spec_;
  std::string snapshot_path_;
};

}  // namespace cdpf::sim
