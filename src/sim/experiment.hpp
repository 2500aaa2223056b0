// Scenario construction and Monte-Carlo experiment running.
//
// A Scenario bundles everything a paper experiment varies: the field, the
// radii, the node density, the target trajectory process and the payload
// sizing. run_monte_carlo() repeats a (scenario, algorithm) pair over
// `trials` independently seeded runs — fresh deployment, fresh trajectory,
// fresh filter per trial, exactly like the paper's "ten times with variable
// random seeds" — and aggregates RMSE and communication costs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/cdpf.hpp"
#include "core/cpf.hpp"
#include "core/sdpf.hpp"
#include "core/tracker.hpp"
#include "sim/engine.hpp"
#include "sim/snapshot.hpp"
#include "support/statistics.hpp"
#include "tracking/trajectory.hpp"
#include "wsn/network.hpp"
#include "wsn/radio.hpp"

namespace cdpf::sim {

struct Scenario {
  wsn::NetworkConfig network;                 // 200 x 200 m, r_s 10, r_c 30
  double density_per_100m2 = 20.0;            // paper sweeps 5..40
  tracking::RandomTurnConfig trajectory;      // (0,100), 3 m/s, ±15°, 50 x 1 s
  wsn::PayloadSizes payloads;                 // D_p 16, D_m 4, D_w 4

  std::size_t node_count() const;
};

enum class AlgorithmKind : std::uint8_t {
  kCpf,
  kDpf,
  kSdpf,
  kCdpf,
  kCdpfNe,
};
/// Every tracker kind, in registry order: the paper's comparison set, the
/// names algorithm_from_name() knows and make_tracker() lists when it does
/// not know one.
inline constexpr AlgorithmKind kAllAlgorithms[] = {
    AlgorithmKind::kCpf, AlgorithmKind::kDpf, AlgorithmKind::kSdpf,
    AlgorithmKind::kCdpf, AlgorithmKind::kCdpfNe};

std::string_view algorithm_name(AlgorithmKind kind);

/// Inverse of algorithm_name(): look an algorithm up by its registry-key
/// name ("CPF", "DPF", "SDPF", "CDPF", "CDPF-NE"); nullopt when the name is
/// unknown.
std::optional<AlgorithmKind> algorithm_from_name(std::string_view name);

/// Every registry-key name in registry order, comma-separated: the list
/// make_tracker() reports for an unknown name.
std::string algorithm_names();

/// Per-algorithm tuning knobs, defaulted to the paper's configuration.
struct AlgorithmParams {
  core::CpfConfig cpf;     // also used by the DPF variant
  core::SdpfConfig sdpf;
  core::CdpfConfig cdpf;   // also used by CDPF-NE
};

/// Instantiate a tracker of the given kind over (network, radio).
std::unique_ptr<core::TrackerAlgorithm> make_tracker(AlgorithmKind kind,
                                                     wsn::Network& network,
                                                     wsn::Radio& radio,
                                                     const AlgorithmParams& params);

/// Factory by registry-key name — the single replacement for the per-bench
/// name-switch code. Throws cdpf::Error listing the known names when
/// `name` is not one of them.
std::unique_ptr<core::TrackerAlgorithm> make_tracker(std::string_view name,
                                                     wsn::Network& network,
                                                     wsn::Radio& radio,
                                                     const AlgorithmParams& params);

/// Deploy a fresh uniform-random network for the scenario.
wsn::Network build_network(const Scenario& scenario, rng::Rng& rng);

struct TrialResult {
  RunOutcome outcome;
  std::size_t node_count = 0;
};

/// Run one complete trial (deployment + trajectory + tracking) for the
/// given trial index under `root_seed`. The optional hook factory lets
/// callers attach per-trial environment dynamics (duty cycling, failures);
/// it receives the freshly built network and trial rng and returns the
/// per-step hook (or an empty function).
using HookFactory = std::function<StepHook(wsn::Network&, rng::Rng&)>;
TrialResult run_trial(const Scenario& scenario, AlgorithmKind kind,
                      const AlgorithmParams& params, std::uint64_t root_seed,
                      std::size_t trial_index, const HookFactory& hook_factory = {});

/// Serialize a finished trial for the sharded execution plane. The fixed
/// layout (indices kTrialProduced..kTrialNodeCount below) is what
/// fold_monte_carlo() consumes; experiments may append extra values after
/// it, which the fold ignores.
SlotRecord to_record(const TrialResult& result);

/// Indices into a to_record() SlotRecord.
inline constexpr std::size_t kTrialProduced = 0;       // 1.0 when estimates exist
inline constexpr std::size_t kTrialRmse = 1;           // m
inline constexpr std::size_t kTrialMeanError = 2;      // m
inline constexpr std::size_t kTrialTotalBytes = 3;
inline constexpr std::size_t kTrialTotalMessages = 4;
inline constexpr std::size_t kTrialEstimates = 5;      // scored.size()
inline constexpr std::size_t kTrialNodeCount = 6;
inline constexpr std::size_t kTrialRecordSize = 7;

struct MonteCarloResult {
  support::RunningStats rmse;             // per-trial RMSE (m)
  support::RunningStats mean_error;       // per-trial mean position error (m)
  support::RunningStats total_bytes;      // per-trial communication bytes
  support::RunningStats total_messages;   // per-trial message count
  support::RunningStats estimates;        // estimates produced per trial
  std::size_t trials = 0;
  std::size_t trials_without_estimates = 0;
};

/// Aggregate `count` consecutive trial records starting at `offset` in
/// ascending slot order — the same fold, over the same doubles, in the same
/// order as run_monte_carlo(), so folding records merged from shards is
/// bitwise identical to the single-process aggregate.
MonteCarloResult fold_monte_carlo(const std::vector<SlotRecord>& records,
                                  std::size_t offset, std::size_t count);

/// The slot layout of a sweep: `points` sweep values x `kinds` trackers or
/// variants x `trials` Monte-Carlo repetitions, point-major, then kind, then
/// trial. Trial t of every cell runs under trial index t, so each cell sees
/// the seed stream a standalone run_monte_carlo() would. Extra slots (probes
/// outside the Monte-Carlo region) go after slots().
class SweepGrid {
 public:
  struct Slot {
    std::size_t point;
    std::size_t kind;
    std::size_t trial;
  };

  SweepGrid(std::size_t points, std::size_t kinds, std::size_t trials);

  std::size_t slots() const { return points_ * kinds_ * trials_; }
  std::size_t trials() const { return trials_; }

  /// The (point, kind, trial) of `slot`; the inverse of slot().
  Slot at(std::size_t slot) const;
  /// The slot of trial `trial` of cell (point, kind).
  std::size_t slot(std::size_t point, std::size_t kind, std::size_t trial = 0) const;

  /// fold_monte_carlo() over the trials of cell (point, kind).
  MonteCarloResult fold(const std::vector<SlotRecord>& records, std::size_t point,
                        std::size_t kind) const;

 private:
  std::size_t points_;
  std::size_t kinds_;
  std::size_t trials_;
};

/// Repeat run_trial() `trials` times (trial seeds derived from root_seed)
/// and aggregate. `workers` > 1 distributes trials over worker threads;
/// aggregation order is fixed by trial index either way, so the result is
/// identical for any worker count.
MonteCarloResult run_monte_carlo(const Scenario& scenario, AlgorithmKind kind,
                                 const AlgorithmParams& params, std::size_t trials,
                                 std::uint64_t root_seed, std::size_t workers = 1,
                                 const HookFactory& hook_factory = {});

}  // namespace cdpf::sim
