// One Monte-Carlo trial, driven call by call through the library's public
// API and timed from outside.
//
// run_timed_trial() performs exactly the calls sim::run_trial() makes, in
// the same order and with the same random stream (deploy, radio,
// trajectory, make_tracker, optional step hook, then iterate /
// take_estimates per period and finalize), so its outcome is bitwise equal
// to run_trial()'s. That equality is the benchmark's correctness gate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "spans.hpp"

namespace perfbench {

/// One (tracker, density) cell of a workload.
struct Cell {
  cdpf::sim::AlgorithmKind kind;
  double density;
};

/// The paper's §VI-A scenario at `density` nodes per 100 m².
cdpf::sim::Scenario scenario_for(double density);

/// The churn environment of the churn-dense workload: before every
/// iteration a randomized 50%-awake duty cycle (10 s period, phases seeded
/// per trial) is applied to every node, TDSS wakes the nodes within 25 m of
/// the true target position, and the sink is kept awake as the always-on
/// base station. Draws nothing from the trial's random stream.
cdpf::sim::HookFactory churn_hook_factory(std::uint64_t root_seed, std::size_t trial,
                                          cdpf::tracking::Trajectory trajectory);

/// The trajectory sim::run_trial() generates for (`scenario`, root seed,
/// trial): replays the deployment draws, then the trajectory draws.
cdpf::tracking::Trajectory replay_trajectory(const cdpf::sim::Scenario& scenario,
                                             std::uint64_t root_seed, std::size_t trial);

/// Everything the benchmark keeps about one trial.
struct TrialRecord {
  std::size_t cell = 0;
  std::size_t trial = 0;
  bool threw = false;
  std::string error;

  // Outcome (deterministic for a fixed seed).
  double rmse = 0.0;
  std::size_t estimates = 0;
  bool track_lost = false;
  std::size_t iterations = 0;
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t receptions = 0;
  double active_frac_sum = 0.0;  // summed over iterations (churn only)

  // Wall times, seconds.
  double deploy_s = 0.0;
  double radio_s = 0.0;
  double trajectory_s = 0.0;
  double construct_s = 0.0;
  double churn_s = 0.0;
  double total_s = 0.0;
  std::vector<double> iter_s;  // iterate() + take_estimates(), per iteration

  /// Kept: did not throw, produced an estimate, never lost the track.
  bool kept() const { return !threw && estimates > 0 && !track_lost; }
  /// An operation failure: threw or produced no estimate.
  bool failed() const { return threw || estimates == 0; }
};

/// Track-loss rule: position error above the sensing radius r_s for this
/// many consecutive estimates.
inline constexpr std::size_t kTrackLossRun = 3;

/// Run trial `trial` of `cell` under `root_seed`. A cdpf::Error thrown by
/// the library is caught and recorded (threw = true).
TrialRecord run_timed_trial(const Cell& cell, std::size_t cell_index,
                            const cdpf::sim::AlgorithmParams& params,
                            std::uint64_t root_seed, std::size_t trial, bool churn,
                            SpanBuffer& spans);

/// Set-up only (deploy, radio, trajectory, make_tracker): wall seconds.
double time_setup(const Cell& cell, const cdpf::sim::AlgorithmParams& params,
                  std::uint64_t root_seed, std::size_t trial);

}  // namespace perfbench
