#include "sim/experiment.hpp"

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/runspec.hpp"
#include "support/check.hpp"
#include "support/trace.hpp"
#include "wsn/deployment.hpp"

namespace cdpf::sim {

namespace {

/// Bearing quantization levels of the DPF baseline: P = 1 byte.
constexpr std::size_t kDpfQuantizationLevels = 256;

/// What a trial runs on, built in the order the trial's random stream
/// draws it: deployment, radio, trajectory, tracker, step hook.
struct TrialWorld {
  TrialWorld(const Scenario& scenario, AlgorithmKind kind, const AlgorithmParams& params,
             rng::Rng& rng, const HookFactory& hook_factory)
      : network(build_network(scenario, rng)),
        radio(network, scenario.payloads),
        trajectory(tracking::generate_random_turn_trajectory(scenario.trajectory, rng)),
        tracker(make_tracker(kind, network, radio, params)),
        hook(hook_factory ? hook_factory(network, rng) : StepHook{}) {}

  wsn::Network network;
  wsn::Radio radio;
  const tracking::Trajectory trajectory;
  const std::unique_ptr<core::TrackerAlgorithm> tracker;
  const StepHook hook;
};

}  // namespace

std::size_t Scenario::node_count() const {
  return wsn::node_count_for_density(density_per_100m2, network.field);
}

std::string_view algorithm_name(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kCpf: return "CPF";
    case AlgorithmKind::kDpf: return "DPF";
    case AlgorithmKind::kSdpf: return "SDPF";
    case AlgorithmKind::kCdpf: return "CDPF";
    case AlgorithmKind::kCdpfNe: return "CDPF-NE";
  }
  return "?";
}

std::optional<AlgorithmKind> algorithm_from_name(std::string_view name) {
  for (const AlgorithmKind kind : kAllAlgorithms) {
    if (algorithm_name(kind) == name) {
      return kind;
    }
  }
  return std::nullopt;
}

std::string algorithm_names() {
  std::string names;
  for (const AlgorithmKind kind : kAllAlgorithms) {
    names += names.empty() ? "" : ", ";
    names += algorithm_name(kind);
  }
  return names;
}

std::unique_ptr<core::TrackerAlgorithm> make_tracker(AlgorithmKind kind,
                                                     wsn::Network& network,
                                                     wsn::Radio& radio,
                                                     const AlgorithmParams& params) {
  switch (kind) {
    case AlgorithmKind::kCpf: {
      core::CpfConfig config = params.cpf;
      config.quantization_levels.reset();
      return std::make_unique<core::CentralizedPf>(network, radio, config);
    }
    case AlgorithmKind::kDpf: {
      core::CpfConfig config = params.cpf;
      config.quantization_levels = kDpfQuantizationLevels;
      return std::make_unique<core::CentralizedPf>(network, radio, config);
    }
    case AlgorithmKind::kSdpf:
      return std::make_unique<core::Sdpf>(network, radio, params.sdpf);
    case AlgorithmKind::kCdpf: {
      core::CdpfConfig config = params.cdpf;
      config.use_neighborhood_estimation = false;
      return std::make_unique<core::Cdpf>(network, radio, config);
    }
    case AlgorithmKind::kCdpfNe: {
      core::CdpfConfig config = params.cdpf;
      config.use_neighborhood_estimation = true;
      return std::make_unique<core::Cdpf>(network, radio, config);
    }
  }
  throw Error("unknown algorithm kind");
}

std::unique_ptr<core::TrackerAlgorithm> make_tracker(std::string_view name,
                                                     wsn::Network& network,
                                                     wsn::Radio& radio,
                                                     const AlgorithmParams& params) {
  const std::optional<AlgorithmKind> kind = algorithm_from_name(name);
  if (!kind) {
    throw Error("unknown algorithm '" + std::string(name) +
                "' (known: " + algorithm_names() + ")");
  }
  return make_tracker(*kind, network, radio, params);
}

wsn::Network build_network(const Scenario& scenario, rng::Rng& rng) {
  const std::size_t count = scenario.node_count();
  return wsn::Network(wsn::deploy_uniform_random(count, scenario.network.field, rng),
                      scenario.network);
}

TrialResult run_trial(const Scenario& scenario, AlgorithmKind kind,
                      const AlgorithmParams& params, std::uint64_t root_seed,
                      std::size_t trial_index, const HookFactory& hook_factory) {
  CDPF_TRACE_SPAN("trial-run");
  rng::Rng rng(rng::derive_stream_seed(root_seed, trial_index));
  std::optional<TrialWorld> world;
  {
    CDPF_TRACE_SPAN("trial-setup");
    world.emplace(scenario, kind, params, rng, hook_factory);
  }
  TrialResult result;
  result.node_count = world->network.size();
  result.outcome = run_tracking(*world->tracker, world->trajectory, rng, world->hook);
  return result;
}

SlotRecord to_record(const TrialResult& result) {
  SlotRecord record;
  record.values.resize(kTrialRecordSize);
  record.values[kTrialProduced] = result.outcome.produced_estimates() ? 1.0 : 0.0;
  record.values[kTrialRmse] = result.outcome.rmse();
  record.values[kTrialMeanError] = result.outcome.mean_error();
  record.values[kTrialTotalBytes] =
      static_cast<double>(result.outcome.comm.total_bytes());
  record.values[kTrialTotalMessages] =
      static_cast<double>(result.outcome.comm.total_messages());
  record.values[kTrialEstimates] = static_cast<double>(result.outcome.scored.size());
  record.values[kTrialNodeCount] = static_cast<double>(result.node_count);
  return record;
}

MonteCarloResult fold_monte_carlo(const std::vector<SlotRecord>& records,
                                  std::size_t offset, std::size_t count) {
  CDPF_CHECK_MSG(offset + count <= records.size(),
                 "fold range exceeds the record set");
  MonteCarloResult aggregate;
  aggregate.trials = count;
  for (std::size_t i = offset; i < offset + count; ++i) {
    const std::vector<double>& v = records[i].values;
    CDPF_CHECK_MSG(v.size() >= kTrialRecordSize,
                   "slot record is too short for a Monte-Carlo trial");
    if (v[kTrialProduced] == 0.0) {
      ++aggregate.trials_without_estimates;
      continue;
    }
    aggregate.rmse.add(v[kTrialRmse]);
    aggregate.mean_error.add(v[kTrialMeanError]);
    aggregate.total_bytes.add(v[kTrialTotalBytes]);
    aggregate.total_messages.add(v[kTrialTotalMessages]);
    aggregate.estimates.add(v[kTrialEstimates]);
  }
  return aggregate;
}

SweepGrid::SweepGrid(std::size_t points, std::size_t kinds, std::size_t trials)
    : points_(points), kinds_(kinds), trials_(trials) {
  CDPF_CHECK_MSG(points > 0 && kinds > 0 && trials > 0,
                 "a sweep grid needs at least one point, kind and trial");
}

SweepGrid::Slot SweepGrid::at(std::size_t slot) const {
  CDPF_CHECK_MSG(slot < slots(), "slot is outside the sweep grid");
  const std::size_t cell = slot / trials_;
  return {cell / kinds_, cell % kinds_, slot % trials_};
}

std::size_t SweepGrid::slot(std::size_t point, std::size_t kind,
                            std::size_t trial) const {
  CDPF_CHECK_MSG(point < points_ && kind < kinds_ && trial < trials_,
                 "cell is outside the sweep grid");
  return (point * kinds_ + kind) * trials_ + trial;
}

MonteCarloResult SweepGrid::fold(const std::vector<SlotRecord>& records,
                                 std::size_t point, std::size_t kind) const {
  return fold_monte_carlo(records, slot(point, kind), trials_);
}

MonteCarloResult run_monte_carlo(const Scenario& scenario, AlgorithmKind kind,
                                 const AlgorithmParams& params, std::size_t trials,
                                 std::uint64_t root_seed, std::size_t workers,
                                 const HookFactory& hook_factory) {
  CDPF_CHECK_MSG(trials > 0, "Monte Carlo needs at least one trial");
  CDPF_TRACE_SPAN("monte-carlo-run");
  const std::vector<SlotRecord> records =
      run_slots_ordered<SlotRecord>(trials, workers, [&](std::size_t t) {
        return to_record(run_trial(scenario, kind, params, root_seed, t,
                                   hook_factory));
      });
  return fold_monte_carlo(records, 0, trials);
}

}  // namespace cdpf::sim
