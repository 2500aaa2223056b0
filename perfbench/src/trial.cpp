#include "trial.hpp"

#include <cmath>
#include <memory>
#include <utility>

#include "geom/vec2.hpp"
#include "random/engine.hpp"
#include "support/check.hpp"
#include "wsn/deployment.hpp"
#include "wsn/duty_cycle.hpp"

namespace perfbench {

namespace sim = cdpf::sim;
namespace wsn = cdpf::wsn;
namespace tracking = cdpf::tracking;

namespace {

// Salt that separates the duty-cycle phase seeds from the trial streams.
constexpr std::uint64_t kChurnPhaseSalt = 0xc4a7'0000'd0c1'0000ull;
constexpr double kDutyPeriodS = 10.0;
constexpr double kDutyAwakeFraction = 0.5;
constexpr double kTdssRadiusM = 25.0;

}  // namespace

sim::Scenario scenario_for(double density) {
  sim::Scenario scenario;
  scenario.density_per_100m2 = density;
  return scenario;
}

sim::HookFactory churn_hook_factory(std::uint64_t root_seed, std::size_t trial,
                                    tracking::Trajectory trajectory) {
  // Nonzero phase seed = randomized (unanticipatable) phases.
  const std::uint64_t phase_seed =
      cdpf::rng::derive_stream_seed(root_seed ^ kChurnPhaseSalt, trial) | 1u;
  auto truth = std::make_shared<tracking::Trajectory>(std::move(trajectory));
  return [phase_seed, truth](wsn::Network& net, cdpf::rng::Rng&) -> sim::StepHook {
    auto schedule = std::make_shared<wsn::DutyCycleSchedule>(
        kDutyPeriodS, kDutyAwakeFraction, phase_seed);
    auto tdss = std::make_shared<wsn::TdssScheduler>(net, kTdssRadiusM);
    return [&net, schedule, tdss, truth](double t) {
      schedule->apply(net, t);
      tdss->wake_predicted_area(truth->at_time(t).position);
      net.set_power(net.sink(), wsn::PowerState::kAwake);
    };
  };
}

tracking::Trajectory replay_trajectory(const sim::Scenario& scenario,
                                       std::uint64_t root_seed, std::size_t trial) {
  cdpf::rng::Rng rng(cdpf::rng::derive_stream_seed(root_seed, trial));
  (void)wsn::deploy_uniform_random(scenario.node_count(), scenario.network.field, rng);
  return tracking::generate_random_turn_trajectory(scenario.trajectory, rng);
}

TrialRecord run_timed_trial(const Cell& cell, std::size_t cell_index,
                            const sim::AlgorithmParams& params, std::uint64_t root_seed,
                            std::size_t trial, bool churn, SpanBuffer& spans) {
  TrialRecord rec;
  rec.cell = cell_index;
  rec.trial = trial;
  const sim::Scenario scenario = scenario_for(cell.density);
  const double radius = scenario.network.sensing_radius;
  const double t_begin = now_s();
  spans.open(SpanName::kTrial, t_begin);
  try {
    spans.open(SpanName::kSetup, t_begin);
    cdpf::rng::Rng rng(cdpf::rng::derive_stream_seed(root_seed, trial));
    wsn::Network network = sim::build_network(scenario, rng);
    const double t_deployed = now_s();
    wsn::Radio radio(network, scenario.payloads);
    const double t_radio = now_s();
    const tracking::Trajectory trajectory =
        tracking::generate_random_turn_trajectory(scenario.trajectory, rng);
    const double t_trajectory = now_s();
    const std::unique_ptr<cdpf::core::TrackerAlgorithm> tracker =
        sim::make_tracker(cell.kind, network, radio, params);
    const double t_constructed = now_s();
    spans.leaf(SpanName::kDeploy, t_begin, t_deployed);
    spans.leaf(SpanName::kRadio, t_deployed, t_radio);
    spans.leaf(SpanName::kTrajectory, t_radio, t_trajectory);
    spans.leaf(SpanName::kConstruct, t_trajectory, t_constructed);
    spans.close(t_constructed);
    rec.deploy_s = t_deployed - t_begin;
    rec.radio_s = t_radio - t_deployed;
    rec.trajectory_s = t_trajectory - t_radio;
    rec.construct_s = t_constructed - t_trajectory;

    sim::StepHook hook;
    if (churn) {
      hook = churn_hook_factory(root_seed, trial, trajectory)(network, rng);
    }

    // Scoring mirrors sim::run_tracking(): truth interpolated at each
    // estimate's own time, errors accumulated in production order.
    double sum_sq = 0.0;
    std::size_t run_above = 0;
    auto score = [&](std::vector<cdpf::core::TimedEstimate>&& estimates) {
      for (const cdpf::core::TimedEstimate& e : estimates) {
        const double error =
            cdpf::geom::distance(e.state.position, trajectory.at_time(e.time).position);
        sum_sq += error * error;
        ++rec.estimates;
        run_above = error > radius ? run_above + 1 : 0;
        rec.track_lost = rec.track_lost || run_above >= kTrackLossRun;
      }
    };

    const double dt = tracker->time_step();
    const double duration = trajectory.duration();
    rec.iter_s.reserve(static_cast<std::size_t>(duration / dt) + 2);
    for (double t = 0.0; t <= duration + 1e-9; t += dt) {
      const double t_iter = now_s();
      spans.open(SpanName::kIteration, t_iter);
      double t_stepped = t_iter;
      if (hook) {
        hook(t);
        t_stepped = now_s();
        spans.leaf(SpanName::kChurn, t_iter, t_stepped);
        rec.churn_s += t_stepped - t_iter;
      }
      tracker->iterate(trajectory.at_time(t), t, rng);
      std::vector<cdpf::core::TimedEstimate> estimates = tracker->take_estimates();
      const double t_iterated = now_s();
      score(std::move(estimates));
      const double t_scored = now_s();
      spans.leaf(SpanName::kIterate, t_stepped, t_iterated);
      spans.leaf(SpanName::kScore, t_iterated, t_scored);
      spans.close(t_scored);
      rec.iter_s.push_back(t_iterated - t_stepped);
      ++rec.iterations;
      if (churn && spans.enabled()) {
        std::size_t active = 0;
        for (std::size_t id = 0; id < network.size(); ++id) {
          active += network.is_active(static_cast<wsn::NodeId>(id)) ? 1U : 0U;
        }
        rec.active_frac_sum +=
            static_cast<double>(active) / static_cast<double>(network.size());
      }
    }
    const double t_final = now_s();
    tracker->finalize();
    score(tracker->take_estimates());
    spans.leaf(SpanName::kFinalize, t_final, now_s());

    const wsn::CommStats& comm = tracker->comm_stats();
    rec.bytes = comm.total_bytes();
    rec.messages = comm.total_messages();
    rec.receptions = comm.total_receptions();
    rec.rmse = rec.estimates == 0
                   ? 0.0
                   : std::sqrt(sum_sq / static_cast<double>(rec.estimates));
  } catch (const cdpf::Error& e) {
    rec.threw = true;
    rec.error = e.what();
  }
  const double t_end = now_s();
  spans.close_all(t_end);
  rec.total_s = t_end - t_begin;
  return rec;
}

double time_setup(const Cell& cell, const sim::AlgorithmParams& params,
                  std::uint64_t root_seed, std::size_t trial) {
  const sim::Scenario scenario = scenario_for(cell.density);
  const double start = now_s();
  cdpf::rng::Rng rng(cdpf::rng::derive_stream_seed(root_seed, trial));
  wsn::Network network = sim::build_network(scenario, rng);
  wsn::Radio radio(network, scenario.payloads);
  const tracking::Trajectory trajectory =
      tracking::generate_random_turn_trajectory(scenario.trajectory, rng);
  const std::unique_ptr<cdpf::core::TrackerAlgorithm> tracker =
      sim::make_tracker(cell.kind, network, radio, params);
  return now_s() - start;
}

}  // namespace perfbench
