#include "sim/engine.hpp"

#include <cmath>

#include "sim/observability.hpp"
#include "support/check.hpp"
#include "support/trace.hpp"

namespace cdpf::sim {

double RunOutcome::rmse() const {
  if (scored.empty()) {
    return 0.0;
  }
  double sum_sq = 0.0;
  for (const ScoredEstimate& s : scored) {
    sum_sq += s.position_error * s.position_error;
  }
  return std::sqrt(sum_sq / static_cast<double>(scored.size()));
}

double RunOutcome::mean_error() const {
  if (scored.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const ScoredEstimate& s : scored) {
    sum += s.position_error;
  }
  return sum / static_cast<double>(scored.size());
}

double RunOutcome::max_error() const {
  double worst = 0.0;
  for (const ScoredEstimate& s : scored) {
    worst = std::max(worst, s.position_error);
  }
  return worst;
}

RunOutcome run_tracking(core::TrackerAlgorithm& tracker,
                        const tracking::Trajectory& trajectory, rng::Rng& rng,
                        const StepHook& hook) {
  const double dt = tracker.time_step();
  CDPF_CHECK_MSG(dt > 0.0, "tracker time step must be positive");
  const double duration = trajectory.duration();

  RunOutcome outcome;
  auto score = [&](std::vector<core::TimedEstimate>&& estimates) {
    for (core::TimedEstimate& e : estimates) {
      const tracking::TargetState truth = trajectory.at_time(e.time);
      const double error = geom::distance(e.state.position, truth.position);
      outcome.scored.push_back({std::move(e), truth, error});
    }
  };

  // Iterate at t = dt, 2dt, ... (the state at t = 0 is the initialization
  // instant; the first filter iteration happens after one period).
  {
    CDPF_TRACE_SPAN("engine-run");
    for (double t = 0.0; t <= duration + 1e-9; t += dt) {
      CDPF_TRACE_SPAN("engine-iteration");
      if (hook) {
        CDPF_TRACE_SPAN("engine-step-hook");
        hook(t);
      }
      tracker.iterate(trajectory.at_time(t), t, rng);
      score(tracker.take_estimates());
      ++outcome.iterations;
      CDPF_TRACE_COUNTER("comm-bytes-total",
                         static_cast<double>(tracker.comm_stats().total_bytes()));
    }
    tracker.finalize();
    score(tracker.take_estimates());
  }

  outcome.comm = tracker.comm_stats();
  // Fold the run's communication accounting into the global metrics
  // registry: integer counter additions, so concurrent trials sum exactly.
  observe_comm(outcome.comm);
  return outcome;
}

}  // namespace cdpf::sim
