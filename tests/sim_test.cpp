// Tests for the simulation engine, the slot dispatcher and the Monte-Carlo
// runner.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/runspec.hpp"
#include "support/check.hpp"

namespace cdpf::sim {
namespace {

TEST(RunSlotsOrdered, EverySlotRunsOnceIntoItsSlot) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    for (const std::size_t count : {std::size_t{0}, std::size_t{3}, std::size_t{10007}}) {
      std::vector<std::atomic<int>> hits(count);
      const std::vector<std::uint64_t> results =
          run_slots_ordered<std::uint64_t>(count, workers, [&](std::size_t i) {
            hits[i].fetch_add(1);
            return std::uint64_t{i} * 7919u + 1u;
          });
      ASSERT_EQ(results.size(), count) << "workers=" << workers;
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " slot=" << i;
        EXPECT_EQ(results[i], std::uint64_t{i} * 7919u + 1u)
            << "workers=" << workers << " slot=" << i;
      }
    }
  }
}

TEST(RunSlotsOrdered, RethrowsLowestFailingSlotAfterRunningEverySlot) {
  constexpr std::size_t kCount = 64;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::atomic<int>> hits(kCount);
    try {
      (void)run_slots_ordered<int>(kCount, workers, [&](std::size_t i) {
        hits[i].fetch_add(1);
        if (i == 7) {
          // Fail last in time, so threaded runs see slots 20 and 50 fail first.
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        if (i == 50 || i == 7 || i == 20) {
          throw std::runtime_error("slot " + std::to_string(i));
        }
        return static_cast<int>(i);
      });
      ADD_FAILURE() << "no exception, workers=" << workers;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "slot 7") << "workers=" << workers;
    }
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " slot=" << i;
    }
  }
}

TEST(RunSlotsOrdered, MoreWorkersThanSlotsRunsEverySlot) {
  const std::vector<int> results =
      run_slots_ordered<int>(3, 16, [](std::size_t i) { return static_cast<int>(i) + 1; });
  EXPECT_EQ(results, (std::vector<int>{1, 2, 3}));
}

TEST(RunOutcome, ErrorMetrics) {
  RunOutcome outcome;
  EXPECT_DOUBLE_EQ(outcome.rmse(), 0.0);
  EXPECT_FALSE(outcome.produced_estimates());
  auto scored = [](double err) {
    ScoredEstimate s;
    s.position_error = err;
    return s;
  };
  outcome.scored = {scored(3.0), scored(4.0)};
  EXPECT_DOUBLE_EQ(outcome.rmse(), std::sqrt((9.0 + 16.0) / 2.0));
  EXPECT_DOUBLE_EQ(outcome.mean_error(), 3.5);
  EXPECT_DOUBLE_EQ(outcome.max_error(), 4.0);
  EXPECT_TRUE(outcome.produced_estimates());
}

TEST(Scenario, NodeCountFollowsPaperDensities) {
  Scenario s;
  s.density_per_100m2 = 20.0;
  EXPECT_EQ(s.node_count(), 8000u);
  s.density_per_100m2 = 40.0;
  EXPECT_EQ(s.node_count(), 16000u);
}

TEST(Algorithms, NamesAndFactory) {
  EXPECT_EQ(algorithm_name(AlgorithmKind::kCpf), "CPF");
  EXPECT_EQ(algorithm_name(AlgorithmKind::kCdpfNe), "CDPF-NE");
  Scenario scenario;
  scenario.density_per_100m2 = 5.0;
  rng::Rng rng(801);
  wsn::Network network = build_network(scenario, rng);
  wsn::Radio radio(network, scenario.payloads);
  const AlgorithmParams params;
  for (const AlgorithmKind kind : kAllAlgorithms) {
    const auto tracker = make_tracker(kind, network, radio, params);
    EXPECT_EQ(tracker->name(), algorithm_name(kind));
    EXPECT_GT(tracker->time_step(), 0.0);
  }
}

TEST(Engine, ScoresEstimatesAgainstInterpolatedTruth) {
  // A stub tracker that reports the true position with a fixed 1 m offset.
  class StubTracker final : public core::TrackerAlgorithm {
   public:
    std::string_view name() const override { return "stub"; }
    double time_step() const override { return 2.0; }
    void iterate(const tracking::TargetState& truth, double time, rng::Rng&) override {
      pending_estimates_.push_back(
          {{truth.position + geom::Vec2{1.0, 0.0}, truth.velocity}, time});
    }
    const wsn::CommStats& comm_stats() const override { return stats_; }

   private:
    wsn::CommStats stats_;
  };

  std::vector<tracking::TargetState> states;
  for (int k = 0; k <= 10; ++k) {
    states.push_back({{static_cast<double>(k), 0.0}, {1.0, 0.0}});
  }
  const tracking::Trajectory trajectory(states, 1.0);
  StubTracker tracker;
  rng::Rng rng(803);
  int hook_calls = 0;
  const RunOutcome outcome =
      run_tracking(tracker, trajectory, rng, [&hook_calls](double) { ++hook_calls; });
  EXPECT_EQ(outcome.iterations, 6u);  // t = 0, 2, ..., 10
  EXPECT_EQ(hook_calls, 6);
  ASSERT_EQ(outcome.scored.size(), 6u);
  for (const ScoredEstimate& s : outcome.scored) {
    EXPECT_NEAR(s.position_error, 1.0, 1e-12);
  }
  EXPECT_NEAR(outcome.rmse(), 1.0, 1e-12);
}

TEST(Experiment, TrialsAreDeterministicInSeed) {
  Scenario scenario;
  scenario.density_per_100m2 = 5.0;
  scenario.trajectory.num_steps = 20;
  const AlgorithmParams params;
  const TrialResult a = run_trial(scenario, AlgorithmKind::kCdpf, params, 99, 0);
  const TrialResult b = run_trial(scenario, AlgorithmKind::kCdpf, params, 99, 0);
  EXPECT_DOUBLE_EQ(a.outcome.rmse(), b.outcome.rmse());
  EXPECT_EQ(a.outcome.comm.total_bytes(), b.outcome.comm.total_bytes());
  const TrialResult c = run_trial(scenario, AlgorithmKind::kCdpf, params, 99, 1);
  EXPECT_NE(a.outcome.comm.total_bytes(), c.outcome.comm.total_bytes());
}

TEST(Experiment, MonteCarloIndependentOfWorkerCount) {
  Scenario scenario;
  scenario.density_per_100m2 = 5.0;
  scenario.trajectory.num_steps = 20;
  const AlgorithmParams params;
  // Every aggregate must match bit for bit: trial seeds derive from the
  // trial index and aggregation order is fixed, so the worker count may not
  // leak into any statistic. Exercised for both CDPF variants and with more
  // workers than trials (some workers idle).
  const auto expect_identical = [](const MonteCarloResult& a,
                                   const MonteCarloResult& b) {
    EXPECT_DOUBLE_EQ(a.rmse.mean(), b.rmse.mean());
    EXPECT_DOUBLE_EQ(a.mean_error.mean(), b.mean_error.mean());
    EXPECT_DOUBLE_EQ(a.total_bytes.mean(), b.total_bytes.mean());
    EXPECT_DOUBLE_EQ(a.total_messages.mean(), b.total_messages.mean());
    EXPECT_DOUBLE_EQ(a.estimates.mean(), b.estimates.mean());
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.trials_without_estimates, b.trials_without_estimates);
  };
  for (const AlgorithmKind kind : {AlgorithmKind::kCdpf, AlgorithmKind::kCdpfNe}) {
    const MonteCarloResult serial =
        run_monte_carlo(scenario, kind, params, 4, 7, /*workers=*/1);
    const MonteCarloResult parallel =
        run_monte_carlo(scenario, kind, params, 4, 7, /*workers=*/4);
    const MonteCarloResult oversubscribed =
        run_monte_carlo(scenario, kind, params, 4, 7, /*workers=*/9);
    expect_identical(serial, parallel);
    expect_identical(serial, oversubscribed);
    EXPECT_EQ(serial.trials, 4u);
  }
}

TEST(Experiment, HookFactoryReceivesNetwork) {
  Scenario scenario;
  scenario.density_per_100m2 = 5.0;
  scenario.trajectory.num_steps = 10;
  const AlgorithmParams params;
  std::size_t seen_nodes = 0;
  int hook_calls = 0;
  run_trial(scenario, AlgorithmKind::kCdpf, params, 5, 0,
            [&](wsn::Network& net, rng::Rng&) -> StepHook {
              seen_nodes = net.size();
              return [&hook_calls](double) { ++hook_calls; };
            });
  EXPECT_EQ(seen_nodes, 2000u);
  EXPECT_GT(hook_calls, 0);
}

TEST(Experiment, ZeroTrialsRejected) {
  Scenario scenario;
  const AlgorithmParams params;
  EXPECT_THROW(run_monte_carlo(scenario, AlgorithmKind::kCpf, params, 0, 1), Error);
}

}  // namespace
}  // namespace cdpf::sim
