// End-to-end integration tests: full tracking runs of all five algorithms
// over the paper's scenario, asserting the qualitative results of the
// evaluation section (error ordering, communication ordering, the headline
// CDPF-vs-SDPF saving).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "sim/experiment.hpp"
#include "wsn/duty_cycle.hpp"

namespace cdpf::sim {
namespace {

struct Summary {
  double rmse = 0.0;
  double bytes = 0.0;
  double messages = 0.0;
};

std::map<AlgorithmKind, Summary> run_all(double density, std::size_t trials,
                                         std::uint64_t seed) {
  Scenario scenario;
  scenario.density_per_100m2 = density;
  const AlgorithmParams params;
  std::map<AlgorithmKind, Summary> out;
  for (const AlgorithmKind kind : kAllAlgorithms) {
    const MonteCarloResult r = run_monte_carlo(scenario, kind, params, trials, seed);
    EXPECT_EQ(r.trials_without_estimates, 0u) << algorithm_name(kind);
    out[kind] = Summary{r.rmse.mean(), r.total_bytes.mean(), r.total_messages.mean()};
  }
  return out;
}

TEST(Integration, PaperDensity20Orderings) {
  // Density 20 nodes/100 m^2 — the configuration of the paper's Figure 4.
  const auto s = run_all(20.0, 3, 12345);

  // Figure 5 ordering: SDPF > CPF > CDPF > CDPF-NE in total bytes.
  EXPECT_GT(s.at(AlgorithmKind::kSdpf).bytes, s.at(AlgorithmKind::kCpf).bytes);
  EXPECT_GT(s.at(AlgorithmKind::kCpf).bytes, s.at(AlgorithmKind::kCdpf).bytes);
  EXPECT_GT(s.at(AlgorithmKind::kCdpf).bytes, s.at(AlgorithmKind::kCdpfNe).bytes);

  // The paper's headline: CDPF cuts SDPF's communication by ~90% ("as much
  // as 90%"); require at least 75% here.
  EXPECT_LT(s.at(AlgorithmKind::kCdpf).bytes, 0.25 * s.at(AlgorithmKind::kSdpf).bytes);

  // DPF compresses CPF's payload (same messages, fewer bytes).
  EXPECT_LT(s.at(AlgorithmKind::kDpf).bytes, s.at(AlgorithmKind::kCpf).bytes);
  EXPECT_DOUBLE_EQ(s.at(AlgorithmKind::kDpf).messages,
                   s.at(AlgorithmKind::kCpf).messages);

  // Figure 6 ordering: CPF most accurate; CDPF comparable to SDPF (within
  // a factor of 2 either way); CDPF-NE worst.
  EXPECT_LT(s.at(AlgorithmKind::kCpf).rmse, s.at(AlgorithmKind::kSdpf).rmse);
  EXPECT_LT(s.at(AlgorithmKind::kCpf).rmse, s.at(AlgorithmKind::kCdpf).rmse);
  EXPECT_LT(s.at(AlgorithmKind::kCdpf).rmse, 2.0 * s.at(AlgorithmKind::kSdpf).rmse);
  EXPECT_LT(s.at(AlgorithmKind::kSdpf).rmse, 2.0 * s.at(AlgorithmKind::kCdpf).rmse);
  EXPECT_GT(s.at(AlgorithmKind::kCdpfNe).rmse, s.at(AlgorithmKind::kCdpf).rmse);

  // Sanity on absolute accuracy: everything tracks within a few meters.
  EXPECT_LT(s.at(AlgorithmKind::kCpf).rmse, 3.0);
  EXPECT_LT(s.at(AlgorithmKind::kCdpf).rmse, 5.0);
  EXPECT_LT(s.at(AlgorithmKind::kCdpfNe).rmse, 12.0);
}

TEST(Integration, MessageCountsFavorCompletelyDistributedFilters) {
  // The paper's introduction argues message COUNT matters most in
  // duty-cycled networks; CDPF-NE sends the fewest messages of all.
  const auto s = run_all(10.0, 2, 777);
  EXPECT_LT(s.at(AlgorithmKind::kCdpfNe).messages, s.at(AlgorithmKind::kCdpf).messages);
  EXPECT_LT(s.at(AlgorithmKind::kCdpf).messages, s.at(AlgorithmKind::kCpf).messages);
  EXPECT_LT(s.at(AlgorithmKind::kSdpf).messages, s.at(AlgorithmKind::kCpf).messages);
}

TEST(Integration, ErrorsShrinkWithDensityForNodeHostedFilters) {
  // Figure 6: the node-hosted filters' error floor is the node spacing, so
  // RMSE decreases as the deployment gets denser.
  Scenario scenario;
  const AlgorithmParams params;
  for (const AlgorithmKind kind : {AlgorithmKind::kSdpf, AlgorithmKind::kCdpf}) {
    scenario.density_per_100m2 = 5.0;
    const double sparse =
        run_monte_carlo(scenario, kind, params, 3, 31).rmse.mean();
    scenario.density_per_100m2 = 40.0;
    const double dense =
        run_monte_carlo(scenario, kind, params, 3, 31).rmse.mean();
    EXPECT_LT(dense, sparse) << algorithm_name(kind);
  }
}

TEST(Integration, CommunicationGrowsWithDensity) {
  // Figure 5: all curves increase with node density (more detecting nodes,
  // more particles).
  Scenario scenario;
  const AlgorithmParams params;
  for (const AlgorithmKind kind : kAllAlgorithms) {
    scenario.density_per_100m2 = 5.0;
    const double sparse =
        run_monte_carlo(scenario, kind, params, 2, 57).total_bytes.mean();
    scenario.density_per_100m2 = 30.0;
    const double dense =
        run_monte_carlo(scenario, kind, params, 2, 57).total_bytes.mean();
    EXPECT_GT(dense, sparse) << algorithm_name(kind);
  }
}

TEST(Integration, DutyCycledNetworkWithTdssStillTracks) {
  // CDPF on a duty-cycled network (paper §III-C): TDSS proactively wakes
  // the predicted area, so tracking survives 30% duty cycling.
  Scenario scenario;
  scenario.density_per_100m2 = 20.0;
  const AlgorithmParams params;
  const MonteCarloResult r = run_monte_carlo(
      scenario, AlgorithmKind::kCdpf, params, 2, 919, 1,
      [](wsn::Network& net, rng::Rng&) -> StepHook {
        auto schedule = std::make_shared<wsn::DutyCycleSchedule>(10.0, 0.3);
        auto tdss = std::make_shared<wsn::TdssScheduler>(net, 20.0);
        auto last_truth = std::make_shared<geom::Vec2>(0.0, 100.0);
        return [&net, schedule, tdss, last_truth](double t) {
          schedule->apply(net, t);
          // Wake the area around the (approximately known) target path.
          *last_truth = geom::Vec2{3.0 * t, 100.0};
          tdss->wake_predicted_area(*last_truth);
        };
      });
  EXPECT_EQ(r.trials_without_estimates, 0u);
  EXPECT_LT(r.rmse.mean(), 15.0);
}

TEST(Integration, EveryTrackerEstimatesInTheBelievedFrame) {
  // Shift every believed position by one offset. Distances, links and
  // routes stay identical; only the frame the nodes share moves. A sensor
  // measures the bearing from where it really is and shares it with the
  // position it believes it holds, so every tracker must estimate in the
  // believed frame: the mean estimate error is the offset.
  const geom::Vec2 offset{15.0, 0.0};
  const HookFactory shift = [offset](wsn::Network& net, rng::Rng&) -> StepHook {
    std::vector<geom::Vec2> believed;
    believed.reserve(net.size());
    for (wsn::NodeId id = 0; id < net.size(); ++id) {
      believed.push_back(net.true_position(id) + offset);
    }
    net.set_believed_positions(std::move(believed));
    return {};
  };
  for (const double density : {10.0, 20.0}) {
    Scenario scenario;
    scenario.density_per_100m2 = density;
    for (const AlgorithmKind kind : kAllAlgorithms) {
      geom::Vec2 error_sum{};
      std::size_t estimates = 0;
      for (std::size_t trial = 0; trial < 3; ++trial) {
        const TrialResult r =
            run_trial(scenario, kind, AlgorithmParams{}, 20110516, trial, shift);
        for (const ScoredEstimate& s : r.outcome.scored) {
          error_sum += s.estimate.state.position - s.truth.position;
          ++estimates;
        }
      }
      ASSERT_GT(estimates, 0u) << algorithm_name(kind);
      const geom::Vec2 mean_error = error_sum / static_cast<double>(estimates);
      EXPECT_LT(geom::distance(mean_error, offset), 2.5)
          << algorithm_name(kind) << " at density " << density << ": mean error ("
          << mean_error.x << ", " << mean_error.y << ")";
    }
  }
}

}  // namespace
}  // namespace cdpf::sim
