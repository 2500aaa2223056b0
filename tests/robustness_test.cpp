// Robustness and cross-module behavior tests: the scenarios a deployed
// system hits that the happy-path suites do not — believed-position errors
// inside the filters, failure during tracking, and a target no node detects.
#include <gtest/gtest.h>

#include "core/cdpf.hpp"
#include "sim/experiment.hpp"
#include "support/check.hpp"
#include "wsn/failure.hpp"
#include "wsn/localization.hpp"

namespace cdpf {
namespace {

sim::Scenario scenario_at(double density) {
  sim::Scenario s;
  s.density_per_100m2 = density;
  return s;
}

TEST(Robustness, CdpfTracksOnLocalizedMap) {
  // End-to-end: self-localized believed positions feed the whole pipeline.
  const sim::Scenario scenario = scenario_at(20.0);
  const sim::AlgorithmParams params;
  const auto result = sim::run_trial(
      scenario, sim::AlgorithmKind::kCdpf, params, 71, 0,
      [](wsn::Network& net, rng::Rng& rng) -> sim::StepHook {
        wsn::LocalizationConfig config;
        config.anchor_fraction = 0.1;
        config.range_sigma_m = 1.0;
        net.set_believed_positions(wsn::localize(net, config, rng).positions);
        return {};
      });
  ASSERT_TRUE(result.outcome.produced_estimates());
  EXPECT_LT(result.outcome.rmse(), 6.0);
}

TEST(Robustness, ContinuousAttritionDegradesGracefully) {
  const sim::Scenario scenario = scenario_at(20.0);
  const sim::AlgorithmParams params;
  // ~0.4%/s hazard kills ~18% of the field during the 50 s run.
  const auto result = sim::run_trial(
      scenario, sim::AlgorithmKind::kCdpf, params, 73, 0,
      [](wsn::Network& net, rng::Rng&) -> sim::StepHook {
        auto injector = std::make_shared<wsn::FailureInjector>(net);
        auto rng_ptr = std::make_shared<rng::Rng>(74);
        return [injector, rng_ptr](double) {
          injector->step_hazard(0.004, 5.0, *rng_ptr);
        };
      });
  ASSERT_TRUE(result.outcome.produced_estimates());
  EXPECT_LT(result.outcome.rmse(), 8.0);
}

TEST(Robustness, EmptySnapshotIsANoOpBeforeInitialization) {
  rng::Rng deploy_rng(83);
  wsn::Network network = sim::build_network(scenario_at(5.0), deploy_rng);
  wsn::Radio radio(network, wsn::PayloadSizes{});
  core::Cdpf filter(network, radio, core::CdpfConfig{});
  rng::Rng rng(84);
  // A target outside the field: no node detects it, so the sensed snapshot
  // is empty.
  const tracking::TargetState outside{{-50.0, -50.0}, {3.0, 0.0}};
  std::vector<wsn::NodeId> detecting;
  ASSERT_EQ(network.detecting_nodes(outside.position, detecting), 0u);
  filter.iterate(outside, 0.0, rng);
  filter.iterate(outside, 5.0, rng);
  filter.finalize();
  EXPECT_TRUE(filter.particles().empty());
  EXPECT_TRUE(filter.take_estimates().empty());
  EXPECT_EQ(radio.stats().total_messages(), 0u);
}

}  // namespace
}  // namespace cdpf
