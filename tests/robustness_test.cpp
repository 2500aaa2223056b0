// Robustness and cross-module behavior tests: the scenarios a deployed
// system hits that the happy-path suites do not — believed-position errors
// inside the filters, failure during tracking, RSS-weighted filters under
// deep fades, mixed extension features enabled together.
#include <gtest/gtest.h>

#include "core/cdpf.hpp"
#include "core/multi_target.hpp"
#include "filters/ospa.hpp"
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
      [](wsn::Network& net, rng::Rng& rng) -> sim::StepHook {
        auto injector = std::make_shared<wsn::FailureInjector>(net);
        auto rng_ptr = std::make_shared<rng::Rng>(rng.fork());
        return [injector, rng_ptr](double) {
          injector->step_hazard(0.004, 5.0, *rng_ptr);
        };
      });
  ASSERT_TRUE(result.outcome.produced_estimates());
  EXPECT_LT(result.outcome.rmse(), 8.0);
}

TEST(Robustness, RssWeightsComposeWithNeighborhoodEstimation) {
  const sim::Scenario scenario = scenario_at(20.0);
  sim::AlgorithmParams params;
  params.cdpf.rss_adaptive_weights = true;
  params.cdpf.rss.sigma_dbm = 6.0;  // heavy shadowing
  const auto result =
      sim::run_trial(scenario, sim::AlgorithmKind::kCdpfNe, params, 75, 0);
  ASSERT_TRUE(result.outcome.produced_estimates());
  EXPECT_LT(result.outcome.rmse(), 12.0);
}

TEST(Robustness, MultiTargetSurvivesCrossingPaths) {
  // Two targets whose trajectories intersect mid-field: gates overlap at
  // the crossing and the tracker must not permanently fuse or lose both.
  rng::Rng deploy_rng(77);
  wsn::Network network = sim::build_network(scenario_at(20.0), deploy_rng);
  wsn::Radio radio(network, wsn::PayloadSizes{});
  core::MultiTargetTracker tracker(network, radio);
  rng::Rng rng(78);

  filters::OspaConfig ospa;
  double after_crossing_ospa = 0.0;
  for (int k = 0; k <= 10; ++k) {
    const double t = 5.0 * k;
    // Diagonal crossings meeting around (100, 100) at t = 25.
    const std::vector<tracking::TargetState> truths{
        {{25.0 + 3.0 * t, 100.0}, {3.0, 0.0}},
        {{100.0, 25.0 + 3.0 * t}, {0.0, 3.0}}};
    tracker.iterate(truths, t, rng);
    if (t >= 40.0) {
      const std::vector<geom::Vec2> truth_positions{truths[0].position,
                                                    truths[1].position};
      after_crossing_ospa =
          filters::ospa_distance(tracker.current_positions(), truth_positions, ospa);
    }
  }
  // After separation the tracker recovers both targets (allow one phantom).
  EXPECT_GE(tracker.live_tracks(), 1u);
  EXPECT_LT(after_crossing_ospa, ospa.cutoff);
}

TEST(Robustness, SnapshotApiAcceptsForeignMeasurements) {
  // The snapshot interface must accept measurements from nodes that are not
  // in the detection set (e.g. relayed or replayed data).
  rng::Rng deploy_rng(81);
  wsn::Network network = sim::build_network(scenario_at(10.0), deploy_rng);
  wsn::Radio radio(network, wsn::PayloadSizes{});
  core::Cdpf filter(network, radio, core::CdpfConfig{});
  rng::Rng rng(82);

  const geom::Vec2 target{100.0, 100.0};
  core::SensingSnapshot snapshot;
  const tracking::BearingMeasurementModel bearing(0.05);
  std::vector<wsn::NodeId> ids;
  network.detecting_nodes(target, ids);
  for (const wsn::NodeId id : ids) {
    snapshot.detections.push_back({id, std::numeric_limits<double>::quiet_NaN()});
  }
  // Measurements from a wider ring than the detections.
  network.nodes_within(target, 15.0, ids);
  for (const wsn::NodeId id : ids) {
    snapshot.measurements.push_back(
        {id, bearing.measure(network.position(id), target, rng)});
  }
  ASSERT_FALSE(snapshot.detections.empty());
  EXPECT_NO_THROW(filter.iterate_snapshot(snapshot, 0.0, rng));
  EXPECT_NO_THROW(filter.iterate_snapshot(snapshot, 5.0, rng));
  EXPECT_FALSE(filter.particles().empty());
}

TEST(Robustness, EmptySnapshotIsANoOpBeforeInitialization) {
  rng::Rng deploy_rng(83);
  wsn::Network network = sim::build_network(scenario_at(5.0), deploy_rng);
  wsn::Radio radio(network, wsn::PayloadSizes{});
  core::Cdpf filter(network, radio, core::CdpfConfig{});
  rng::Rng rng(84);
  filter.iterate_snapshot(core::SensingSnapshot{}, 0.0, rng);
  EXPECT_TRUE(filter.particles().empty());
  EXPECT_TRUE(filter.take_estimates().empty());
  EXPECT_EQ(radio.stats().total_messages(), 0u);
}

}  // namespace
}  // namespace cdpf
