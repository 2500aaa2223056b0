// Tests for the extension features: RSS model + RSS-adaptive weights,
// GMM-DPF tracker, multi-target tracking, and the ASCII plotter.
#include <gtest/gtest.h>

#include <vector>

#include "core/gmm_dpf.hpp"
#include "core/multi_target.hpp"
#include "filters/ospa.hpp"
#include "geom/angles.hpp"
#include "sim/experiment.hpp"
#include "support/ascii_plot.hpp"
#include "support/check.hpp"
#include "tracking/measurement.hpp"
#include "wsn/deployment.hpp"

namespace cdpf {
namespace {

wsn::Network make_network(std::uint64_t seed, std::size_t count = 8000) {
  rng::Rng rng(seed);
  return wsn::Network(
      wsn::deploy_uniform_random(count, geom::Aabb::square(200.0), rng),
      wsn::NetworkConfig{geom::Aabb::square(200.0), 10.0, 30.0});
}

// --------------------------------------------------------------------- RSS
TEST(RssModel, PathLossIsMonotonicInDistance) {
  const tracking::RssMeasurementModel rss({});
  const geom::Vec2 sensor{0.0, 0.0};
  double previous = 1e9;
  for (double d = 1.0; d <= 50.0; d += 5.0) {
    const double p = rss.ideal(sensor, {d, 0.0});
    EXPECT_LT(p, previous);
    previous = p;
  }
}

TEST(RssModel, InversionRoundTrip) {
  const tracking::RssMeasurementModel rss({});
  const geom::Vec2 sensor{0.0, 0.0};
  for (const double d : {1.0, 3.0, 8.0, 25.0}) {
    EXPECT_NEAR(rss.invert_to_distance(rss.ideal(sensor, {d, 0.0})), d, 1e-9);
  }
  // Readings above the reference power clamp to the reference distance.
  EXPECT_DOUBLE_EQ(rss.invert_to_distance(100.0), 1.0);
}

TEST(RssModel, LikelihoodPrefersConsistentDistance) {
  const tracking::RssMeasurementModel rss({});
  const geom::Vec2 sensor{0.0, 0.0};
  const double z = rss.ideal(sensor, {5.0, 0.0});
  EXPECT_GT(rss.log_likelihood(z, sensor, {5.0, 0.0}),
            rss.log_likelihood(z, sensor, {9.0, 0.0}));
}

TEST(RssModel, MeasurementNoiseMoments) {
  const tracking::RssMeasurementModel rss({});
  rng::Rng rng(21);
  const geom::Vec2 sensor{0.0, 0.0}, target{7.0, 0.0};
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rss.measure(sensor, target, rng) - rss.ideal(sensor, target);
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
}

TEST(RssAdaptiveWeights, CdpfStillTracksWithRssWeighting) {
  wsn::Network network = make_network(22);
  wsn::Radio radio(network, wsn::PayloadSizes{});
  core::CdpfConfig config;
  config.rss_adaptive_weights = true;
  core::Cdpf filter(network, radio, config);
  rng::Rng rng(23);
  for (int k = 0; k <= 5; ++k) {
    const double t = 5.0 * k;
    filter.iterate({{60.0 + 3.0 * t, 100.0}, {3.0, 0.0}}, t, rng);
  }
  filter.finalize();
  const auto estimates = filter.take_estimates();
  ASSERT_FALSE(estimates.empty());
  const auto& last = estimates.back();
  EXPECT_LT(geom::distance(last.state.position,
                           {60.0 + 3.0 * last.time, 100.0}),
            5.0);
}

// ----------------------------------------------------------------- GMM-DPF
TEST(GmmDpf, TracksTheStandardScenario) {
  wsn::Network network = make_network(25);
  wsn::Radio radio(network, wsn::PayloadSizes{});
  core::GmmDpf filter(network, radio, core::GmmDpfConfig{});
  rng::Rng rng(26);
  EXPECT_EQ(filter.name(), "GMM-DPF");
  for (int k = 0; k <= 30; ++k) {
    const double t = static_cast<double>(k);
    filter.iterate({{40.0 + 3.0 * t, 90.0}, {3.0, 0.0}}, t, rng);
  }
  const auto estimates = filter.take_estimates();
  ASSERT_GE(estimates.size(), 25u);
  const auto& last = estimates.back();
  EXPECT_LT(geom::distance(last.state.position, {40.0 + 3.0 * last.time, 90.0}), 3.0);
  // The head moved with the target at least once, forcing a GMM handoff.
  EXPECT_GT(filter.handoffs(), 0u);
  EXPECT_GT(radio.stats().messages(wsn::MessageKind::kMeasurement), 0u);
  EXPECT_GT(radio.stats().messages(wsn::MessageKind::kParticle), 0u);  // handoffs
}

TEST(GmmDpf, CostSitsBetweenCdpfAndSdpf) {
  sim::Scenario scenario;
  scenario.density_per_100m2 = 20.0;
  const sim::AlgorithmParams params;
  const auto gmm =
      sim::run_trial(scenario, sim::AlgorithmKind::kGmmDpf, params, 27, 0);
  const auto sdpf =
      sim::run_trial(scenario, sim::AlgorithmKind::kSdpf, params, 27, 0);
  ASSERT_TRUE(gmm.outcome.produced_estimates());
  EXPECT_LT(gmm.outcome.comm.total_bytes(), sdpf.outcome.comm.total_bytes());
  EXPECT_LT(gmm.outcome.rmse(), 3.0);
}

// ------------------------------------------------------------- multi-target
TEST(MultiTarget, TracksTwoSeparatedTargets) {
  wsn::Network network = make_network(28);
  wsn::Radio radio(network, wsn::PayloadSizes{});
  core::MultiTargetTracker tracker(network, radio);
  rng::Rng rng(29);

  auto truth_at = [](double t) {
    return std::vector<tracking::TargetState>{
        {{30.0 + 3.0 * t, 60.0}, {3.0, 0.0}},
        {{170.0 - 3.0 * t, 140.0}, {-3.0, 0.0}}};
  };
  filters::OspaConfig ospa;
  double final_ospa = 0.0;
  for (int k = 0; k <= 8; ++k) {
    const double t = 5.0 * k;
    const auto truths = truth_at(t);
    tracker.iterate(truths, t, rng);
    const std::vector<geom::Vec2> truth_positions{truths[0].position,
                                                  truths[1].position};
    final_ospa = filters::ospa_distance(tracker.current_positions(),
                                        truth_positions, ospa);
  }
  EXPECT_GE(tracker.live_tracks(), 2u);
  EXPECT_LE(tracker.live_tracks(), 3u);  // at most one transient phantom
  EXPECT_LT(final_ospa, 15.0);
}

TEST(MultiTarget, TracksDieWhenTargetsLeave) {
  wsn::Network network = make_network(30);
  wsn::Radio radio(network, wsn::PayloadSizes{});
  core::MultiTargetTracker tracker(network, radio);
  rng::Rng rng(31);
  const std::vector<tracking::TargetState> inside{{{100.0, 100.0}, {3.0, 0.0}}};
  tracker.iterate(inside, 0.0, rng);
  tracker.iterate(inside, 5.0, rng);
  EXPECT_GE(tracker.live_tracks(), 1u);
  // The target vanishes; after the miss limit (two iterations) the track dies.
  const std::vector<tracking::TargetState> gone;
  for (int k = 2; k < 9; ++k) {
    tracker.iterate(gone, 5.0 * k, rng);
  }
  EXPECT_EQ(tracker.live_tracks(), 0u);
}

TEST(MultiTarget, SingleTargetDoesNotSplit) {
  wsn::Network network = make_network(32);
  wsn::Radio radio(network, wsn::PayloadSizes{});
  core::MultiTargetTracker tracker(network, radio);
  rng::Rng rng(33);
  for (int k = 0; k <= 8; ++k) {
    const double t = 5.0 * k;
    tracker.iterate(
        std::vector<tracking::TargetState>{{{40.0 + 3.0 * t, 100.0}, {3.0, 0.0}}}, t,
        rng);
  }
  EXPECT_EQ(tracker.live_tracks(), 1u);
}

// -------------------------------------------------------------- ascii plot
TEST(AsciiPlot, RendersPointsInsideWindowOnly) {
  support::AsciiPlot plot(0.0, 10.0, 0.0, 10.0, 20, 10);
  plot.point(5.0, 5.0, '*');
  plot.point(50.0, 5.0, 'X');  // outside: ignored
  const std::string out = plot.render();
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_EQ(out.find('X'), std::string::npos);
}

TEST(AsciiPlot, PolylineConnectsPoints) {
  support::AsciiPlot plot(0.0, 100.0, 0.0, 100.0, 50, 20);
  plot.polyline({{0.0, 50.0}, {100.0, 50.0}}, '-');
  const std::string out = plot.render();
  // A horizontal line leaves a long run of '-' glyphs.
  EXPECT_GT(std::count(out.begin(), out.end(), '-'), 40);
}

TEST(AsciiPlot, InvalidWindowRejected) {
  EXPECT_THROW(support::AsciiPlot(10.0, 0.0, 0.0, 10.0), Error);
  EXPECT_THROW(support::AsciiPlot(0.0, 10.0, 0.0, 10.0, 1, 1), Error);
}

}  // namespace
}  // namespace cdpf
