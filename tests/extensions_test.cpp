// Tests for the extension features: the GMM-DPF tracker and the ASCII
// plotter.
#include <gtest/gtest.h>

#include <vector>

#include "core/gmm_dpf.hpp"
#include "geom/angles.hpp"
#include "sim/experiment.hpp"
#include "support/ascii_plot.hpp"
#include "support/check.hpp"
#include "wsn/deployment.hpp"

namespace cdpf {
namespace {

wsn::Network make_network(std::uint64_t seed, std::size_t count = 8000) {
  rng::Rng rng(seed);
  return wsn::Network(
      wsn::deploy_uniform_random(count, geom::Aabb::square(200.0), rng),
      wsn::NetworkConfig{geom::Aabb::square(200.0), 10.0, 30.0});
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
