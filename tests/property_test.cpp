// Property-style parameterized sweeps: invariants that must hold across
// densities, seeds, radii and schemes — the paper's structural claims as
// executable properties.
#include <gtest/gtest.h>

#include <memory>

#include "core/cost_model.hpp"
#include "core/propagation.hpp"
#include "filters/resampling.hpp"
#include "sim/experiment.hpp"
#include "tracking/motion_model.hpp"
#include "wsn/deployment.hpp"

namespace cdpf {
namespace {

// ---------------------------------------------------------------------------
// Overhearing completeness across densities and seeds (paper §IV-A). The
// guarantee requires the propagation "not to reach too far" (paper's own
// caveat): r_s + host spread + per-step travel <= r_c. Hosts are spread
// over a 5 m disk (10 m diameter), travel <= ~4 m per 1 s step, and the
// record radius is r_s = 10 m: 10 + 10 + 4 = 24 <= 30. Under these
// conditions EVERY recorder must overhear the full weight total.
// ---------------------------------------------------------------------------
class OverhearingSweep
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(OverhearingSweep, RecordersAlwaysHearTheFullTotal) {
  const auto [density, seed] = GetParam();
  rng::Rng rng(seed);
  const geom::Aabb field = geom::Aabb::square(200.0);
  const auto positions =
      wsn::deploy_uniform_random(wsn::node_count_for_density(density, field), field, rng);
  wsn::Network net(positions, wsn::NetworkConfig{field, 10.0, 30.0});
  wsn::Radio radio(net, wsn::PayloadSizes{});

  core::ParticleStore store;
  const geom::Vec2 target{rng.uniform(40.0, 160.0), rng.uniform(40.0, 160.0)};
  std::vector<wsn::NodeId> hosts;
  net.nodes_within(target, 5.0, hosts);
  for (const wsn::NodeId id : hosts) {
    store.add(id, {rng.uniform(2.0, 3.0), rng.uniform(-1.0, 1.0)}, rng.uniform(0.5, 2.0));
  }
  if (store.empty()) {
    GTEST_SKIP() << "no nodes near the sampled target";
  }

  const tracking::RandomTurnMotionModel motion(1.0, 1.0, 0.0, 0.0);  // straight line
  core::PropagationOutcome outcome;
  core::PropagationScratch scratch;
  core::propagate_particles_into(store, net, radio, motion, rng, outcome, scratch);
  for (const core::NodeParticle& particle : outcome.next.particles()) {
    const core::OverheardAggregate heard = core::overheard_by(particle.host, store, net);
    ASSERT_GT(heard.particles_heard, 0u);
    ASSERT_NEAR(heard.total_weight, outcome.global.total_weight, 1e-9)
        << "density " << density << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(DensitySeedGrid, OverhearingSweep,
                         ::testing::Combine(::testing::Values(5.0, 10.0, 20.0, 40.0),
                                            ::testing::Values(1u, 2u, 3u)));

// ---------------------------------------------------------------------------
// Propagation conserves weight for every density/seed (division rule 1).
// ---------------------------------------------------------------------------
class ConservationSweep
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(ConservationSweep, DivisionPreservesTotalWeight) {
  const auto [density, seed] = GetParam();
  rng::Rng rng(seed + 5000);
  const geom::Aabb field = geom::Aabb::square(200.0);
  const auto positions =
      wsn::deploy_uniform_random(wsn::node_count_for_density(density, field), field, rng);
  wsn::Network net(positions, wsn::NetworkConfig{field, 10.0, 30.0});
  wsn::Radio radio(net, wsn::PayloadSizes{});

  core::ParticleStore store;
  std::vector<wsn::NodeId> hosts;
  net.nodes_within({100.0, 100.0}, 10.0, hosts);
  for (const wsn::NodeId id : hosts) {
    store.add(id, {3.0, 0.0}, rng.uniform(0.1, 1.0));
  }
  if (store.empty()) {
    GTEST_SKIP();
  }
  const double total_in = store.total_weight();
  const tracking::RandomTurnMotionModel motion(5.0, 5.0, 0.0, 0.0);  // straight line
  core::PropagationOutcome outcome;
  core::PropagationScratch scratch;
  core::propagate_particles_into(store, net, radio, motion, rng, outcome, scratch);
  ASSERT_EQ(outcome.lost_particles, 0u);
  ASSERT_NEAR(outcome.next.total_weight(), total_in, 1e-9 * total_in);
}

INSTANTIATE_TEST_SUITE_P(DensitySeedGrid, ConservationSweep,
                         ::testing::Combine(::testing::Values(5.0, 15.0, 30.0),
                                            ::testing::Values(11u, 12u, 13u)));

// ---------------------------------------------------------------------------
// Resampling unbiasedness across schemes and particle counts.
// ---------------------------------------------------------------------------
class ResamplingSweep : public ::testing::TestWithParam<
                            std::tuple<filters::ResamplingScheme, std::size_t>> {};

TEST_P(ResamplingSweep, MassAndCountInvariants) {
  const auto [scheme, count] = GetParam();
  rng::Rng rng(static_cast<std::uint64_t>(count) * 31 + 1);
  std::vector<filters::Particle> particles;
  for (int i = 0; i < 37; ++i) {
    particles.push_back(
        {{{rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)}, {}}, rng.uniform(0.0, 2.0)});
  }
  particles[5].weight = 3.0;  // guarantee positive mass
  const double mass = filters::total_weight(particles);
  filters::ResampleScratch scratch;
  filters::resample_particles(particles, count, scheme, rng, scratch);
  ASSERT_EQ(particles.size(), count);
  ASSERT_NEAR(filters::total_weight(particles), mass, 1e-9);
  // ESS is defined on normalized weights; after resampling it equals N.
  filters::normalize_weights(particles, filters::total_weight(particles));
  ASSERT_NEAR(filters::effective_sample_size(particles), static_cast<double>(count),
              1e-6 * static_cast<double>(count));
}

INSTANTIATE_TEST_SUITE_P(
    SchemeCountGrid, ResamplingSweep,
    ::testing::Combine(::testing::Values(filters::ResamplingScheme::kMultinomial,
                                         filters::ResamplingScheme::kStratified,
                                         filters::ResamplingScheme::kSystematic,
                                         filters::ResamplingScheme::kResidual),
                       ::testing::Values(std::size_t{1}, std::size_t{8},
                                         std::size_t{64}, std::size_t{501})));

// ---------------------------------------------------------------------------
// The paper's communication-cost orderings hold across densities and seeds.
// ---------------------------------------------------------------------------
class OrderingSweep
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(OrderingSweep, DistributedFiltersBeatSdpfEverywhere) {
  const auto [density, seed] = GetParam();
  sim::Scenario scenario;
  scenario.density_per_100m2 = density;
  scenario.trajectory.num_steps = 30;  // shorter runs keep the sweep fast
  const sim::AlgorithmParams params;

  const auto sdpf =
      sim::run_trial(scenario, sim::AlgorithmKind::kSdpf, params, seed, 0);
  const auto cdpf =
      sim::run_trial(scenario, sim::AlgorithmKind::kCdpf, params, seed, 0);
  const auto ne =
      sim::run_trial(scenario, sim::AlgorithmKind::kCdpfNe, params, seed, 0);

  ASSERT_TRUE(sdpf.outcome.produced_estimates());
  ASSERT_TRUE(cdpf.outcome.produced_estimates());
  ASSERT_TRUE(ne.outcome.produced_estimates());
  // CDPF always transmits far less than SDPF; NE transmits the least.
  EXPECT_LT(static_cast<double>(cdpf.outcome.comm.total_bytes()),
            0.4 * static_cast<double>(sdpf.outcome.comm.total_bytes()));
  EXPECT_LT(ne.outcome.comm.total_bytes(), cdpf.outcome.comm.total_bytes());
  EXPECT_LT(ne.outcome.comm.total_messages(), cdpf.outcome.comm.total_messages());
  // NE uses only particle-propagation traffic.
  EXPECT_EQ(ne.outcome.comm.total_bytes(),
            ne.outcome.comm.bytes(wsn::MessageKind::kParticle));
}

INSTANTIATE_TEST_SUITE_P(DensitySeedGrid, OrderingSweep,
                         ::testing::Combine(::testing::Values(5.0, 10.0, 20.0, 40.0),
                                            ::testing::Values(100u, 200u)));

// ---------------------------------------------------------------------------
// Table-I symbolic model: SDPF - CDPF == N_s * D_w for any payload sizing.
// ---------------------------------------------------------------------------
class PayloadSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PayloadSweep, TableOneDifferencesAreStructural) {
  const auto [dp, dm, dw] = GetParam();
  wsn::PayloadSizes p;
  p.particle = static_cast<std::size_t>(dp);
  p.measurement = static_cast<std::size_t>(dm);
  p.weight = static_cast<std::size_t>(dw);
  for (const std::size_t ns : {1u, 10u, 1000u}) {
    EXPECT_EQ(core::table1_sdpf(ns, p) - core::table1_cdpf(ns, p), ns * p.weight);
    EXPECT_EQ(core::table1_cdpf(ns, p) - core::table1_cdpf_ne(ns, p),
              ns * p.measurement);
  }
}

INSTANTIATE_TEST_SUITE_P(Payloads, PayloadSweep,
                         ::testing::Combine(::testing::Values(8, 16, 32),
                                            ::testing::Values(2, 4),
                                            ::testing::Values(2, 4, 8)));

}  // namespace
}  // namespace cdpf
