// Behavioral unit tests for the tracker algorithms (CPF/DPF/SDPF/CDPF/
// CDPF-NE) on small controlled scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "core/cdpf.hpp"
#include "core/cpf.hpp"
#include "core/sdpf.hpp"
#include "geom/angles.hpp"
#include "random/rng.hpp"
#include "wsn/deployment.hpp"
#include "wsn/duty_cycle.hpp"
#include "wsn/localization.hpp"
#include "wsn/radio.hpp"

namespace cdpf::core {
namespace {

struct Fixture {
  explicit Fixture(std::uint64_t seed, std::size_t nodes = 8000)
      : rng(seed),
        network(wsn::deploy_uniform_random(nodes, geom::Aabb::square(200.0), rng),
                wsn::NetworkConfig{geom::Aabb::square(200.0), 10.0, 30.0}),
        radio(network, wsn::PayloadSizes{}) {}

  rng::Rng rng;
  wsn::Network network;
  wsn::Radio radio;
};

tracking::TargetState truth_at(double t) {
  return {{100.0 + 3.0 * t, 100.0}, {3.0, 0.0}};
}

TEST(Cdpf, NamesReflectVariant) {
  Fixture f(701, 500);
  CdpfConfig config;
  Cdpf plain(f.network, f.radio, config);
  EXPECT_EQ(plain.name(), "CDPF");
  config.use_neighborhood_estimation = true;
  Cdpf ne(f.network, f.radio, config);
  EXPECT_EQ(ne.name(), "CDPF-NE");
  EXPECT_DOUBLE_EQ(plain.time_step(), 5.0);
}

TEST(Cdpf, InitializationSeedsDetectingNodesWithoutEstimate) {
  Fixture f(703);
  Cdpf filter(f.network, f.radio, CdpfConfig{});
  filter.iterate(truth_at(-50.0), 0.0, f.rng);  // target far outside the field
  EXPECT_TRUE(filter.particles().empty());
  EXPECT_TRUE(filter.take_estimates().empty());

  filter.iterate(truth_at(0.0), 5.0, f.rng);
  EXPECT_FALSE(filter.particles().empty());
  // Hosts are exactly nodes within the sensing radius of the target.
  for (const core::NodeParticle& p : filter.particles().particles()) {
    EXPECT_LE(geom::distance(f.network.position(p.host), truth_at(0.0).position), 10.0);
  }
  EXPECT_TRUE(filter.take_estimates().empty());  // estimates lag one iteration
}

TEST(Cdpf, CorrectionProducesLaggedEstimates) {
  Fixture f(705);
  Cdpf filter(f.network, f.radio, CdpfConfig{});
  filter.iterate(truth_at(0.0), 0.0, f.rng);
  filter.iterate(truth_at(5.0), 5.0, f.rng);
  const auto estimates = filter.take_estimates();
  ASSERT_EQ(estimates.size(), 1u);
  EXPECT_DOUBLE_EQ(estimates[0].time, 0.0);  // estimate refers to iteration k
  EXPECT_LT(geom::distance(estimates[0].state.position, truth_at(0.0).position), 6.0);
  EXPECT_TRUE(filter.predicted_position().has_value());
}

TEST(Cdpf, LastPropagationNextHoldsTheBroadcasters) {
  // After the correction step's buffer swap, last_propagation()->next is the
  // set that broadcast in the round: overheard_by() replays from it.
  Fixture f(706);
  Cdpf filter(f.network, f.radio, CdpfConfig{});
  EXPECT_EQ(filter.last_propagation(), nullptr);
  filter.iterate(truth_at(0.0), 0.0, f.rng);
  filter.iterate(truth_at(5.0), 5.0, f.rng);
  const ParticleStore broadcast = filter.particles();
  ASSERT_FALSE(broadcast.empty());
  filter.iterate(truth_at(10.0), 10.0, f.rng);
  const PropagationOutcome* round = filter.last_propagation();
  ASSERT_NE(round, nullptr);
  ASSERT_EQ(round->next.size(), broadcast.size());
  for (std::size_t i = 0; i < broadcast.size(); ++i) {
    EXPECT_EQ(round->next.particles()[i].host, broadcast.particles()[i].host);
    EXPECT_EQ(round->next.particles()[i].weight, broadcast.particles()[i].weight);
  }
  EXPECT_EQ(round->global.particles_heard, broadcast.size());  // every host active
  // A broadcaster hears at least its own particle.
  const wsn::NodeId host = broadcast.sorted_hosts().front();
  EXPECT_GE(overheard_by(host, round->next, f.network).particles_heard, 1u);
}

TEST(Cdpf, FinalizeFlushesLastIterationEstimate) {
  Fixture f(707);
  Cdpf filter(f.network, f.radio, CdpfConfig{});
  filter.iterate(truth_at(0.0), 0.0, f.rng);
  filter.iterate(truth_at(5.0), 5.0, f.rng);
  filter.take_estimates();
  filter.finalize();
  const auto final_estimates = filter.take_estimates();
  ASSERT_EQ(final_estimates.size(), 1u);
  EXPECT_DOUBLE_EQ(final_estimates[0].time, 5.0);
}

TEST(Cdpf, TracksConstantVelocityTargetClosely) {
  Fixture f(709);
  Cdpf filter(f.network, f.radio, CdpfConfig{});
  for (int k = 0; k <= 6; ++k) {
    filter.iterate(truth_at(5.0 * k), 5.0 * k, f.rng);
  }
  filter.finalize();
  const auto estimates = filter.take_estimates();
  ASSERT_GE(estimates.size(), 5u);
  for (const TimedEstimate& e : estimates) {
    const double t = e.time;
    EXPECT_LT(geom::distance(e.state.position, truth_at(t).position), 5.0)
        << "at t=" << t;
  }
}

TEST(Cdpf, NeVariantUsesNoMeasurementMessages) {
  Fixture f(711);
  CdpfConfig config;
  config.use_neighborhood_estimation = true;
  Cdpf filter(f.network, f.radio, config);
  for (int k = 0; k <= 4; ++k) {
    filter.iterate(truth_at(5.0 * k), 5.0 * k, f.rng);
  }
  EXPECT_EQ(f.radio.stats().messages(wsn::MessageKind::kMeasurement), 0u);
  EXPECT_GT(f.radio.stats().messages(wsn::MessageKind::kParticle), 0u);
}

TEST(Cdpf, RecoversAfterTotalNodeFailureAroundTarget) {
  Fixture f(715);
  Cdpf filter(f.network, f.radio, CdpfConfig{});
  filter.iterate(truth_at(0.0), 0.0, f.rng);
  // Kill every current host: the next propagation loses all particles and
  // the filter must reinitialize from detections.
  for (const wsn::NodeId host : filter.particles().sorted_hosts()) {
    f.network.set_alive(host, false);
  }
  filter.iterate(truth_at(5.0), 5.0, f.rng);
  EXPECT_FALSE(filter.particles().empty());
  filter.iterate(truth_at(10.0), 10.0, f.rng);
  filter.finalize();
  const auto estimates = filter.take_estimates();
  ASSERT_FALSE(estimates.empty());
  const TimedEstimate& last = estimates.back();
  EXPECT_LT(geom::distance(last.state.position, truth_at(last.time).position), 8.0);
}

TEST(Sdpf, SeedsEightParticlesPerDetectingNode) {
  Fixture f(717);
  Sdpf filter(f.network, f.radio, SdpfConfig{});
  const auto truth = truth_at(0.0);
  filter.iterate(truth, 0.0, f.rng);
  std::vector<wsn::NodeId> ids;
  const std::size_t detecting = f.network.detecting_nodes(truth.position, ids);
  EXPECT_EQ(filter.particles().size(), 8 * detecting);
  ASSERT_EQ(filter.hosts().size(), filter.particles().size());
  // All particle positions coincide with their host node ("motes as
  // particles").
  for (std::size_t i = 0; i < filter.particles().size(); ++i) {
    EXPECT_EQ(filter.particles()[i].state.position,
              f.network.position(filter.hosts()[i]));
  }
}

// SDPF prunes whole hosts, never single particles: a host whose summed
// normalized mass is below prune_threshold loses its entire list. With the
// threshold at 1 every host of the propagated set is light, so after each
// iteration only the reseeded detecting nodes remain, each with a full list
// of particles_per_detection; with no pruning, propagated particles also sit
// on nodes that do not detect the target. Either way the correction leaves
// unit total mass.
TEST(Sdpf, PruneDropsWholeLightHosts) {
  for (const double threshold : {1.0, 0.0}) {
    Fixture f(723);
    SdpfConfig config;
    config.prune_threshold = threshold;
    Sdpf filter(f.network, f.radio, config);
    bool saw_non_detecting_host = false;
    for (int k = 0; k <= 4; ++k) {
      const auto truth = truth_at(5.0 * k);
      filter.iterate(truth, 5.0 * k, f.rng);
      EXPECT_NEAR(filters::total_weight(filter.particles()), 1.0, 1e-12);
      std::vector<wsn::NodeId> detecting;
      f.network.detecting_nodes(truth.position, detecting);
      std::sort(detecting.begin(), detecting.end());
      std::vector<wsn::NodeId> expected_hosts;
      for (const wsn::NodeId id : detecting) {
        expected_hosts.insert(expected_hosts.end(), config.particles_per_detection, id);
      }
      if (threshold > 0.0) {
        EXPECT_EQ(filter.hosts(), expected_hosts) << "t=" << 5.0 * k;
      } else {
        for (const wsn::NodeId host : filter.hosts()) {
          saw_non_detecting_host |=
              !std::binary_search(detecting.begin(), detecting.end(), host);
        }
      }
    }
    EXPECT_EQ(saw_non_detecting_host, threshold == 0.0);
  }
}

TEST(Sdpf, EstimatesEveryIteration) {
  Fixture f(719);
  Sdpf filter(f.network, f.radio, SdpfConfig{});
  for (int k = 0; k <= 4; ++k) {
    filter.iterate(truth_at(5.0 * k), 5.0 * k, f.rng);
  }
  const auto estimates = filter.take_estimates();
  EXPECT_EQ(estimates.size(), 5u);
  for (const TimedEstimate& e : estimates) {
    EXPECT_LT(geom::distance(e.state.position, truth_at(e.time).position), 6.0);
  }
}

TEST(Sdpf, UsesGlobalTransceiverEveryIteration) {
  Fixture f(721);
  Sdpf filter(f.network, f.radio, SdpfConfig{});
  for (int k = 0; k <= 2; ++k) {
    filter.iterate(truth_at(5.0 * k), 5.0 * k, f.rng);
  }
  // One query + one total broadcast per iteration.
  EXPECT_EQ(f.radio.stats().messages(wsn::MessageKind::kControl), 3u);
  EXPECT_EQ(f.radio.stats().messages(wsn::MessageKind::kAggregate), 3u);
}

enum class SdpfEnvironment : std::uint8_t { kStatic, kDutyCycle, kBelievedPositions };

class SdpfHostInvariant : public ::testing::TestWithParam<SdpfEnvironment> {};

// SDPF evaluates one likelihood per host and applies it to every particle
// on that host. That is exact only while each particle sits bitwise on its
// host's position(), which seeding, re-hosting and local resampling all
// preserve; check it after every iteration at density 40, on true
// positions, under a 50% duty cycle with TDSS wake-ups, and on believed
// positions. Every per-host step also walks the particles as contiguous
// host groups in ascending host order, so hosts() must stay non-decreasing.
TEST_P(SdpfHostInvariant, ParticlesSitExactlyOnTheirHost) {
  Fixture f(733, 16000);
  const SdpfEnvironment environment = GetParam();
  const wsn::DutyCycleSchedule schedule(10.0, 0.5, 0xd0c1u);
  wsn::TdssScheduler tdss(f.network, 25.0);
  if (environment == SdpfEnvironment::kBelievedPositions) {
    wsn::LocalizationConfig config;
    config.anchor_fraction = 0.1;
    config.range_sigma_m = 1.0;
    f.network.set_believed_positions(wsn::localize(f.network, config, f.rng).positions);
  }
  Sdpf filter(f.network, f.radio, SdpfConfig{});
  std::size_t checked = 0;
  for (int k = 0; k <= 16; ++k) {
    const double t = 5.0 * k;
    const tracking::TargetState truth{{20.0 + 3.0 * t, 100.0}, {3.0, 0.0}};
    if (environment == SdpfEnvironment::kDutyCycle) {
      schedule.apply(f.network, t);
      tdss.wake_predicted_area(truth.position);
      f.network.set_power(f.network.sink(), wsn::PowerState::kAwake);
    }
    filter.iterate(truth, t, f.rng);
    const std::vector<wsn::NodeId>& hosts = filter.hosts();
    ASSERT_EQ(hosts.size(), filter.particles().size());
    ASSERT_TRUE(std::is_sorted(hosts.begin(), hosts.end())) << "t=" << t;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      const geom::Vec2 host_pos = f.network.position(hosts[i]);
      const filters::Particle& p = filter.particles()[i];
      ASSERT_EQ(std::bit_cast<std::uint64_t>(p.state.position.x),
                std::bit_cast<std::uint64_t>(host_pos.x))
          << "host " << hosts[i] << " at t=" << t;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(p.state.position.y),
                std::bit_cast<std::uint64_t>(host_pos.y))
          << "host " << hosts[i] << " at t=" << t;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Environments, SdpfHostInvariant,
                         ::testing::Values(SdpfEnvironment::kStatic,
                                           SdpfEnvironment::kDutyCycle,
                                           SdpfEnvironment::kBelievedPositions),
                         [](const ::testing::TestParamInfo<SdpfEnvironment>& param_info) {
                           switch (param_info.param) {
                             case SdpfEnvironment::kStatic: return "Static";
                             case SdpfEnvironment::kDutyCycle: return "DutyCycle";
                             case SdpfEnvironment::kBelievedPositions: break;
                           }
                           return "BelievedPositions";
                         });

TEST(Cpf, EstimatesAtEveryStepOnceInitialized) {
  Fixture f(723, 4000);
  CentralizedPf filter(f.network, f.radio, CpfConfig{});
  EXPECT_EQ(filter.name(), "CPF");
  EXPECT_DOUBLE_EQ(filter.time_step(), 1.0);
  for (int k = 0; k <= 10; ++k) {
    filter.iterate(truth_at(static_cast<double>(k)), static_cast<double>(k), f.rng);
  }
  const auto estimates = filter.take_estimates();
  EXPECT_EQ(estimates.size(), 11u);
  // After convergence the error is small.
  const TimedEstimate& last = estimates.back();
  EXPECT_LT(geom::distance(last.state.position, truth_at(last.time).position), 3.0);
}

TEST(Cpf, QuantizationMapsToBinCenters) {
  Fixture f(725, 500);
  CpfConfig config;
  config.quantization_levels = 4;  // bins of pi/2
  CentralizedPf filter(f.network, f.radio, config);
  EXPECT_EQ(filter.name(), "DPF");
  // Bin centers at -3pi/4, -pi/4, +pi/4, +3pi/4.
  EXPECT_NEAR(filter.quantize(0.1), geom::kPi / 4.0, 1e-12);
  EXPECT_NEAR(filter.quantize(-0.1), -geom::kPi / 4.0, 1e-12);
  EXPECT_NEAR(filter.quantize(3.0), 3.0 * geom::kPi / 4.0, 1e-12);
  EXPECT_NEAR(geom::wrap_angle(filter.quantize(geom::kPi) - 3.0 * geom::kPi / 4.0), 0.0,
              1e-12);
}

TEST(Cpf, NoEstimateBeforeFirstDetection) {
  Fixture f(727, 500);
  CentralizedPf filter(f.network, f.radio, CpfConfig{});
  filter.iterate({{-50.0, 100.0}, {3.0, 0.0}}, 0.0, f.rng);  // outside field
  EXPECT_TRUE(filter.take_estimates().empty());
  EXPECT_EQ(f.radio.stats().total_messages(), 0u);
}

TEST(Cpf, PredictsThroughDetectionGaps) {
  Fixture f(729);
  CentralizedPf filter(f.network, f.radio, CpfConfig{});
  filter.iterate(truth_at(0.0), 0.0, f.rng);
  // Target "disappears" (outside field): the filter keeps predicting and
  // still emits an estimate.
  filter.iterate({{-50.0, -50.0}, {0.0, 0.0}}, 1.0, f.rng);
  const auto estimates = filter.take_estimates();
  EXPECT_EQ(estimates.size(), 2u);
}

}  // namespace
}  // namespace cdpf::core
