// Unit tests for the protocol-model radio, communication accounting and the
// energy model.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "random/rng.hpp"
#include "support/check.hpp"
#include "wsn/deployment.hpp"
#include "wsn/energy.hpp"
#include "wsn/network.hpp"
#include "wsn/radio.hpp"

namespace cdpf::wsn {
namespace {

NetworkConfig small_config() {
  return NetworkConfig{geom::Aabb::square(100.0), 10.0, 30.0};
}

/// The receivers of a broadcast from `from`: the active nodes within r_c of
/// its true position, minus the sender, sorted.
std::vector<NodeId> receivers_of(const Network& net, NodeId from) {
  std::vector<NodeId> out;
  net.active_nodes_within(net.true_position(from), net.config().comm_radius, out);
  std::erase(out, from);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Radio, BroadcastReachesExactlyActiveNodesInRange) {
  const std::vector<geom::Vec2> positions{
      {50.0, 50.0}, {70.0, 50.0}, {81.0, 50.0}, {50.0, 75.0}, {50.0, 81.0}};
  Network net(positions, small_config());
  Radio radio(net, PayloadSizes{});
  EXPECT_EQ(radio.broadcast(0, MessageKind::kParticle, 20), 2u);
  EXPECT_EQ(receivers_of(net, 0), (std::vector<NodeId>{1, 3}));  // 2, 4 are > 30 m away
  EXPECT_EQ(radio.stats().receptions(MessageKind::kParticle), 2u);
}

TEST(Radio, SleepingNodesMissBroadcasts) {
  const std::vector<geom::Vec2> positions{{50.0, 50.0}, {60.0, 50.0}, {70.0, 50.0}};
  Network net(positions, small_config());
  Radio radio(net, PayloadSizes{});
  net.set_power(1, PowerState::kAsleep);
  EXPECT_EQ(radio.broadcast(0, MessageKind::kMeasurement, 4), 1u);
  EXPECT_EQ(receivers_of(net, 0), (std::vector<NodeId>{2}));
}

TEST(Radio, DeadNodesCannotTransmit) {
  const std::vector<geom::Vec2> positions{{50.0, 50.0}, {60.0, 50.0}};
  Network net(positions, small_config());
  Radio radio(net, PayloadSizes{});
  net.set_alive(0, false);
  EXPECT_THROW(radio.broadcast(0, MessageKind::kParticle, 20), Error);
}

TEST(Radio, StatsAccumulatePerKind) {
  const std::vector<geom::Vec2> positions{{50.0, 50.0}, {60.0, 50.0}, {70.0, 50.0}};
  Network net(positions, small_config());
  Radio radio(net, PayloadSizes{});
  radio.broadcast(0, MessageKind::kParticle, 20);
  radio.broadcast(1, MessageKind::kParticle, 20);
  radio.broadcast(0, MessageKind::kMeasurement, 4);
  EXPECT_EQ(radio.stats().messages(MessageKind::kParticle), 2u);
  EXPECT_EQ(radio.stats().bytes(MessageKind::kParticle), 40u);
  EXPECT_EQ(radio.stats().messages(MessageKind::kMeasurement), 1u);
  EXPECT_EQ(radio.stats().total_messages(), 3u);
  EXPECT_EQ(radio.stats().total_bytes(), 44u);
  // Node 1 reaches both others; node 0 reaches 1 and 2 (60,70 within 30 m).
  EXPECT_EQ(radio.stats().receptions(MessageKind::kParticle), 4u);
}

TEST(Radio, UnicastRequiresRangeAndActivity) {
  const std::vector<geom::Vec2> positions{{50.0, 50.0}, {60.0, 50.0}, {95.0, 50.0}};
  Network net(positions, small_config());
  Radio radio(net, PayloadSizes{});
  EXPECT_TRUE(radio.unicast(0, 1, MessageKind::kWeight, 4));
  EXPECT_FALSE(radio.unicast(0, 2, MessageKind::kWeight, 4));  // 45 m
  net.set_power(1, PowerState::kAsleep);
  EXPECT_FALSE(radio.unicast(0, 1, MessageKind::kWeight, 4));
  EXPECT_EQ(radio.stats().total_messages(), 1u);  // failures record nothing
}

TEST(Radio, LinksFollowTruePositions) {
  // Node 0 sits at x = 50 but believes it sits at x = 80. Propagation is
  // physical: node 1 (20 m away) hears it, node 2 (45 m away, 15 m from the
  // believed position) does not.
  const std::vector<geom::Vec2> positions{{50.0, 50.0}, {70.0, 50.0}, {95.0, 50.0}};
  Network net(positions, small_config());
  net.set_believed_positions({{80.0, 50.0}, {70.0, 50.0}, {95.0, 50.0}});
  Radio radio(net, PayloadSizes{});
  EXPECT_TRUE(radio.in_range(0, 1));
  EXPECT_FALSE(radio.in_range(0, 2));
  EXPECT_EQ(radio.broadcast(0, MessageKind::kParticle, 20), 1u);
  EXPECT_EQ(receivers_of(net, 0), (std::vector<NodeId>{1}));
  EXPECT_EQ(radio.stats().receptions(MessageKind::kParticle), 1u);
  EXPECT_FALSE(radio.unicast(0, 2, MessageKind::kWeight, 4));
}

TEST(Radio, TransceiverPrimitives) {
  const std::vector<geom::Vec2> positions{{10.0, 10.0}, {90.0, 90.0}};
  Network net(positions, small_config());
  Radio radio(net, PayloadSizes{});
  radio.transceiver_broadcast(MessageKind::kAggregate, 4);
  radio.send_to_transceiver(0, MessageKind::kWeight, 8);
  EXPECT_EQ(radio.stats().messages(MessageKind::kAggregate), 1u);
  EXPECT_EQ(radio.stats().receptions(MessageKind::kAggregate), 2u);
  EXPECT_EQ(radio.stats().bytes(MessageKind::kWeight), 8u);
}

TEST(Radio, TransceiverBroadcastCountsActiveNodesOnly) {
  // The receiver count comes from Network::active_count(); with an energy
  // model each active node is charged once and inactive ones not at all.
  const std::vector<geom::Vec2> positions{
      {10.0, 10.0}, {90.0, 90.0}, {50.0, 50.0}, {20.0, 80.0}};
  Network net(positions, small_config());
  EnergyModel energy(net.size(), EnergyParams{});
  Radio plain(net, PayloadSizes{});
  Radio charged(net, PayloadSizes{}, &energy);
  net.set_alive(1, false);
  net.set_power(3, PowerState::kAsleep);
  EXPECT_EQ(net.active_count(), 2u);
  plain.transceiver_broadcast(MessageKind::kControl, 4);
  charged.transceiver_broadcast(MessageKind::kControl, 4);
  EXPECT_EQ(plain.stats().receptions(MessageKind::kControl), 2u);
  EXPECT_EQ(charged.stats().receptions(MessageKind::kControl), 2u);
  // Two receivers charged 4 bytes each.
  const double per_receiver = 4.0 * EnergyParams{}.e_elec_uj_per_byte;
  EXPECT_NEAR(energy.total_consumed_uj(), 2.0 * per_receiver, 1e-12);
  EXPECT_NEAR(energy.max_consumed_uj(), per_receiver, 1e-12);

  // On a network where every node is active, all four receive.
  Network fresh(positions, small_config());
  Radio fresh_radio(fresh, PayloadSizes{});
  fresh_radio.transceiver_broadcast(MessageKind::kControl, 4);
  EXPECT_EQ(fresh_radio.stats().receptions(MessageKind::kControl), 4u);
}

TEST(CommStats, SummaryMentionsActiveKinds) {
  CommStats s;
  s.record(MessageKind::kMeasurement, 4, 2);
  const std::string summary = s.summary();
  EXPECT_NE(summary.find("measurement"), std::string::npos);
  EXPECT_EQ(summary.find("particle"), std::string::npos);
}

TEST(Energy, FirstOrderRadioModel) {
  const EnergyParams p{};
  EnergyModel energy(2, p);
  const double tx = 100.0 * (p.e_elec_uj_per_byte + p.e_amp_uj_per_byte_m2 * 900.0);
  const double rx = 100.0 * p.e_elec_uj_per_byte;
  ASSERT_GT(tx, rx);  // transmitting costs more
  energy.charge_tx(0, 100, 30.0);
  EXPECT_NEAR(energy.total_consumed_uj(), tx, 1e-9);
  energy.charge_rx(1, 100);
  EXPECT_NEAR(energy.total_consumed_uj(), tx + rx, 1e-9);
  EXPECT_NEAR(energy.max_consumed_uj(), tx, 1e-9);
}

TEST(Energy, RadioChargesTransmitterAndReceivers) {
  const std::vector<geom::Vec2> positions{{50.0, 50.0}, {60.0, 50.0}, {70.0, 50.0}};
  Network net(positions, small_config());
  EnergyModel energy(net.size(), EnergyParams{});
  Radio radio(net, PayloadSizes{}, &energy);
  ASSERT_EQ(radio.broadcast(0, MessageKind::kParticle, 20), 2u);
  // The sender pays for the full radio range, each receiver for reception.
  const EnergyParams p{};
  const double tx = 20.0 * (p.e_elec_uj_per_byte + p.e_amp_uj_per_byte_m2 * 900.0);
  const double rx = 20.0 * p.e_elec_uj_per_byte;
  EXPECT_NEAR(energy.total_consumed_uj(), tx + 2.0 * rx, 1e-9);
  EXPECT_NEAR(energy.max_consumed_uj(), tx, 1e-9);
}

TEST(Energy, BroadcastChargesEachReceiverOnceAndTheSenderOnlyToTransmit) {
  // Broadcasts from many senders of a deployment with sleeping and dead
  // nodes, each with its own payload size so every node's total is a
  // distinct sum. A reference model charged by hand from the receiver sets
  // (the sender for transmitting, each receiver once for receiving) must
  // agree on the total and the largest per-node draw.
  const geom::Aabb field = geom::Aabb::square(100.0);
  rng::Rng rng(17);
  Network net(deploy_uniform_random(200, field, rng), small_config());
  for (NodeId id = 0; id < net.size(); ++id) {
    if (id % 7 == 3) {
      net.set_power(id, PowerState::kAsleep);
    } else if (id % 11 == 5) {
      net.set_alive(id, false);
    }
  }
  EnergyModel charged(net.size(), EnergyParams{});
  EnergyModel expected(net.size(), EnergyParams{});
  Radio radio(net, PayloadSizes{}, &charged);
  std::size_t receptions = 0;
  for (NodeId from = 0; from < net.size(); from += 3) {
    if (!net.is_active(from)) {
      continue;
    }
    const std::size_t bytes = 1 + from;
    const std::vector<NodeId> receivers = receivers_of(net, from);
    EXPECT_EQ(radio.broadcast(from, MessageKind::kControl, bytes), receivers.size());
    expected.charge_tx(from, bytes, net.config().comm_radius);
    for (const NodeId r : receivers) {
      expected.charge_rx(r, bytes);
    }
    receptions += receivers.size();
  }
  ASSERT_GT(receptions, 0u);
  EXPECT_EQ(radio.stats().receptions(MessageKind::kControl), receptions);
  EXPECT_EQ(charged.total_consumed_uj(), expected.total_consumed_uj());
  EXPECT_EQ(charged.max_consumed_uj(), expected.max_consumed_uj());

  // A lone sender with one receiver: the sender's draw is the transmission
  // alone, the receiver's one reception.
  Network pair({{50.0, 50.0}, {60.0, 50.0}}, small_config());
  EnergyModel energy(pair.size(), EnergyParams{});
  Radio pair_radio(pair, PayloadSizes{}, &energy);
  ASSERT_EQ(pair_radio.broadcast(0, MessageKind::kParticle, 20), 1u);
  const EnergyParams p{};
  const double tx = 20.0 * (p.e_elec_uj_per_byte + p.e_amp_uj_per_byte_m2 * 900.0);
  EXPECT_EQ(energy.max_consumed_uj(), tx);
  EXPECT_NEAR(energy.total_consumed_uj(), tx + 20.0 * p.e_elec_uj_per_byte, 1e-12);
}

TEST(MessageKinds, NamesAreStable) {
  EXPECT_EQ(message_kind_name(MessageKind::kParticle), "particle");
  EXPECT_EQ(message_kind_name(MessageKind::kEstimate), "estimate");
}

}  // namespace
}  // namespace cdpf::wsn
