// Tests for the Table-I analytical cost model, including the key check that
// the simulator's measured byte counts equal the closed-form expressions.
#include <gtest/gtest.h>

#include "core/cdpf.hpp"
#include "core/cost_model.hpp"
#include "core/cpf.hpp"
#include "core/sdpf.hpp"
#include "random/rng.hpp"
#include "wsn/deployment.hpp"
#include "wsn/radio.hpp"
#include "wsn/routing.hpp"

namespace cdpf::core {
namespace {

wsn::PayloadSizes paper_payloads() {
  return wsn::PayloadSizes{};  // D_p 16, D_m 4, D_w 4 (32-bit platform)
}

TEST(CostModel, ClosedFormsMatchHandArithmetic) {
  const wsn::PayloadSizes p = paper_payloads();
  EXPECT_EQ(centralized_cost_bytes(25, 4), 100u);
  // SDPF: Ns(Dp+Dw) + Nd*Dm + Ns*Dw + (query + total).
  EXPECT_EQ(sdpf_cost_bytes(10, 4, p), 10 * 20 + 4 * 4 + 10 * 4 + 4 + 4);
  EXPECT_EQ(cdpf_cost_bytes(10, 4, p), 10 * 20 + 16u);
  EXPECT_EQ(cdpf_ne_cost_bytes(10, p), 200u);
}

TEST(CostModel, TableOneOrderingAtPaperParameters) {
  // For equal N_s, the Table-I expressions must order as in the paper:
  // CDPF-NE < CDPF < SDPF (all within one hop), and DPF < CPF per hop.
  const wsn::PayloadSizes p = paper_payloads();
  const std::size_t ns = 100;
  EXPECT_LT(table1_cdpf_ne(ns, p), table1_cdpf(ns, p));
  EXPECT_LT(table1_cdpf(ns, p), table1_sdpf(ns, p));
  EXPECT_LT(table1_dpf(ns, 3, p), table1_cpf(ns, 3, p));
  // The paper's headline: CDPF eliminates one D_w term versus SDPF.
  EXPECT_EQ(table1_sdpf(ns, p) - table1_cdpf(ns, p), ns * p.weight);
}

TEST(CostModel, MeasuredCdpfNeIterationMatchesFormula) {
  // One CDPF-NE iteration after warm-up transmits exactly N_s (D_p + D_w)
  // bytes, N_s = the number of broadcasting hosts.
  rng::Rng rng(601);
  const auto positions = wsn::deploy_uniform_random(8000, geom::Aabb::square(200.0), rng);
  wsn::Network net(positions, wsn::NetworkConfig{geom::Aabb::square(200.0), 10.0, 30.0});
  wsn::Radio radio(net, paper_payloads());

  CdpfConfig config;
  config.use_neighborhood_estimation = true;
  Cdpf filter(net, radio, config);

  const tracking::TargetState truth{{100.0, 100.0}, {3.0, 0.0}};
  filter.iterate(truth, 0.0, rng);  // initialization: no communication
  EXPECT_EQ(radio.stats().total_bytes(), 0u);

  const std::size_t ns = filter.particles().size();
  ASSERT_GT(ns, 0u);
  filter.iterate({{115.0, 100.0}, {3.0, 0.0}}, 5.0, rng);
  EXPECT_EQ(radio.stats().total_bytes(), cdpf_ne_cost_bytes(ns, paper_payloads()));
  EXPECT_EQ(radio.stats().messages(wsn::MessageKind::kMeasurement), 0u);
}

TEST(CostModel, MeasuredCdpfIterationMatchesFormula) {
  rng::Rng rng(603);
  const auto positions = wsn::deploy_uniform_random(8000, geom::Aabb::square(200.0), rng);
  wsn::Network net(positions, wsn::NetworkConfig{geom::Aabb::square(200.0), 10.0, 30.0});
  wsn::Radio radio(net, paper_payloads());

  Cdpf filter(net, radio, CdpfConfig{});
  const tracking::TargetState t0{{100.0, 100.0}, {3.0, 0.0}};
  const tracking::TargetState t1{{115.0, 100.0}, {3.0, 0.0}};
  filter.iterate(t0, 0.0, rng);
  const std::size_t measurements_at_init =
      radio.stats().messages(wsn::MessageKind::kMeasurement);
  const std::size_t ns = filter.particles().size();
  // Initialization shares measurements but does not propagate particles.
  EXPECT_EQ(radio.stats().messages(wsn::MessageKind::kParticle), 0u);

  filter.iterate(t1, 5.0, rng);
  std::vector<wsn::NodeId> detecting;
  const std::size_t num_detecting_t1 = net.detecting_nodes(t1.position, detecting);
  EXPECT_EQ(radio.stats().total_bytes(),
            cdpf_cost_bytes(ns, measurements_at_init + num_detecting_t1,
                            paper_payloads()));
}

TEST(CostModel, MeasuredSdpfIterationMatchesFormula) {
  rng::Rng rng(605);
  const auto positions = wsn::deploy_uniform_random(8000, geom::Aabb::square(200.0), rng);
  wsn::Network net(positions, wsn::NetworkConfig{geom::Aabb::square(200.0), 10.0, 30.0});
  wsn::Radio radio(net, paper_payloads());

  Sdpf filter(net, radio, SdpfConfig{});
  const tracking::TargetState t0{{100.0, 100.0}, {3.0, 0.0}};
  const tracking::TargetState t1{{115.0, 100.0}, {3.0, 0.0}};
  filter.iterate(t0, 0.0, rng);
  // First iteration: seeding + measurement sharing + aggregation, but no
  // particle propagation yet.
  EXPECT_EQ(radio.stats().messages(wsn::MessageKind::kParticle), 0u);
  const std::size_t iter0_bytes = radio.stats().total_bytes();
  const std::size_t ns0 = filter.particles().size();
  std::vector<wsn::NodeId> detecting;
  const std::size_t nd0 = net.detecting_nodes(t0.position, detecting);
  // iter0 = Nd*Dm + Ns*Dw + query + total == sdpf_cost - Ns(Dp+Dw).
  EXPECT_EQ(iter0_bytes, sdpf_cost_bytes(ns0, nd0, paper_payloads()) -
                             ns0 * (paper_payloads().particle + paper_payloads().weight));

  filter.iterate(t1, 5.0, rng);
  // Second iteration propagates the ns0 particles from iteration 0 and does
  // a full share/aggregate round for the (possibly reseeded) population.
  const std::size_t ns1 = filter.particles().size();
  const std::size_t nd1 = net.detecting_nodes(t1.position, detecting);
  const std::size_t expected =
      iter0_bytes + ns0 * (paper_payloads().particle + paper_payloads().weight) +
      nd1 * paper_payloads().measurement + ns1 * paper_payloads().weight +
      paper_payloads().control + paper_payloads().weight;
  EXPECT_EQ(radio.stats().total_bytes(), expected);
}

TEST(CostModel, MeasuredCpfIterationMatchesHopSum) {
  rng::Rng rng(607);
  const auto positions = wsn::deploy_uniform_random(8000, geom::Aabb::square(200.0), rng);
  wsn::Network net(positions, wsn::NetworkConfig{geom::Aabb::square(200.0), 10.0, 30.0});
  wsn::Radio radio(net, paper_payloads());

  CentralizedPf filter(net, radio, CpfConfig{});
  const tracking::TargetState truth{{100.0, 100.0}, {3.0, 0.0}};
  filter.iterate(truth, 0.0, rng);

  // Independently recompute sum of hops from each detecting node to sink.
  const wsn::GreedyGeographicRouter router(net);
  std::size_t total_hops = 0;
  std::vector<wsn::NodeId> detecting, path, neighbors;
  net.detecting_nodes(truth.position, detecting);
  for (const wsn::NodeId id : detecting) {
    ASSERT_TRUE(router.route_into(id, net.sink(), path, neighbors));
    total_hops += path.size() - 1;
  }
  EXPECT_EQ(radio.stats().total_bytes(),
            centralized_cost_bytes(total_hops, paper_payloads().measurement));
}

TEST(CostModel, DpfVariantShrinksPayloadPerHop) {
  rng::Rng rng(609);
  const auto positions = wsn::deploy_uniform_random(4000, geom::Aabb::square(200.0), rng);
  wsn::Network net(positions, wsn::NetworkConfig{geom::Aabb::square(200.0), 10.0, 30.0});

  const tracking::TargetState truth{{100.0, 100.0}, {3.0, 0.0}};
  wsn::Radio cpf_radio(net, paper_payloads());
  CentralizedPf cpf(net, cpf_radio, CpfConfig{});
  {
    rng::Rng r(611);
    cpf.iterate(truth, 0.0, r);
  }
  wsn::Radio dpf_radio(net, paper_payloads());
  CpfConfig dpf_config;
  dpf_config.quantization_levels = 256;
  CentralizedPf dpf(net, dpf_radio, dpf_config);
  {
    rng::Rng r(611);
    dpf.iterate(truth, 0.0, r);
  }
  EXPECT_EQ(cpf_radio.stats().total_messages(), dpf_radio.stats().total_messages());
  EXPECT_EQ(cpf_radio.stats().total_bytes(), 4 * dpf_radio.stats().total_bytes());
}

}  // namespace
}  // namespace cdpf::core
