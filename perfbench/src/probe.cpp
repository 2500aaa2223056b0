#include "probe.hpp"

#include "core/cpf.hpp"
#include "spans.hpp"
#include "support/check.hpp"
#include "trial.hpp"
#include "wsn/routing.hpp"

namespace perfbench {

namespace wsn = cdpf::wsn;

void probe_routes(double density, std::uint64_t root_seed, std::size_t trial,
                  bool churn, ProbeStats& out) {
  const cdpf::sim::Scenario scenario = scenario_for(density);
  cdpf::rng::Rng rng(cdpf::rng::derive_stream_seed(root_seed, trial));
  wsn::Network network = cdpf::sim::build_network(scenario, rng);
  const cdpf::tracking::Trajectory trajectory =
      cdpf::tracking::generate_random_turn_trajectory(scenario.trajectory, rng);
  cdpf::sim::StepHook hook;
  if (churn) {
    hook = churn_hook_factory(root_seed, trial, trajectory)(network, rng);
  }
  const wsn::GreedyGeographicRouter router(network);
  const double dt = cdpf::core::CpfConfig{}.dt;
  const double r_s = scenario.network.sensing_radius;
  const double r_c = scenario.network.comm_radius;
  std::vector<wsn::NodeId> sources;
  std::vector<wsn::NodeId> path;
  std::vector<wsn::NodeId> neighbors;
  std::vector<wsn::NodeId> disk;
  for (double t = 0.0; t <= trajectory.duration() + 1e-9; t += dt) {
    if (hook) {
      hook(t);
    }
    network.active_nodes_within(trajectory.at_time(t).position, r_s, sources);
    for (const wsn::NodeId src : sources) {
      const double t0 = now_s();
      network.active_nodes_within(network.position(src), r_c, disk);
      const double t1 = now_s();
      bool routed = false;
      try {
        routed = router.route_into(src, network.sink(), path, neighbors);
      } catch (const cdpf::Error&) {
        routed = false;
      }
      const double t2 = now_s();
      out.query_us.push_back((t1 - t0) * 1e6);
      out.route_us.push_back((t2 - t1) * 1e6);
      ++out.routes;
      if (routed) {
        out.hops += path.size() - 1;
      } else {
        ++out.failed;
      }
    }
  }
}

}  // namespace perfbench
