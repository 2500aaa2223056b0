// Microbenchmarks (google-benchmark) of the simulator's hot kernels:
// resampling, spatial queries, greedy routing's next hop, SDPF's re-host
// query, one duty-cycle step, the receiver count under partial activity,
// particle propagation (true and localized positions), the bearing
// likelihood (a SIR update and CDPF's host factor), and one full filter
// iteration per algorithm.
//
// A stock google-benchmark binary: `--benchmark_out=F
// --benchmark_out_format=json` writes the machine-readable record (host
// `context` block included), `--benchmark_repetitions=N` adds
// mean/median/stddev/cv/min aggregates and `--benchmark_context=k=v` tags
// it.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/batch_kernels.hpp"
#include "core/cdpf.hpp"
#include "core/propagation.hpp"
#include "filters/resampling.hpp"
#include "filters/sir_filter.hpp"
#include "geom/angles.hpp"
#include "geom/grid_index.hpp"
#include "sim/experiment.hpp"
#include "tracking/measurement.hpp"
#include "wsn/deployment.hpp"
#include "wsn/duty_cycle.hpp"
#include "wsn/localization.hpp"
#include "wsn/routing.hpp"

namespace {

using namespace cdpf;

/// The `min` aggregate every benchmark reports beside google-benchmark's
/// mean, median and stddev under --benchmark_repetitions: on a shared host
/// the fastest repetition is the least disturbed one, so two builds compare
/// by their minima (back-to-back medians of one binary have moved 1.7x).
double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

void BM_ResampleIndices(benchmark::State& state) {
  const auto scheme = static_cast<filters::ResamplingScheme>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  rng::Rng rng(1);
  std::vector<double> weights(n);
  for (double& w : weights) {
    w = rng.uniform(0.0, 1.0);
  }
  std::vector<std::size_t> indices;
  std::vector<double> scratch;
  for (auto _ : state) {
    filters::resample_indices_into(weights, n, scheme, rng, indices, scratch);
    benchmark::DoNotOptimize(indices.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ResampleIndices)
    ->ArgsProduct({{0, 1, 2, 3}, {1000, 10000}})
    ->ArgNames({"scheme", "n"})
    ->ComputeStatistics("min", min_of);

void BM_GridIndexQuery(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0));
  rng::Rng rng(2);
  const geom::Aabb field = geom::Aabb::square(200.0);
  const auto points = wsn::deploy_uniform_random(
      wsn::node_count_for_density(density, field), field, rng);
  const geom::GridIndex index(points, field, 10.0);
  std::vector<std::size_t> out;
  for (auto _ : state) {
    const geom::Vec2 c{rng.uniform(20.0, 180.0), rng.uniform(20.0, 180.0)};
    out.clear();
    index.visit_disk(c, 30.0, [&out](std::size_t id, std::size_t) { out.push_back(id); });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GridIndexQuery)
    ->Arg(5)
    ->Arg(20)
    ->Arg(40)
    ->ArgName("density")
    ->ComputeStatistics("min", min_of);

/// Greedy routing's memo miss: a route from a random node to the sink, each
/// hop one Network::nearest_comm_neighbour query. The activity epoch bumps
/// before every route (clear_believed_positions moves no position), so no
/// hop is served from the router's memo. `half_asleep` puts each node but
/// the sink to sleep with probability 1/2 and routes from awake nodes only,
/// as CPF routes under the churn workloads' duty cycle. Items are hops.
void greedy_next_hop(benchmark::State& state, bool half_asleep) {
  rng::Rng rng(7);
  sim::Scenario scenario;
  scenario.density_per_100m2 = static_cast<double>(state.range(0));
  wsn::Network network = sim::build_network(scenario, rng);
  if (half_asleep) {
    for (wsn::NodeId id = 0; id < network.size(); ++id) {
      if (id != network.sink() && rng.bernoulli(0.5)) {
        network.set_power(id, wsn::PowerState::kAsleep);
      }
    }
  }
  const wsn::GreedyGeographicRouter router(network);
  std::vector<wsn::NodeId> path;
  std::int64_t hops = 0;
  for (auto _ : state) {
    network.clear_believed_positions();
    auto from = static_cast<wsn::NodeId>(rng.uniform_index(network.size()));
    while (!network.is_active(from)) {
      from = static_cast<wsn::NodeId>(rng.uniform_index(network.size()));
    }
    if (router.route_into(from, network.sink(), path)) {
      hops += static_cast<std::int64_t>(path.size() - 1);
    }
  }
  state.SetItemsProcessed(hops);
}
void BM_GreedyNextHop(benchmark::State& state) { greedy_next_hop(state, false); }
BENCHMARK(BM_GreedyNextHop)
    ->Arg(5)
    ->Arg(20)
    ->Arg(40)
    ->ArgName("density")
    ->ComputeStatistics("min", min_of);
void BM_GreedyNextHopHalfAsleep(benchmark::State& state) { greedy_next_hop(state, true); }
BENCHMARK(BM_GreedyNextHopHalfAsleep)
    ->Arg(40)
    ->ArgName("density")
    ->ComputeStatistics("min", min_of);

/// SDPF's re-host query: the radio neighbour of a random node u nearest a
/// point 15 m from u in a random direction, bounded by u's own squared
/// distance to it (Network::nearest_comm_neighbour<distance_squared>).
void BM_RehostNearest(benchmark::State& state) {
  rng::Rng rng(10);
  sim::Scenario scenario;
  scenario.density_per_100m2 = static_cast<double>(state.range(0));
  const wsn::Network network = sim::build_network(scenario, rng);
  for (auto _ : state) {
    const auto u = static_cast<wsn::NodeId>(rng.uniform_index(network.size()));
    const geom::Vec2 own = network.position(u);
    const geom::Vec2 target =
        own + geom::Vec2::from_angle(rng.uniform(0.0, geom::kTwoPi)) * 15.0;
    benchmark::DoNotOptimize(network.nearest_comm_neighbour<geom::distance_squared>(
        u, target, geom::distance_squared(own, target)));
  }
}
BENCHMARK(BM_RehostNearest)
    ->Arg(5)
    ->Arg(20)
    ->Arg(40)
    ->ArgName("density")
    ->ComputeStatistics("min", min_of);

/// One step of activity churn: the duty-cycle schedule (10 s period, 50%
/// awake, randomized phases) applied to every node at 1 s steps, as the
/// churn workloads apply it before each iteration. Items are nodes.
void BM_DutyCycleApply(benchmark::State& state) {
  rng::Rng rng(8);
  sim::Scenario scenario;
  scenario.density_per_100m2 = static_cast<double>(state.range(0));
  wsn::Network network = sim::build_network(scenario, rng);
  const wsn::DutyCycleSchedule schedule(10.0, 0.5, 0xd0c1u);
  double t = 0.0;
  for (auto _ : state) {
    schedule.apply(network, t);
    benchmark::DoNotOptimize(network.active_count());
    t += 1.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(network.size()));
}
BENCHMARK(BM_DutyCycleApply)->Arg(40)->ArgName("density")->ComputeStatistics("min", min_of);

/// A radio receiver count (Network::count_active_within over the r_c disk
/// of a random node) at density 40 with half the nodes asleep.
void BM_CountActiveWithin(benchmark::State& state) {
  rng::Rng rng(9);
  sim::Scenario scenario;
  scenario.density_per_100m2 = 40.0;
  wsn::Network network = sim::build_network(scenario, rng);
  for (wsn::NodeId id = 0; id < network.size(); ++id) {
    if (rng.uniform(0.0, 1.0) < 0.5) {
      network.set_power(id, wsn::PowerState::kAsleep);
    }
  }
  const double rc = network.config().comm_radius;
  for (auto _ : state) {
    const auto id = static_cast<wsn::NodeId>(rng.uniform_index(network.size()));
    benchmark::DoNotOptimize(network.count_active_within(network.true_position(id), rc));
  }
}
BENCHMARK(BM_CountActiveWithin)->ComputeStatistics("min", min_of);

/// One CDPF propagation round: the ~r_s disk of hosts around the field
/// centre (velocity (3, 0) m/s) divides among its recorders, with reused
/// buffers. `localized` installs wsn::localize's believed positions at
/// 4 m ranging noise (the noisiest point of the A8 ablation), whose largest
/// believed-vs-true displacement, reported as a counter, is nearly
/// r_c - r_s: the record scan widens only the cells of badly localized
/// nodes.
void propagation_round(benchmark::State& state, bool localized) {
  const double density = static_cast<double>(state.range(0));
  rng::Rng rng(3);
  sim::Scenario scenario;
  scenario.density_per_100m2 = density;
  wsn::Network network = sim::build_network(scenario, rng);
  if (localized) {
    wsn::LocalizationConfig config;
    config.range_sigma_m = 4.0;
    network.set_believed_positions(wsn::localize(network, config, rng).positions);
    state.counters["max_displacement_m"] = network.max_believed_displacement();
  }
  wsn::Radio radio(network, scenario.payloads);
  core::ParticleStore store;
  std::vector<wsn::NodeId> hosts;
  network.nodes_within({100.0, 100.0}, 10.0, hosts);
  for (const wsn::NodeId id : hosts) {
    store.add(id, {3.0, 0.0}, 1.0);
  }
  const tracking::RandomTurnMotionModel motion(5.0, 1.0, 0.26, 0.02);
  // Reused buffers, as Cdpf reuses them: the round itself, not its first-use
  // allocations, is what this measures.
  core::PropagationOutcome outcome;
  core::PropagationScratch scratch;
  for (auto _ : state) {
    outcome.reset();
    core::propagate_particles_into(store, network, radio, motion, rng, outcome, scratch);
    benchmark::DoNotOptimize(outcome.global.total_weight);
    benchmark::ClobberMemory();
  }
}
void BM_PropagationRound(benchmark::State& state) { propagation_round(state, false); }
BENCHMARK(BM_PropagationRound)
    ->Arg(5)
    ->Arg(20)
    ->Arg(40)
    ->ArgName("density")
    ->ComputeStatistics("min", min_of);

void BM_PropagationRoundLocalized(benchmark::State& state) {
  propagation_round(state, true);
}
BENCHMARK(BM_PropagationRoundLocalized)
    ->Arg(10)
    ->ArgName("density")
    ->ComputeStatistics("min", min_of);

/// One CPF update at its density-40 load: every particle scores ~124
/// detecting sensors (the expected count within r_s = 10 m at 40 nodes per
/// 100 m^2) in one BearingEvidence::log_likelihoods batch, as CPF does.
/// Items are (particle, sensor) pairs, so 1 / items_per_second is the cost
/// per pair.
void BM_SirFilterIteration(benchmark::State& state) {
  const auto particles = static_cast<std::size_t>(state.range(0));
  rng::Rng rng(4);
  filters::SirFilterConfig config;
  config.num_particles = particles;
  filters::SirFilter filter(tracking::RandomTurnMotionModel(1.0, 1.0, 0.26, 0.02),
                            config);
  const geom::Vec2 target{100.0, 100.0};
  filter.initialize({target, {3.0, 0.0}}, {5.0, 5.0}, {1.0, 1.0}, rng);
  const tracking::BearingMeasurementModel bearing(0.05);
  core::BearingEvidence sensors(0.05, core::kCloudResolutionM);  // CPF's
  while (sensors.records().size() < 124) {
    const geom::Vec2 offset{rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)};
    if (offset.norm_squared() <= 100.0) {
      const geom::Vec2 position = target + offset;
      sensors.add(position, bearing.measure(position, target, rng));
    }
  }
  core::PointBatch positions;
  for (auto _ : state) {
    filter.predict(rng);
    positions.assign_positions(filter.particles());
    sensors.log_likelihoods(positions.x, positions.y, positions.scores);
    filter.update(positions.scores);
    filter.resample(rng);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(particles * sensors.records().size()));
}
BENCHMARK(BM_SirFilterIteration)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->ArgName("particles")
    ->ComputeStatistics("min", min_of);

/// The batch bearing kernel alone at CPF's density-40 load: 1000 points
/// around the target, each scored against the ~124 detecting sensors by
/// BearingEvidence::log_likelihoods (ungated). Items are (point, sensor)
/// pairs, so 1 / items_per_second is the cost per pair.
void BM_BearingLogLikelihoods(benchmark::State& state) {
  rng::Rng rng(5);
  const geom::Vec2 target{100.0, 100.0};
  const tracking::BearingMeasurementModel bearing(0.05);
  core::BearingEvidence sensors(0.05, core::kCloudResolutionM);  // CPF's
  while (sensors.records().size() < 124) {
    const geom::Vec2 offset{rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)};
    if (offset.norm_squared() <= 100.0) {
      const geom::Vec2 position = target + offset;
      sensors.add(position, bearing.measure(position, target, rng));
    }
  }
  core::PointBatch points;
  for (int i = 0; i < 1000; ++i) {
    points.add({rng.gaussian(target.x, 5.0), rng.gaussian(target.y, 5.0)});
  }
  for (auto _ : state) {
    sensors.log_likelihoods(points.x, points.y, points.scores);
    benchmark::DoNotOptimize(points.scores.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(points.x.size() * sensors.records().size()));
}
BENCHMARK(BM_BearingLogLikelihoods)->ComputeStatistics("min", min_of);

/// CDPF's weight factors at its density-40 load: each node within r_s of a
/// prediction 2 m off the target hosts particles and scores the bearings of
/// the ~124 detecting sensors in one BearingEvidence::host_factors batch,
/// gated at r_c = 30 m (every sender is heard). Items are (host, sensor)
/// pairs, so 1 / items_per_second is the cost per pair.
void BM_BearingHostFactor(benchmark::State& state) {
  rng::Rng rng(6);
  sim::Scenario scenario;
  scenario.density_per_100m2 = 40.0;
  const wsn::Network network = sim::build_network(scenario, rng);
  const core::CdpfConfig config;
  core::BearingEvidence evidence(
      config.sigma_bearing, core::quantization_length(network),
      network.config().comm_radius);
  const tracking::BearingMeasurementModel bearing(config.sigma_bearing);
  const geom::Vec2 target{100.0, 100.0};
  std::vector<wsn::NodeId> ids;
  network.detecting_nodes(target, ids);
  for (const wsn::NodeId id : ids) {
    evidence.add(network.position(id), bearing.measure(network.position(id), target, rng));
  }
  core::PointBatch hosts;
  network.nodes_within({101.5, 99.0}, network.config().sensing_radius, ids);
  for (const wsn::NodeId id : ids) {
    hosts.add(network.position(id));
  }
  for (auto _ : state) {
    evidence.host_factors(hosts.x, hosts.y, hosts.scores);
    benchmark::DoNotOptimize(hosts.scores.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(hosts.x.size() * evidence.records().size()));
}
BENCHMARK(BM_BearingHostFactor)->ComputeStatistics("min", min_of);

void BM_FullTrackerIteration(benchmark::State& state) {
  const auto kind = static_cast<sim::AlgorithmKind>(state.range(0));
  rng::Rng rng(5);
  sim::Scenario scenario;
  scenario.density_per_100m2 = static_cast<double>(state.range(1));
  wsn::Network network = sim::build_network(scenario, rng);
  wsn::Radio radio(network, scenario.payloads);
  const sim::AlgorithmParams params;
  auto tracker = sim::make_tracker(kind, network, radio, params);
  const double dt = tracker->time_step();
  double t = 0.0;
  double x = 30.0;
  for (auto _ : state) {
    // Keep the target inside the field; wrap around when it approaches the
    // far border so the iteration cost stays representative.
    if (x > 170.0) {
      x = 30.0;
    }
    tracker->iterate({{x, 100.0}, {3.0, 0.0}}, t, rng);
    tracker->take_estimates();
    t += dt;
    x += 3.0 * dt;
  }
  state.SetLabel(std::string(sim::algorithm_name(kind)));
}
BENCHMARK(BM_FullTrackerIteration)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {20, 40}})
    ->ArgNames({"algorithm", "density"})
    ->Unit(benchmark::kMicrosecond)
    ->ComputeStatistics("min", min_of);

void BM_NetworkConstruction(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0));
  rng::Rng rng(6);
  sim::Scenario scenario;
  scenario.density_per_100m2 = density;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::build_network(scenario, rng));
  }
  state.SetLabel(std::to_string(scenario.node_count()) + " nodes");
}
BENCHMARK(BM_NetworkConstruction)
    ->Arg(5)
    ->Arg(40)
    ->ArgName("density")
    ->Unit(benchmark::kMicrosecond)
    ->ComputeStatistics("min", min_of);

}  // namespace

BENCHMARK_MAIN();
