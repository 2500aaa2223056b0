// Tracking trace: per-iteration diagnostic of a single algorithm on a
// single run — estimate vs truth, velocity estimates, and (for CDPF
// variants) the particle-store internals. Useful for understanding how the
// algorithms behave step by step and for debugging configurations.
//
//   ./tracking_trace [--algo=CDPF-NE] [--density=20] [--seed=42] [--trial=0]
//                    [--store=true] [--verbose=true]
//                    [--trace=out.json] [--metrics=out.json]
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/cdpf.hpp"
#include "sim/cli_options.hpp"
#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  using namespace cdpf;
  try {
    support::CliArgs args(argc, argv);
    sim::CliSpec spec;
    spec.description = "Per-iteration diagnostic of one algorithm on one run.";
    const std::string algo_help = "algorithm name (" + sim::algorithm_names() + ")";
    spec.extra = {{"--algo=CDPF-NE", algo_help.c_str()},
                  {"--density=20", "node density per 100 m^2"},
                  {"--seed=42", "root seed"},
                  {"--trial=0", "trial index within the seed stream"},
                  {"--store=true", "print particle-store internals"},
                  {"--verbose=true", "debug-level library logging"}};
    spec.sweep = false;
    spec.monte_carlo = false;
    spec.sharding = false;
    spec.reports = false;
    const sim::CliOptions options = sim::parse_cli_options(args, spec);
    const std::string algo = args.get_string("algo").value_or("CDPF-NE");
    const double density = args.get_double("density").value_or(20.0);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed").value_or(42));
    const auto trial = static_cast<std::uint64_t>(args.get_int("trial").value_or(0));

    const bool store = args.get_bool("store").value_or(false);
    const bool verbose = args.get_bool("verbose").value_or(false);
    args.check_unknown();
    if (options.help) {
      return 0;
    }

    sim::Scenario scenario;
    scenario.density_per_100m2 = density;

    rng::Rng rng(rng::derive_stream_seed(seed, trial));
    wsn::Network network = sim::build_network(scenario, rng);
    wsn::Radio radio(network, scenario.payloads);
    const tracking::Trajectory trajectory =
        tracking::generate_random_turn_trajectory(scenario.trajectory, rng);

    if (verbose) {
      // The library's logger resolves its threshold from the environment on
      // first use, so setting this before make_tracker() is sufficient.
      ::setenv("CDPF_LOG_LEVEL", "debug", /*overwrite=*/1);
    }
    // The by-name factory: TrackerAlgorithm::name() strings are the
    // registry keys, and unknown names fail with the known list.
    auto tracker = sim::make_tracker(algo, network, radio, sim::AlgorithmParams{});
    const auto* cdpf_ptr = dynamic_cast<const core::Cdpf*>(tracker.get());

    const double dt = tracker->time_step();
    for (double t = 0.0; t <= trajectory.duration() + 1e-9; t += dt) {
      const auto truth = trajectory.at_time(t);
      tracker->iterate(truth, t, rng);
      for (const auto& e : tracker->take_estimates()) {
        const auto ref = trajectory.at_time(e.time);
        std::cout << "t=" << e.time << " est=(" << e.state.position.x << ","
                  << e.state.position.y << ") truth=(" << ref.position.x << ","
                  << ref.position.y << ") err="
                  << geom::distance(e.state.position, ref.position)
                  << " est_v=(" << e.state.velocity.x << "," << e.state.velocity.y
                  << ") truth_v=(" << ref.velocity.x << "," << ref.velocity.y << ")\n";
      }
      if (cdpf_ptr != nullptr && store) {
        const auto& st = cdpf_ptr->particles();
        double total = st.total_weight();
        // weight-nearest-to-truth diagnostics
        double mass_near = 0.0;
        for (const auto& p : st.particles()) {
          if (geom::distance(network.position(p.host), truth.position) < 12.0) mass_near += p.weight;
        }
        std::cout << "    store size=" << st.size() << " total=" << total
                  << " mass_within_12m_of_truth=" << (total > 0 ? mass_near/total : 0) << "\n";
      }
    }
    tracker->finalize();
    for (const auto& e : tracker->take_estimates()) {
      const auto ref = trajectory.at_time(e.time);
      std::cout << "t=" << e.time << " (final) err="
                << geom::distance(e.state.position, ref.position) << "\n";
    }
    // This example drives the tracker directly (no run_tracking), so fold the
    // accounting into the metrics registry for --metrics here.
    sim::observe_comm(tracker->comm_stats());
    std::cout << "comm: " << tracker->comm_stats().summary() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
