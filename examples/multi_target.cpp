// Multi-target tracking (extension): two intruders cross the field in
// opposite directions while the completely distributed multi-target tracker
// maintains one CDPF particle population per track — spawning tracks from
// unassociated detection clusters and scoring itself with the OSPA metric.
//
//   ./multi_target [--density=20] [--seed=5]
//                  [--trace=out.json] [--metrics=out.json]
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/multi_target.hpp"
#include "geom/angles.hpp"
#include "filters/ospa.hpp"
#include "sim/cli_options.hpp"
#include "sim/experiment.hpp"
#include "support/ascii_plot.hpp"
#include "support/statistics.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace cdpf;
  try {
    support::CliArgs args(argc, argv);
    sim::CliSpec spec;
    spec.description =
        "Two crossing targets under the multi-target CDPF tracker.";
    spec.extra = {{"--density=20", "node density per 100 m^2"},
                  {"--seed=5", "root seed"}};
    spec.sweep = false;
    spec.monte_carlo = false;
    spec.sharding = false;
    spec.reports = false;
    const sim::CliOptions options = sim::parse_cli_options(args, spec);
    const double density = args.get_double("density").value_or(20.0);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed").value_or(5));
    args.check_unknown();
    if (options.help) {
      return EXIT_SUCCESS;
    }

    sim::Scenario scenario;
    scenario.density_per_100m2 = density;
    rng::Rng rng(rng::derive_stream_seed(seed, 0));
    wsn::Network network = sim::build_network(scenario, rng);
    wsn::Radio radio(network, scenario.payloads);

    // Two targets: west->east at y=60 and east->west at y=140.
    tracking::RandomTurnConfig t1;  // defaults: (0,100) heading east
    t1.start = {0.0, 60.0};
    tracking::RandomTurnConfig t2;
    t2.start = {200.0, 140.0};
    t2.initial_heading_rad = geom::kPi;  // heading west
    const tracking::Trajectory traj1 = generate_random_turn_trajectory(t1, rng);
    const tracking::Trajectory traj2 = generate_random_turn_trajectory(t2, rng);

    core::MultiTargetTracker tracker(network, radio);
    support::RunningStats ospa;
    support::Table table({"t (s)", "live tracks", "OSPA (m)"});
    support::AsciiPlot plot(0.0, 200.0, 30.0, 170.0, 100, 28);

    for (double t = 0.0; t <= traj1.duration() + 1e-9; t += tracker.time_step()) {
      const std::vector<tracking::TargetState> truths{traj1.at_time(t),
                                                      traj2.at_time(t)};
      tracker.iterate(truths, t, rng);
      for (const tracking::TargetState& s : truths) {
        plot.point(s.position.x, s.position.y, '.');
      }
      for (const auto& te : tracker.take_estimates()) {
        plot.point(te.estimate.state.position.x, te.estimate.state.position.y,
                   static_cast<char>('A' + te.track_id % 26));
      }
      const std::vector<geom::Vec2> truth_positions{truths[0].position,
                                                    truths[1].position};
      const double d =
          filters::ospa_distance(tracker.current_positions(), truth_positions);
      ospa.add(d);
      auto row = table.row();
      row.cell(t, 0).cell(tracker.live_tracks()).cell(d, 2);
      table.commit_row(row);
    }

    std::cout << "Two crossing targets, " << network.size() << " nodes\n\n"
              << table.to_ascii() << "\nmean OSPA "
              << support::format_double(ospa.mean(), 2) << " m over "
              << tracker.total_tracks_spawned() << " spawned tracks; comm "
              << tracker.comm_stats().total_bytes() << " B\n\n"
              << "'.' true trajectories, letters = per-track estimates\n"
              << plot.render();
    return EXIT_SUCCESS;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return EXIT_FAILURE;
  }
}
