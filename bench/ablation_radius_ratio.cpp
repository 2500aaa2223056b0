// Ablation A6: the sensing-to-communication radius ratio. The paper's
// overhearing aggregation assumes r_s <= r_c / 2; this sweep pushes r_s
// past the boundary and reports how often recorders' overheard totals
// disagree with the global total (incomplete aggregation) alongside the
// end-to-end accuracy.
//
//   ./ablation_radius_ratio [--density=20] [--trials=5]
#include <iostream>

#include "bench_util.hpp"
#include "core/cdpf.hpp"
#include "wsn/deployment.hpp"

namespace {

using namespace cdpf;

/// Fraction of recorders whose overheard total disagreed with the global
/// total over a short CDPF run (direct probe of aggregation completeness).
double incomplete_overhearing_fraction(const sim::Scenario& scenario,
                                       std::uint64_t seed) {
  rng::Rng rng(rng::derive_stream_seed(seed, 99));
  wsn::Network network = sim::build_network(scenario, rng);
  wsn::Radio radio(network, scenario.payloads);
  const core::CdpfConfig config;
  core::Cdpf filter(network, radio, config);
  const tracking::Trajectory trajectory =
      tracking::generate_random_turn_trajectory(scenario.trajectory, rng);

  std::size_t recorders = 0, incomplete = 0;
  for (double t = 0.0; t <= trajectory.duration() + 1e-9; t += config.dt) {
    filter.iterate(trajectory.at_time(t), t, rng);
    if (const auto* prop = filter.last_propagation()) {
      // Only recorders matter: they are the nodes whose correction step
      // consumes the overheard total. After the correction step prop->next
      // holds the round's broadcasters; this network never changes node
      // activity, so the round's receiver sets still hold.
      for (const wsn::NodeId node : filter.last_recorder_hosts()) {
        ++recorders;
        const core::OverheardAggregate heard = core::overheard_by(node, prop->next, network);
        if (heard.total_weight < prop->global.total_weight - 1e-9) {
          ++incomplete;
        }
      }
    }
  }
  return recorders > 0 ? static_cast<double>(incomplete) /
                             static_cast<double>(recorders)
                       : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cdpf;
  try {
    support::CliArgs args(argc, argv);
    sim::CliSpec spec;
    spec.description =
        "Ablation A6: sensing radius vs the overhearing assumption.";
    spec.extra = {{"--density=20", "node density per 100 m^2"}};
    spec.sweep = false;
    spec.default_trials = 5;
    sim::CliOptions options = sim::parse_cli_options(args, spec);
    const double density = args.get_double("density").value_or(20.0);
    args.check_unknown();
    if (options.help) {
      return 0;
    }

    const double radii[] = {5.0, 10.0, 15.0, 20.0};
    const sim::AlgorithmKind kinds[] = {sim::AlgorithmKind::kCdpf,
                                        sim::AlgorithmKind::kCdpfNe};
    constexpr std::size_t kRadii = 4;
    constexpr std::size_t kKinds = 2;

    const auto scenario_for = [&](std::size_t ri) {
      sim::Scenario scenario;
      scenario.density_per_100m2 = density;
      scenario.network.sensing_radius = radii[ri];
      return scenario;
    };

    // Slot space: the Monte-Carlo grid (radii x {CDPF, CDPF-NE} x trials)
    // followed by one overhearing-probe slot per radius.
    const sim::SweepGrid grid(kRadii, kKinds, options.trials);
    const std::size_t mc_slots = grid.slots();

    sim::ExperimentRunner runner(options.run_spec(
        "ablation_radius_ratio", {{"density", support::format_double(density, 6)}}));
    const auto records = runner.run(mc_slots + kRadii, [&](std::size_t slot) {
      if (slot >= mc_slots) {
        sim::SlotRecord record;
        record.values = {incomplete_overhearing_fraction(scenario_for(slot - mc_slots),
                                                         options.seed)};
        return record;
      }
      const sim::SweepGrid::Slot s = grid.at(slot);
      return sim::to_record(sim::run_trial(scenario_for(s.point), kinds[s.kind],
                                           sim::AlgorithmParams{}, options.seed,
                                           s.trial));
    });
    if (!records) {
      bench::announce_snapshot(runner);
      return 0;
    }

    std::cout << "Ablation A6 — sensing radius vs the overhearing assumption"
                 " (r_c = 30 m fixed, density " << density << ")\n";
    support::Table table({"r_s (m)", "r_s <= r_c/2", "incomplete overhearing",
                          "CDPF RMSE (m)", "CDPF-NE RMSE (m)"});
    for (std::size_t ri = 0; ri < kRadii; ++ri) {
      auto row = table.row();
      row.cell(radii[ri], 0)
          .cell(scenario_for(ri).network.overhearing_assumption_holds() ? "yes"
                                                                        : "NO")
          .cell(support::format_double(
                    100.0 * (*records)[mc_slots + ri].values[0], 1) +
                "%")
          .cell(grid.fold(*records, ri, 0).rmse.mean(), 2)
          .cell(grid.fold(*records, ri, 1).rmse.mean(), 2);
      table.commit_row(row);
    }
    bench::emit(table, options.csv_path, "Ablation A6: radius ratio");
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
