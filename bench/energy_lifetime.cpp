// Extension bench: radio energy per algorithm, using the first-order radio
// model. The introduction's motivation for completely distributed filtering
// is energy; this bench quantifies it — total radio energy per tracking
// run, the hottest node's consumption (which bounds network lifetime), and
// a derived "tracking runs per 1 J hotspot budget" figure.
//
//   ./energy_lifetime [--density=20] [--trials=3]
#include <iostream>

#include "bench_util.hpp"
#include "wsn/energy.hpp"

namespace {

using namespace cdpf;

/// One energy trial, recorded as [total mJ, hotspot uJ, RMSE].
sim::SlotRecord energy_trial(sim::AlgorithmKind kind, const sim::Scenario& scenario,
                             std::uint64_t seed, std::size_t trial) {
  rng::Rng rng(rng::derive_stream_seed(seed, trial));
  wsn::Network network = sim::build_network(scenario, rng);
  wsn::EnergyModel energy(network.size(), wsn::EnergyParams{});
  wsn::Radio radio(network, scenario.payloads, &energy);
  const tracking::Trajectory trajectory =
      tracking::generate_random_turn_trajectory(scenario.trajectory, rng);
  const sim::AlgorithmParams params;
  auto tracker = sim::make_tracker(kind, network, radio, params);
  const sim::RunOutcome outcome = sim::run_tracking(*tracker, trajectory, rng);
  sim::SlotRecord record;
  record.values = {energy.total_consumed_uj() / 1000.0, energy.max_consumed_uj(),
                   outcome.rmse()};
  return record;
}

struct EnergyOutcome {
  double total_mj = 0.0;
  double hotspot_uj = 0.0;
  double rmse = 0.0;
};

/// Fold one algorithm's trials in slot order — identical for any worker
/// count or shard split.
EnergyOutcome fold_energy(const std::vector<sim::SlotRecord>& records,
                          const sim::SweepGrid& grid, std::size_t kind) {
  EnergyOutcome out;
  for (std::size_t t = 0; t < grid.trials(); ++t) {
    const std::vector<double>& v = records[grid.slot(0, kind, t)].values;
    out.total_mj += v[0];
    out.hotspot_uj += v[1];
    out.rmse += v[2];
  }
  const double n = static_cast<double>(grid.trials());
  out.total_mj /= n;
  out.hotspot_uj /= n;
  out.rmse /= n;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cdpf;
  try {
    support::CliArgs args(argc, argv);
    sim::CliSpec spec;
    spec.description = "Radio energy per tracking run (first-order radio model).";
    spec.extra = {{"--density=20", "node density per 100 m^2"}};
    spec.sweep = false;
    spec.default_trials = 3;
    sim::CliOptions options = sim::parse_cli_options(args, spec);
    const double density = args.get_double("density").value_or(20.0);
    args.check_unknown();
    if (options.help) {
      return 0;
    }

    sim::Scenario scenario;
    scenario.density_per_100m2 = density;
    constexpr std::size_t kAlgorithms = std::size(sim::kAllAlgorithms);

    const sim::SweepGrid grid(1, kAlgorithms, options.trials);

    sim::ExperimentRunner runner(options.run_spec(
        "energy_lifetime", {{"density", support::format_double(density, 6)}}));
    const auto records = runner.run(grid.slots(), [&](std::size_t slot) {
      const sim::SweepGrid::Slot s = grid.at(slot);
      return energy_trial(sim::kAllAlgorithms[s.kind], scenario, options.seed, s.trial);
    });
    if (!records) {
      bench::announce_snapshot(runner);
      return 0;
    }

    std::cout << "Radio energy per tracking run (density " << density << ", "
              << options.trials << " trials; first-order radio model)\n";
    support::Table table({"algorithm", "total (mJ)", "hotspot node (uJ)",
                          "runs per 1 J hotspot budget", "RMSE (m)"});
    for (std::size_t i = 0; i < kAlgorithms; ++i) {
      const EnergyOutcome e = fold_energy(*records, grid, i);
      auto row = table.row();
      row.cell(std::string(sim::algorithm_name(sim::kAllAlgorithms[i])))
          .cell(e.total_mj, 2)
          .cell(e.hotspot_uj, 1)
          .cell(e.hotspot_uj > 0.0 ? 1e6 / e.hotspot_uj : 0.0, 0)
          .cell(e.rmse, 2);
      table.commit_row(row);
    }
    bench::emit(table, options.csv_path, "Energy per tracking run");
    std::cout << "\nThe hotspot column is what kills a deployment: SDPF's"
                 " transceiver uploads and CPF's relays concentrate energy on"
                 " a few nodes, while CDPF/CDPF-NE spread single-hop"
                 " broadcasts along the trajectory.\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
