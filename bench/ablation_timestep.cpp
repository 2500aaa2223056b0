// Ablation A1: sensitivity of the distributed filters to the iteration
// period. The paper fixes "the time step of CDPF" at 5 s; this sweep shows
// the accuracy/communication trade: shorter steps track tighter but
// propagate particles more often, and long steps strain the overhearing
// assumption (propagation "reaches too far").
//
//   ./ablation_timestep [--density=20] [--trials=5] [--seed=...]
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace cdpf;
  try {
    support::CliArgs args(argc, argv);
    sim::CliSpec spec;
    spec.description = "Ablation A1: CDPF/CDPF-NE iteration-period sweep.";
    spec.extra = {{"--density=20", "node density per 100 m^2"}};
    spec.sweep = false;
    spec.default_trials = 5;
    sim::CliOptions options = sim::parse_cli_options(args, spec);
    const double density = args.get_double("density").value_or(20.0);
    args.check_unknown();
    if (options.help) {
      return 0;
    }

    sim::Scenario scenario;
    scenario.density_per_100m2 = density;

    const double steps[] = {1.0, 2.0, 5.0, 10.0};
    const sim::AlgorithmKind kinds[] = {sim::AlgorithmKind::kCdpf,
                                        sim::AlgorithmKind::kCdpfNe};
    constexpr std::size_t kSteps = 4;
    constexpr std::size_t kKinds = 2;

    const sim::SweepGrid grid(kSteps, kKinds, options.trials);

    sim::ExperimentRunner runner(options.run_spec(
        "ablation_timestep", {{"density", support::format_double(density, 6)}}));
    const auto records = runner.run(grid.slots(), [&](std::size_t slot) {
      const sim::SweepGrid::Slot s = grid.at(slot);
      sim::AlgorithmParams params;
      params.cdpf.dt = steps[s.point];
      return sim::to_record(
          sim::run_trial(scenario, kinds[s.kind], params, options.seed, s.trial));
    });
    if (!records) {
      bench::announce_snapshot(runner);
      return 0;
    }

    std::cout << "Ablation A1 — CDPF/CDPF-NE iteration period (density " << density
              << ", " << options.trials << " trials)\n";
    support::Table table({"dt (s)", "CDPF RMSE (m)", "CDPF bytes", "CDPF-NE RMSE (m)",
                          "CDPF-NE bytes"});
    for (std::size_t di = 0; di < kSteps; ++di) {
      const sim::MonteCarloResult cdpf = grid.fold(*records, di, 0);
      const sim::MonteCarloResult ne = grid.fold(*records, di, 1);
      auto row = table.row();
      row.cell(steps[di], 0)
          .cell(cdpf.rmse.mean(), 2)
          .cell(cdpf.total_bytes.mean(), 0)
          .cell(ne.rmse.mean(), 2)
          .cell(ne.total_bytes.mean(), 0);
      table.commit_row(row);
    }
    bench::emit(table, options.csv_path, "Ablation A1: iteration period");
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
