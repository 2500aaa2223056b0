// Ablation A2: where does CDPF's ~90% saving over SDPF come from? Sweep
// SDPF's particles-per-detecting-node (the paper evaluates eight). SDPF's
// propagation cost scales linearly with it while CDPF's one-combined-
// particle-per-node discipline is insensitive — with one particle per node,
// SDPF's remaining overhead versus CDPF is the weight-aggregation traffic
// (the 2 D_w vs D_w of Table I).
//
//   ./ablation_particles_per_node [--density=20] [--trials=5]
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace cdpf;
  try {
    support::CliArgs args(argc, argv);
    sim::CliSpec spec;
    spec.description = "Ablation A2: SDPF particles-per-detecting-node sweep.";
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

    // Cell 0 is the CDPF reference; cells 1..5 sweep SDPF's particle count.
    const std::size_t counts[] = {1, 2, 4, 8, 16};
    constexpr std::size_t kCells = 6;

    const sim::SweepGrid grid(kCells, 1, options.trials);

    sim::ExperimentRunner runner(options.run_spec(
        "ablation_particles_per_node",
        {{"density", support::format_double(density, 6)}}));
    const auto records = runner.run(grid.slots(), [&](std::size_t slot) {
      const sim::SweepGrid::Slot s = grid.at(slot);
      sim::AlgorithmParams params;
      if (s.point > 0) {
        params.sdpf.particles_per_detection = counts[s.point - 1];
      }
      const sim::AlgorithmKind kind =
          s.point == 0 ? sim::AlgorithmKind::kCdpf : sim::AlgorithmKind::kSdpf;
      return sim::to_record(
          sim::run_trial(scenario, kind, params, options.seed, s.trial));
    });
    if (!records) {
      bench::announce_snapshot(runner);
      return 0;
    }

    const sim::MonteCarloResult cdpf = grid.fold(*records, 0, 0);
    std::cout << "Ablation A2 — SDPF particles per detecting node (density "
              << density << ", " << options.trials << " trials; CDPF reference: "
              << support::format_double(cdpf.total_bytes.mean(), 0) << " B, RMSE "
              << support::format_double(cdpf.rmse.mean(), 2) << " m)\n";

    support::Table table({"particles/node", "SDPF bytes", "SDPF RMSE (m)",
                          "CDPF saving vs SDPF"});
    for (std::size_t ci = 1; ci < kCells; ++ci) {
      const sim::MonteCarloResult sdpf = grid.fold(*records, ci, 0);
      auto row = table.row();
      row.cell(counts[ci - 1])
          .cell(sdpf.total_bytes.mean(), 0)
          .cell(sdpf.rmse.mean(), 2)
          .cell("-" +
                support::format_double(
                    100.0 * (1.0 - cdpf.total_bytes.mean() / sdpf.total_bytes.mean()),
                    1) +
                "%");
      table.commit_row(row);
    }
    bench::emit(table, options.csv_path, "Ablation A2: SDPF particle count");
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
