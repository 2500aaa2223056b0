// Ablation A3 (paper future work #1): CDPF's tolerance to unexpected node
// failure. A fraction of the deployment is killed uniformly at random at
// t = 0 (unanticipated — no schedule change, no reconfiguration) and the
// filters run on what is left.
//
//   ./ablation_node_failure [--density=20] [--trials=5]
#include <iostream>

#include "bench_util.hpp"
#include "wsn/failure.hpp"

int main(int argc, char** argv) {
  using namespace cdpf;
  try {
    support::CliArgs args(argc, argv);
    sim::CliSpec spec;
    spec.description = "Ablation A3: tolerance to unexpected node failure.";
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
    const sim::AlgorithmParams params;

    const double fractions[] = {0.0, 0.1, 0.2, 0.3, 0.5};
    const sim::AlgorithmKind kinds[] = {sim::AlgorithmKind::kCdpf,
                                        sim::AlgorithmKind::kCdpfNe,
                                        sim::AlgorithmKind::kSdpf};
    constexpr std::size_t kFractions = 5;
    constexpr std::size_t kKinds = 3;

    const sim::SweepGrid grid(kFractions, kKinds, options.trials);

    sim::ExperimentRunner runner(options.run_spec(
        "ablation_node_failure", {{"density", support::format_double(density, 6)}}));
    const auto records = runner.run(grid.slots(), [&](std::size_t slot) {
      const sim::SweepGrid::Slot s = grid.at(slot);
      const double fraction = fractions[s.point];
      const auto hook_factory = [fraction](wsn::Network& net,
                                           rng::Rng& rng) -> sim::StepHook {
        wsn::FailureInjector(net).fail_fraction(fraction, rng);
        return {};
      };
      return sim::to_record(sim::run_trial(scenario, kinds[s.kind], params,
                                           options.seed, s.trial, hook_factory));
    });
    if (!records) {
      bench::announce_snapshot(runner);
      return 0;
    }

    std::cout << "Ablation A3 — tolerance to unexpected node failure (density "
              << density << ", " << options.trials << " trials)\n";
    support::Table table({"failed fraction", "CDPF RMSE (m)", "CDPF-NE RMSE (m)",
                          "SDPF RMSE (m)", "CDPF lost runs"});
    for (std::size_t fi = 0; fi < kFractions; ++fi) {
      const sim::MonteCarloResult cdpf = grid.fold(*records, fi, 0);
      auto row = table.row();
      row.cell(fractions[fi], 1)
          .cell(cdpf.rmse.mean(), 2)
          .cell(grid.fold(*records, fi, 1).rmse.mean(), 2)
          .cell(grid.fold(*records, fi, 2).rmse.mean(), 2)
          .cell(cdpf.trials_without_estimates);
      table.commit_row(row);
    }
    bench::emit(table, options.csv_path, "Ablation A3: node failure");
    std::cout << "\nKilling nodes thins the effective density; the error rises"
                 " accordingly but tracking survives (the filter re-anchors on"
                 " whatever still detects the target).\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
