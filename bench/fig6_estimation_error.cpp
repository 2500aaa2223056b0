// Figure 6 reproduction: estimation error (RMSE, meters) of CPF, SDPF, CDPF
// and CDPF-NE versus node density (5..40 nodes/100 m^2), averaged over ten
// runs.
//
// Expected shape (paper §VI-B): CPF is the most accurate; CDPF shows an
// RMSE similar to SDPF (their measurement sharing and propagation are
// alike); CDPF-NE is the worst because it replaces the likelihood with the
// geometric neighborhood estimate; and the node-hosted filters' errors
// shrink as the deployment gets denser (their floor is the node spacing).
//
//   ./fig6_estimation_error [--densities=5,10,...] [--trials=10] [--csv=x]
//   ./fig6_estimation_error --shard=0/3          # one of three processes
//   ./fig6_estimation_error --merge=a.json,b.json,c.json
#include <iostream>

#include "bench_util.hpp"
#include "support/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace cdpf;
  try {
    support::CliArgs args(argc, argv);
    sim::CliSpec spec;
    spec.description =
        "Figure 6 reproduction: estimation error (RMSE) vs node density.";
    const sim::CliOptions options = sim::parse_cli_options(args, spec);
    args.check_unknown();
    if (options.help) {
      return 0;
    }

    const sim::AlgorithmParams params;
    const sim::AlgorithmKind kinds[] = {sim::AlgorithmKind::kCpf,
                                        sim::AlgorithmKind::kSdpf,
                                        sim::AlgorithmKind::kCdpf,
                                        sim::AlgorithmKind::kCdpfNe};
    constexpr std::size_t kKinds = 4;
    // Slot space: densities x algorithms x trials; the trial seed is the
    // within-cell trial index, so every cell sees the same seed stream as a
    // standalone run_monte_carlo would.
    const std::size_t slots = options.densities.size() * kKinds * options.trials;

    sim::ExperimentRunner runner(options.run_spec(
        "fig6", {{"densities", bench::config_list(options.densities)}}));
    support::Stopwatch stopwatch;
    const auto records = runner.run(slots, [&](std::size_t slot) {
      const std::size_t cell = slot / options.trials;
      sim::Scenario scenario;
      scenario.density_per_100m2 = options.densities[cell / kKinds];
      return sim::to_record(sim::run_trial(scenario, kinds[cell % kKinds], params,
                                           options.seed, slot % options.trials));
    });
    if (!records) {
      bench::announce_snapshot(runner);
      return 0;
    }

    std::cout << "Figure 6 — estimation error (RMSE) vs node density ("
              << options.trials << " trials per point)\n";
    support::Table table({"density (nodes/100m^2)", "CPF (m)", "SDPF (m)", "CDPF (m)",
                          "CDPF-NE (m)", "CDPF vs SDPF", "NE vs SDPF"});
    for (std::size_t di = 0; di < options.densities.size(); ++di) {
      double rmse[kKinds] = {};
      for (std::size_t i = 0; i < kKinds; ++i) {
        const sim::MonteCarloResult r = sim::fold_monte_carlo(
            *records, (di * kKinds + i) * options.trials, options.trials);
        rmse[i] = r.rmse.mean();
      }
      auto percent = [](double ratio) {
        const double value = 100.0 * (ratio - 1.0);
        return (value >= 0.0 ? "+" : "") + support::format_double(value, 0) + "%";
      };
      auto row = table.row();
      row.cell(options.densities[di], 0);
      for (std::size_t i = 0; i < kKinds; ++i) {
        row.cell(rmse[i], 2);
      }
      row.cell(percent(rmse[2] / rmse[1]));
      row.cell(percent(rmse[3] / rmse[1]));
      table.commit_row(row);
    }
    bench::emit(table, options, "Figure 6");
    // Wall time goes to stderr so stdout depends only on the flags.
    std::cerr << "(swept in " << support::format_double(stopwatch.elapsed_seconds(), 1)
              << " s)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
