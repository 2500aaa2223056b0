// Figure 5 reproduction: total communication cost (bytes) of CPF, SDPF,
// CDPF and CDPF-NE versus node density (5..40 nodes/100 m^2), averaged over
// ten runs — plus the message counts the paper's introduction argues matter
// even more in duty-cycled networks.
//
// Expected shape (paper §VI-B): every curve grows with density; SDPF is the
// most expensive (eight particles per detecting node); CPF sits between
// SDPF and CDPF at this network scale; CDPF cuts SDPF by up to ~90%; and
// CDPF-NE achieves the minimum.
//
//   ./fig5_communication_cost [--densities=5,10,...] [--trials=10] [--csv=x]
//   ./fig5_communication_cost --shard=1/3 ... --merge as in fig6
#include <iostream>

#include "bench_util.hpp"
#include "support/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace cdpf;
  try {
    support::CliArgs args(argc, argv);
    sim::CliSpec spec;
    spec.description =
        "Figure 5 reproduction: communication cost vs node density.";
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
    const std::size_t slots = options.densities.size() * kKinds * options.trials;

    sim::ExperimentRunner runner(options.run_spec(
        "fig5", {{"densities", bench::config_list(options.densities)}}));
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

    std::cout << "Figure 5 — communication cost vs node density ("
              << options.trials << " trials per point)\n";
    support::Table table({"density (nodes/100m^2)", "CPF (B)", "SDPF (B)", "CDPF (B)",
                          "CDPF-NE (B)", "CPF msgs", "SDPF msgs", "CDPF msgs",
                          "CDPF-NE msgs", "CDPF vs SDPF"});
    for (std::size_t di = 0; di < options.densities.size(); ++di) {
      double bytes[kKinds] = {};
      double msgs[kKinds] = {};
      for (std::size_t i = 0; i < kKinds; ++i) {
        const sim::MonteCarloResult r = sim::fold_monte_carlo(
            *records, (di * kKinds + i) * options.trials, options.trials);
        bytes[i] = r.total_bytes.mean();
        msgs[i] = r.total_messages.mean();
      }
      auto row = table.row();
      row.cell(options.densities[di], 0);
      for (std::size_t i = 0; i < kKinds; ++i) {
        row.cell(bytes[i], 0);
      }
      for (std::size_t i = 0; i < kKinds; ++i) {
        row.cell(msgs[i], 0);
      }
      row.cell("-" + support::format_double(100.0 * (1.0 - bytes[2] / bytes[1]), 1) +
               "%");
      table.commit_row(row);
    }
    bench::emit(table, options, "Figure 5");
    // Wall time goes to stderr so stdout depends only on the flags.
    std::cerr << "(swept in " << support::format_double(stopwatch.elapsed_seconds(), 1)
              << " s)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
