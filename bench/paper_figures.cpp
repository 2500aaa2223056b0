// Figures 5 and 6 reproduction from one sweep. The paper draws both from the
// same runs (§VI-B): CPF, SDPF, CDPF and CDPF-NE versus node density
// (5..40 nodes/100 m^2), ten runs per point. The densities x trackers x
// trials grid runs once; Figure 5 (total communication cost in bytes, plus
// the message counts the paper's introduction argues matter even more in
// duty-cycled networks) and Figure 6 (RMSE, meters) fold the same records.
//
// Expected shape (paper §VI-B):
//   Figure 5 — every curve grows with density; SDPF is the most expensive
//   (eight particles per detecting node); CPF sits between SDPF and CDPF at
//   this network scale; CDPF cuts SDPF by up to ~90%; and CDPF-NE achieves
//   the minimum.
//   Figure 6 — CPF is the most accurate; CDPF shows an RMSE similar to SDPF
//   (their measurement sharing and propagation are alike); CDPF-NE is the
//   worst because it replaces the likelihood with the geometric
//   neighborhood estimate; and the node-hosted filters' errors shrink as the
//   deployment gets denser (their floor is the node spacing).
//
//   ./paper_figures [--densities=5,10,...] [--trials=10] [--csv=out.csv]
//   ./paper_figures --shard=0/3          # one of three processes
//   ./paper_figures --merge=a.json,b.json,c.json
//
// --csv=out.csv writes one file per figure: out.fig5.csv and out.fig6.csv.
#include <iostream>

#include "bench_util.hpp"
#include "support/stopwatch.hpp"

namespace {

/// The CSV path of one figure: "<stem>.<figure>.csv" for --csv=<stem>.csv.
std::optional<std::string> figure_csv(const std::optional<std::string>& csv,
                                      const char* figure) {
  if (!csv) {
    return std::nullopt;
  }
  std::string stem = *csv;
  if (stem.ends_with(".csv")) {
    stem.resize(stem.size() - 4);
  }
  return stem + "." + figure + ".csv";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cdpf;
  try {
    support::CliArgs args(argc, argv);
    sim::CliSpec spec;
    spec.description =
        "Figures 5 and 6 reproduction: communication cost and RMSE vs node density.";
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
    const sim::SweepGrid grid(options.densities.size(), kKinds, options.trials);

    sim::ExperimentRunner runner(options.run_spec(
        "paper_figures", {{"densities", bench::config_list(options.densities)}}));
    support::Stopwatch stopwatch;
    const auto records = runner.run(grid.slots(), [&](std::size_t slot) {
      const sim::SweepGrid::Slot s = grid.at(slot);
      sim::Scenario scenario;
      scenario.density_per_100m2 = options.densities[s.point];
      return sim::to_record(
          sim::run_trial(scenario, kinds[s.kind], params, options.seed, s.trial));
    });
    if (!records) {
      bench::announce_snapshot(runner);
      return 0;
    }

    support::Table fig5({"density (nodes/100m^2)", "CPF (B)", "SDPF (B)", "CDPF (B)",
                         "CDPF-NE (B)", "CPF msgs", "SDPF msgs", "CDPF msgs",
                         "CDPF-NE msgs", "CDPF vs SDPF"});
    support::Table fig6({"density (nodes/100m^2)", "CPF (m)", "SDPF (m)", "CDPF (m)",
                         "CDPF-NE (m)", "CDPF vs SDPF", "NE vs SDPF"});
    const auto percent = [](double ratio) {
      const double value = 100.0 * (ratio - 1.0);
      return (value >= 0.0 ? "+" : "") + support::format_double(value, 0) + "%";
    };
    for (std::size_t di = 0; di < options.densities.size(); ++di) {
      double bytes[kKinds] = {};
      double msgs[kKinds] = {};
      double rmse[kKinds] = {};
      for (std::size_t i = 0; i < kKinds; ++i) {
        const sim::MonteCarloResult r = grid.fold(*records, di, i);
        bytes[i] = r.total_bytes.mean();
        msgs[i] = r.total_messages.mean();
        rmse[i] = r.rmse.mean();
      }
      auto cost = fig5.row();
      auto error = fig6.row();
      cost.cell(options.densities[di], 0);
      error.cell(options.densities[di], 0);
      for (std::size_t i = 0; i < kKinds; ++i) {
        cost.cell(bytes[i], 0);
        error.cell(rmse[i], 2);
      }
      for (std::size_t i = 0; i < kKinds; ++i) {
        cost.cell(msgs[i], 0);
      }
      cost.cell("-" + support::format_double(100.0 * (1.0 - bytes[2] / bytes[1]), 1) +
                "%");
      error.cell(percent(rmse[2] / rmse[1])).cell(percent(rmse[3] / rmse[1]));
      fig5.commit_row(cost);
      fig6.commit_row(error);
    }
    std::cout << "Figure 5 — communication cost vs node density (" << options.trials
              << " trials per point)\n";
    bench::emit(fig5, figure_csv(options.csv_path, "fig5"), "Figure 5");
    std::cout << "Figure 6 — estimation error (RMSE) vs node density ("
              << options.trials << " trials per point)\n";
    bench::emit(fig6, figure_csv(options.csv_path, "fig6"), "Figure 6");
    // Wall time goes to stderr so stdout depends only on the flags.
    std::cerr << "(swept in " << support::format_double(stopwatch.elapsed_seconds(), 1)
              << " s)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
