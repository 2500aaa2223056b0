// Ablation A7: measurement-noise sensitivity. CPF, SDPF and CDPF consume
// the bearing measurements, so their error grows with sigma_n; CDPF-NE
// replaced the likelihood with the geometric neighborhood estimate and is
// (by construction) insensitive to it — the flip side of its accuracy loss.
//
//   ./ablation_noise [--density=20] [--trials=5]
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace cdpf;
  try {
    support::CliArgs args(argc, argv);
    sim::CliSpec spec;
    spec.description = "Ablation A7: bearing-noise (sigma_n) sensitivity sweep.";
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

    const double sigmas[] = {0.01, 0.05, 0.1, 0.2, 0.5};
    const sim::AlgorithmKind kinds[] = {sim::AlgorithmKind::kCpf,
                                        sim::AlgorithmKind::kSdpf,
                                        sim::AlgorithmKind::kCdpf,
                                        sim::AlgorithmKind::kCdpfNe};
    constexpr std::size_t kSigmas = 5;
    constexpr std::size_t kKinds = 4;

    const sim::SweepGrid grid(kSigmas, kKinds, options.trials);

    sim::ExperimentRunner runner(options.run_spec(
        "ablation_noise", {{"density", support::format_double(density, 6)}}));
    const auto records = runner.run(grid.slots(), [&](std::size_t slot) {
      const sim::SweepGrid::Slot s = grid.at(slot);
      sim::AlgorithmParams params;
      const double sigma = sigmas[s.point];
      params.cpf.sigma_bearing = sigma;
      params.sdpf.sigma_bearing = sigma;
      params.cdpf.sigma_bearing = sigma;
      return sim::to_record(
          sim::run_trial(scenario, kinds[s.kind], params, options.seed, s.trial));
    });
    if (!records) {
      bench::announce_snapshot(runner);
      return 0;
    }

    std::cout << "Ablation A7 — bearing noise sigma_n (density " << density << ", "
              << options.trials << " trials; paper: sigma_n = 0.05)\n";
    support::Table table({"sigma_n (rad)", "CPF RMSE (m)", "SDPF RMSE (m)",
                          "CDPF RMSE (m)", "CDPF-NE RMSE (m)"});
    for (std::size_t si = 0; si < kSigmas; ++si) {
      auto row = table.row();
      row.cell(sigmas[si], 2);
      for (std::size_t ki = 0; ki < kKinds; ++ki) {
        row.cell(grid.fold(*records, si, ki).rmse.mean(), 2);
      }
      table.commit_row(row);
    }
    bench::emit(table, options.csv_path, "Ablation A7: measurement noise");
    std::cout << "\nThe node-hosted filters are nearly flat in sigma_n: their"
                 " effective measurement noise is dominated by the angular"
                 " uncertainty of the ~2 m node-position quantization"
                 " (delta/d ~ 0.2 rad), not by the sensor noise itself —"
                 " the error floor of the particles-on-nodes architecture."
                 " CDPF-NE ignores measurements entirely and is exactly"
                 " constant.\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
