// Ablation A5 (paper future work #2: "apply CDPF's idea to more PF
// branches"): the resampling scheme inside the WSN filters. SDPF resamples
// locally per node; CPF resamples its central cloud. The four classic
// schemes are compared (the paper's SIR basis resamples every iteration).
//
//   ./ablation_resampling [--density=20] [--trials=5]
#include <iostream>

#include "bench_util.hpp"
#include "filters/resampling.hpp"

int main(int argc, char** argv) {
  using namespace cdpf;
  try {
    support::CliArgs args(argc, argv);
    sim::CliSpec spec;
    spec.description = "Ablation A5: resampling-scheme comparison for CPF/SDPF.";
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

    const filters::ResamplingScheme schemes[] = {
        filters::ResamplingScheme::kMultinomial,
        filters::ResamplingScheme::kStratified,
        filters::ResamplingScheme::kSystematic,
        filters::ResamplingScheme::kResidual};
    const sim::AlgorithmKind kinds[] = {sim::AlgorithmKind::kCpf,
                                        sim::AlgorithmKind::kSdpf};
    constexpr std::size_t kSchemes = 4;
    constexpr std::size_t kKinds = 2;

    const sim::SweepGrid grid(kSchemes, kKinds, options.trials);

    sim::ExperimentRunner runner(options.run_spec(
        "ablation_resampling", {{"density", support::format_double(density, 6)}}));
    const auto records = runner.run(grid.slots(), [&](std::size_t slot) {
      const sim::SweepGrid::Slot s = grid.at(slot);
      sim::AlgorithmParams params;
      params.cpf.resampling = schemes[s.point];
      params.sdpf.resampling = schemes[s.point];
      return sim::to_record(
          sim::run_trial(scenario, kinds[s.kind], params, options.seed, s.trial));
    });
    if (!records) {
      bench::announce_snapshot(runner);
      return 0;
    }

    std::cout << "Ablation A5 — resampling scheme (density " << density << ", "
              << options.trials << " trials)\n";
    support::Table table({"scheme", "CPF RMSE (m)", "SDPF RMSE (m)"});
    for (std::size_t si = 0; si < kSchemes; ++si) {
      auto row = table.row();
      row.cell(std::string(filters::resampling_scheme_name(schemes[si])))
          .cell(grid.fold(*records, si, 0).rmse.mean(), 2)
          .cell(grid.fold(*records, si, 1).rmse.mean(), 2);
      table.commit_row(row);
    }
    bench::emit(table, options.csv_path, "Ablation A5: resampling scheme");
    std::cout << "\nAll schemes are unbiased; differences reflect resampling"
                 " variance only, so the curves should be close — systematic"
                 " (the default) has the lowest variance.\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
