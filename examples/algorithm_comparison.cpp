// Algorithm comparison: sweep all five tracking algorithms over a range of
// node densities and print accuracy + communication side by side (the
// user-facing combination of the paper's Figures 5 and 6), with optional
// CSV export for plotting.
//
//   ./algorithm_comparison [--densities=5,20,40] [--trials=5] [--csv=out.csv]
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <vector>

#include "sim/cli_options.hpp"
#include "sim/experiment.hpp"
#include "sim/runspec.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace cdpf;
  try {
    support::CliArgs args(argc, argv);
    sim::CliSpec spec;
    spec.description =
        "All five algorithms, accuracy and communication, per density.";
    spec.extra = {{"--csv=out.csv", "write the result table as CSV"}};
    spec.sharding = false;
    spec.reports = false;
    spec.default_trials = 5;
    spec.default_seed = 1;
    spec.default_densities = {5.0, 20.0, 40.0};
    const sim::CliOptions options = sim::parse_cli_options(args, spec);
    const auto csv = args.get_string("csv");
    args.check_unknown();
    if (options.help) {
      return EXIT_SUCCESS;
    }

    const sim::AlgorithmParams params;
    const sim::SweepGrid grid(options.densities.size(), std::size(sim::kAllAlgorithms),
                              options.trials);
    const std::vector<sim::SlotRecord> records = sim::run_slots_ordered<sim::SlotRecord>(
        grid.slots(), options.workers, [&](std::size_t slot) {
          const sim::SweepGrid::Slot s = grid.at(slot);
          sim::Scenario scenario;
          scenario.density_per_100m2 = options.densities[s.point];
          return sim::to_record(sim::run_trial(scenario, sim::kAllAlgorithms[s.kind],
                                               params, options.seed, s.trial));
        });

    support::Table table({"density", "algorithm", "RMSE (m)", "mean err (m)",
                          "bytes", "messages"});
    for (std::size_t di = 0; di < options.densities.size(); ++di) {
      for (std::size_t ki = 0; ki < std::size(sim::kAllAlgorithms); ++ki) {
        const sim::MonteCarloResult r = grid.fold(records, di, ki);
        auto row = table.row();
        row.cell(options.densities[di], 0)
            .cell(std::string(sim::algorithm_name(sim::kAllAlgorithms[ki])))
            .cell(r.rmse.mean(), 2)
            .cell(r.mean_error.mean(), 2)
            .cell(r.total_bytes.mean(), 0)
            .cell(r.total_messages.mean(), 0);
        table.commit_row(row);
      }
    }
    std::cout << "Algorithm comparison (" << options.trials
              << " trials per point)\n\n"
              << table.to_ascii();
    if (csv) {
      table.write_csv(*csv);
      std::cout << "\nCSV written to " << *csv << '\n';
    }
    std::cout << "\nReading guide: CPF is the accuracy ceiling; SDPF matches"
                 " CDPF's accuracy at ~8x the traffic; CDPF-NE trades accuracy"
                 " for the architectural communication minimum.\n";
    return EXIT_SUCCESS;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return EXIT_FAILURE;
  }
}
