// Extension bench: the "compress the data, not the messages" DPF family the
// paper contrasts CDPF with (§I, §VII) — CPF (raw measurements) and DPF
// (quantized measurements, Coates [10]) — against SDPF and CDPF/CDPF-NE.
//
// The point the paper makes analytically: the compression family reduces
// BYTES but not MESSAGES, while the completely distributed family reduces
// both. The message columns make that visible.
//
//   ./dpf_family [--density=20] [--trials=5]
#include <iostream>
#include <iterator>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace cdpf;
  try {
    support::CliArgs args(argc, argv);
    sim::CliSpec spec;
    spec.description =
        "Compression-family baseline DPF vs CDPF/CDPF-NE.";
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

    struct Entry {
      sim::AlgorithmKind kind;
      const char* family;
    };
    const Entry entries[] = {
        {sim::AlgorithmKind::kCpf, "centralized"},
        {sim::AlgorithmKind::kDpf, "compression (quantized)"},
        {sim::AlgorithmKind::kSdpf, "semi-distributed"},
        {sim::AlgorithmKind::kCdpf, "completely distributed"},
        {sim::AlgorithmKind::kCdpfNe, "completely distributed"},
    };
    const std::size_t kEntries = std::size(entries);

    const sim::SweepGrid grid(1, kEntries, options.trials);

    sim::ExperimentRunner runner(options.run_spec(
        "dpf_family", {{"density", support::format_double(density, 6)}}));
    const auto records = runner.run(grid.slots(), [&](std::size_t slot) {
      const sim::SweepGrid::Slot s = grid.at(slot);
      return sim::to_record(
          sim::run_trial(scenario, entries[s.kind].kind, params, options.seed, s.trial));
    });
    if (!records) {
      bench::announce_snapshot(runner);
      return 0;
    }

    std::cout << "DPF family comparison (density " << density << ", "
              << options.trials << " trials)\n";
    support::Table table({"algorithm", "family", "RMSE (m)", "bytes", "messages"});
    for (std::size_t i = 0; i < kEntries; ++i) {
      const sim::MonteCarloResult r = grid.fold(*records, 0, i);
      auto row = table.row();
      row.cell(std::string(sim::algorithm_name(entries[i].kind)))
          .cell(entries[i].family)
          .cell(r.rmse.mean(), 2)
          .cell(r.total_bytes.mean(), 0)
          .cell(r.total_messages.mean(), 0);
      table.commit_row(row);
    }
    bench::emit(table, options.csv_path, "DPF family");
    std::cout << "\nThe compression family (DPF) shrinks bytes but"
                 " keeps per-measurement messages; the completely distributed"
                 " family shrinks both — the paper's core argument for CDPF"
                 " in duty-cycled networks.\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
