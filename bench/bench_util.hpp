// Shared reporting helpers for the figure/table reproduction benches.
//
// Flag parsing lives in sim::parse_cli_options and trial execution in
// sim::ExperimentRunner (see src/sim/cli_options.hpp, src/sim/runspec.hpp);
// what remains here is the output side: emitting the finished table to
// stdout/CSV/cdpf-bench JSON, and the shard-mode epilogue.
#pragma once

#include <iostream>
#include <string>

#include "bench_report.hpp"
#include "sim/cli_options.hpp"
#include "sim/experiment.hpp"
#include "sim/runspec.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace cdpf::bench {

/// Emit the finished table to stdout (ASCII) and optionally to CSV and to a
/// cdpf-bench/1 JSON report (one entry covering the whole run).
inline void emit(const support::Table& table, const sim::CliOptions& options,
                 const std::string& title) {
  std::cout << "\n== " << title << " ==\n" << table.to_ascii();
  if (options.csv_path) {
    table.write_csv(*options.csv_path);
    std::cout << "(CSV written to " << *options.csv_path << ")\n";
  }
  if (options.json_path) {
    const double wall = options.wall.elapsed_seconds();
    BenchEntry entry;
    entry.name = title;
    entry.wall_seconds = wall;
    entry.iterations = options.trials;
    entry.iterations_per_second =
        wall > 0.0 ? static_cast<double>(options.trials) / wall : 0.0;
    const bool ok = write_report(
        *options.json_path, {entry},
        {{"trials", std::to_string(options.trials)},
         {"workers", std::to_string(options.workers)},
         {"seed", std::to_string(options.seed)}});
    if (ok) {
      std::cout << "(JSON report written to " << *options.json_path << ")\n";
    } else {
      std::cerr << "warning: could not write JSON report to "
                << *options.json_path << "\n";
    }
  }
}

/// Canonical comma-joined rendering of a numeric sweep list for RunSpec
/// config digests (shards of runs over different sweeps must not fuse).
inline std::string config_list(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    out += out.empty() ? "" : ",";
    out += support::format_double(v, 6);
  }
  return out;
}

/// Shard-mode epilogue: the runner wrote its snapshot instead of producing
/// records; tell the user where it went and how to finish the run.
inline void announce_snapshot(const sim::ExperimentRunner& runner) {
  std::cout << "Shard " << runner.spec().shard.to_string()
            << " complete; snapshot written to " << runner.snapshot_path()
            << "\nFuse all shards with --merge=<snapshots> to get the full table.\n";
}

}  // namespace cdpf::bench
