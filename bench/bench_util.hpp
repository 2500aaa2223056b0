// Shared reporting helpers for the figure/table reproduction benches.
//
// Flag parsing lives in sim::parse_cli_options and trial execution in
// sim::ExperimentRunner (see src/sim/cli_options.hpp, src/sim/runspec.hpp);
// what remains here is the output side: emitting the finished table to
// stdout and CSV, and the shard-mode epilogue.
#pragma once

#include <iostream>
#include <optional>
#include <string>

#include "sim/cli_options.hpp"
#include "sim/experiment.hpp"
#include "sim/runspec.hpp"
#include "support/table.hpp"

namespace cdpf::bench {

/// Emit the finished table to stdout (ASCII) and optionally to CSV.
inline void emit(const support::Table& table, const std::optional<std::string>& csv_path,
                 const std::string& title) {
  std::cout << "\n== " << title << " ==\n" << table.to_ascii();
  if (csv_path) {
    table.write_csv(*csv_path);
    std::cout << "(CSV written to " << *csv_path << ")\n";
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
