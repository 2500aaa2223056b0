// The one place the standard experiment flags are parsed.
//
// Every bench and example accepts the same core vocabulary —
// --trials/--seed/--workers, --densities for sweeps, --csv for the result
// table, --trace/--metrics for observability, --shard/--shard-out/--merge
// for the sharded execution plane — and parse_cli_options() is the single
// implementation, replacing the copy-pasted per-binary parsing. A CliSpec
// masks off the groups a binary does not support (an example with no
// Monte-Carlo loop rejects --trials instead of silently ignoring it) and
// feeds the generated --help text.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/observability.hpp"
#include "sim/runspec.hpp"
#include "sim/snapshot.hpp"
#include "support/cli.hpp"

namespace cdpf::sim {

/// One extra, binary-specific flag for the --help listing.
struct CliFlagHelp {
  const char* flag;  // e.g. "--sigma=0.5,1,2"
  const char* help;  // one-line description
};

/// What a binary supports; masked-off groups make their flags unknown
/// (CliArgs::check_unknown rejects them) instead of silently ignored.
struct CliSpec {
  std::string description;          // one-line --help header
  std::vector<CliFlagHelp> extra;   // binary-specific flags
  std::size_t default_trials = 10;  // paper: ten repetitions
  std::uint64_t default_seed = 20110516;  // IPDPS 2011 opening day
  /// Default --densities sweep; empty keeps the paper's 5..40 grid.
  std::vector<double> default_densities;
  bool sweep = true;        // --densities
  bool monte_carlo = true;  // --trials, --seed, --workers
  bool sharding = true;     // --shard, --shard-out, --merge
  bool reports = true;      // --csv
};

/// The parsed standard options. Binary-specific flags are queried on the
/// CliArgs afterwards; call args.check_unknown() once everything is
/// declared.
struct CliOptions {
  std::vector<double> densities{5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0};
  std::size_t trials = 10;
  std::uint64_t seed = 20110516;
  /// Monte Carlo worker threads; defaults to every hardware thread. Trials
  /// give identical aggregates for any worker count (per-trial seed streams
  /// plus order-fixed aggregation), so parallelism is safe to default on.
  std::size_t workers = 1;
  ShardSpec shard;
  std::optional<std::string> shard_out;
  std::vector<std::string> merge_paths;
  std::optional<std::string> csv_path;
  /// Observability session honouring --trace / --metrics: constructed at
  /// parse time, writes the requested files when the options go out of
  /// scope at the end of the run. Null when neither flag was given.
  std::shared_ptr<ObservabilityScope> observability;
  /// --help was given: usage has been printed, the binary should exit 0
  /// without running.
  bool help = false;

  /// Assemble the RunSpec for this invocation: the standard fields from
  /// the parsed flags plus the experiment name and any binary-specific
  /// (key, value) config pairs that must match across shards.
  RunSpec run_spec(std::string experiment,
                   std::vector<std::pair<std::string, std::string>> config = {}) const;
};

/// Parse the standard flags per `spec` (printing usage and setting .help
/// when --help is given). Callers may query extra flags on `args`
/// afterwards and must finish with args.check_unknown().
CliOptions parse_cli_options(support::CliArgs& args, const CliSpec& spec);

/// Default worker count: all hardware threads (hardware_concurrency may
/// report 0 on exotic platforms; never go below 1).
std::size_t default_workers();

}  // namespace cdpf::sim
