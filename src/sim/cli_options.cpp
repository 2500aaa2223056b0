#include "sim/cli_options.hpp"

#include <algorithm>
#include <iostream>
#include <thread>

#include "support/check.hpp"

namespace cdpf::sim {
namespace {

void print_usage(const std::string& program, const CliSpec& spec) {
  std::cout << "Usage: " << program << " [flags]\n";
  if (!spec.description.empty()) {
    std::cout << "\n" << spec.description << "\n";
  }
  std::cout << "\nStandard flags:\n";
  const auto row = [](const char* flag, const std::string& help) {
    std::cout << "  " << flag;
    for (std::size_t pad = std::string(flag).size(); pad < 26; ++pad) {
      std::cout << ' ';
    }
    std::cout << help << "\n";
  };
  if (spec.sweep) {
    row("--densities=5,10,...", "node densities per 100 m^2 to sweep");
  }
  if (spec.monte_carlo) {
    row("--trials=N", "Monte-Carlo repetitions (default " +
                          std::to_string(spec.default_trials) + ")");
    row("--seed=S", "root seed of the per-trial seed streams (default " +
                        std::to_string(spec.default_seed) + ")");
    row("--workers=N", "worker threads (default: all hardware threads; "
                       "results identical for any value)");
  }
  if (spec.sharding) {
    row("--shard=i/N", "run only trial slots s with s % N == i and write a "
                       "cdpf-shard/1 snapshot");
    row("--shard-out=FILE", "snapshot path (default "
                            "<experiment>.shard-<i>of<N>.json)");
    row("--merge=A.json,B.json", "fuse shard snapshots instead of computing; "
                                 "output is byte-identical to the unsharded run");
  }
  if (spec.reports) {
    row("--csv=FILE", "write the result table as CSV");
  }
  row("--trace=FILE", "record a Chrome trace (JSON, loads in Perfetto)");
  row("--metrics=FILE", "write a cdpf-metrics/1 counter snapshot");
  row("--help", "print this message and exit");
  if (!spec.extra.empty()) {
    std::cout << "\nFlags specific to this binary:\n";
    for (const CliFlagHelp& extra : spec.extra) {
      row(extra.flag, extra.help);
    }
  }
}

}  // namespace

std::size_t default_workers() {
  return std::max(1u, std::thread::hardware_concurrency());
}

RunSpec CliOptions::run_spec(
    std::string experiment,
    std::vector<std::pair<std::string, std::string>> config) const {
  RunSpec spec;
  spec.experiment = std::move(experiment);
  spec.trials = trials;
  spec.seed = seed;
  spec.workers = workers;
  spec.shard = shard;
  spec.shard_out = shard_out.value_or("");
  spec.merge_paths = merge_paths;
  spec.config = std::move(config);
  return spec;
}

CliOptions parse_cli_options(support::CliArgs& args, const CliSpec& spec) {
  CliOptions options;
  options.trials = spec.default_trials;
  options.seed = spec.default_seed;
  options.workers = default_workers();

  if (args.get_bool("help").value_or(false)) {
    print_usage(args.program_name(), spec);
    options.help = true;
  }
  if (spec.sweep) {
    if (!spec.default_densities.empty()) {
      options.densities = spec.default_densities;
    }
    if (const auto d = args.get_double_list("densities")) {
      options.densities = *d;
    }
  }
  if (spec.monte_carlo) {
    if (const auto t = args.get_int("trials")) {
      CDPF_CHECK_MSG(*t > 0, "--trials must be positive");
      options.trials = static_cast<std::size_t>(*t);
    }
    if (const auto s = args.get_int("seed")) {
      options.seed = static_cast<std::uint64_t>(*s);
    }
    if (const auto w = args.get_int("workers")) {
      options.workers = std::max<std::size_t>(1, static_cast<std::size_t>(*w));
    }
  }
  if (spec.sharding) {
    if (const auto s = args.get_string("shard")) {
      options.shard = parse_shard(*s);
    }
    options.shard_out = args.get_string("shard-out");
    if (const auto m = args.get_string_list("merge")) {
      options.merge_paths = *m;
    }
    CDPF_CHECK_MSG(!(options.shard.is_sharded() && !options.merge_paths.empty()),
                   "--shard and --merge are mutually exclusive");
    CDPF_CHECK_MSG(options.merge_paths.empty() || !options.shard_out,
                   "--shard-out makes no sense in --merge mode");
  }
  if (spec.reports) {
    options.csv_path = args.get_string("csv");
  }
  const std::string trace_path = args.get_string("trace").value_or("");
  const std::string metrics_path = args.get_string("metrics").value_or("");
  if (!trace_path.empty() || !metrics_path.empty()) {
    options.observability =
        std::make_shared<ObservabilityScope>(trace_path, metrics_path);
  }
  return options;
}

}  // namespace cdpf::sim
