// Figure 4 reproduction: "Estimation example" — the real target trajectory
// together with the CDPF and CDPF-NE estimates for one run at node density
// 20 nodes/100 m^2.
//
// Prints one row per estimate instant: time, true position, each filter's
// estimated position and its error — the series the paper plots.
//
//   ./fig4_estimation_example [--density=20] [--seed=...] [--csv=out.csv]
#include <algorithm>
#include <iostream>
#include <map>

#include "bench_util.hpp"
#include "support/ascii_plot.hpp"
#include "support/statistics.hpp"

namespace {

using namespace cdpf;

/// One filter's estimate series, flattened for the shard snapshot as
/// (rounded time, x, y) triples in time order.
sim::SlotRecord run_one(sim::AlgorithmKind kind, const sim::Scenario& scenario,
                        std::uint64_t seed) {
  // Same trial index => identical deployment and trajectory for both
  // algorithms, exactly like the paper's single-run figure.
  const sim::TrialResult result =
      sim::run_trial(scenario, kind, sim::AlgorithmParams{}, seed, 0);
  std::map<int, core::TimedEstimate> by_time;
  for (const sim::ScoredEstimate& s : result.outcome.scored) {
    by_time[static_cast<int>(s.estimate.time + 0.5)] = s.estimate;
  }
  sim::SlotRecord record;
  record.values.reserve(3 * by_time.size());
  for (const auto& [t, est] : by_time) {
    record.values.push_back(static_cast<double>(t));
    record.values.push_back(est.state.position.x);
    record.values.push_back(est.state.position.y);
  }
  return record;
}

std::map<int, geom::Vec2> to_series(const sim::SlotRecord& record) {
  std::map<int, geom::Vec2> series;
  for (std::size_t i = 0; i + 2 < record.values.size(); i += 3) {
    series[static_cast<int>(record.values[i])] = {record.values[i + 1],
                                                  record.values[i + 2]};
  }
  return series;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cdpf;
  try {
    support::CliArgs args(argc, argv);
    sim::CliSpec spec;
    spec.description =
        "Figure 4 reproduction: one run's trajectory vs CDPF / CDPF-NE estimates.";
    spec.extra = {{"--density=20", "node density per 100 m^2"}};
    spec.sweep = false;
    sim::CliOptions options = sim::parse_cli_options(args, spec);
    const double density = args.get_double("density").value_or(20.0);
    args.check_unknown();
    if (options.help) {
      return 0;
    }

    sim::Scenario scenario;
    scenario.density_per_100m2 = density;

    // The two filters replay the same trial independently; with --workers>1
    // they run concurrently, and the slot order keeps output identical.
    const sim::AlgorithmKind kinds[] = {sim::AlgorithmKind::kCdpf,
                                        sim::AlgorithmKind::kCdpfNe};
    sim::ExperimentRunner runner(options.run_spec(
        "fig4", {{"density", support::format_double(density, 6)}}));
    const auto records = runner.run(2, [&](std::size_t i) {
      return run_one(kinds[i], scenario, options.seed);
    });
    if (!records) {
      bench::announce_snapshot(runner);
      return 0;
    }
    const std::map<int, geom::Vec2> cdpf = to_series((*records)[0]);
    const std::map<int, geom::Vec2> ne = to_series((*records)[1]);

    // The reference trajectory of the shared trial, recomputed from the
    // seed (deterministic, so identical in compute and merge mode).
    rng::Rng rng(rng::derive_stream_seed(options.seed, 0));
    (void)sim::build_network(scenario, rng);  // consume the deployment draws
    const tracking::Trajectory trajectory =
        tracking::generate_random_turn_trajectory(scenario.trajectory, rng);

    std::cout << "Figure 4 — estimation example (density " << density
              << " nodes/100m^2, one run)\n";
    support::Table table({"t (s)", "true x", "true y", "CDPF x", "CDPF y",
                          "CDPF err (m)", "CDPF-NE x", "CDPF-NE y",
                          "CDPF-NE err (m)"});
    support::RunningStats cdpf_err, ne_err;
    for (const auto& [t, est] : cdpf) {
      const auto it = ne.find(t);
      if (it == ne.end()) {
        continue;
      }
      const tracking::TargetState truth = trajectory.at_time(t);
      const double e1 = geom::distance(est, truth.position);
      const double e2 = geom::distance(it->second, truth.position);
      cdpf_err.add(e1);
      ne_err.add(e2);
      auto row = table.row();
      row.cell(static_cast<long long>(t))
          .cell(truth.position.x, 2)
          .cell(truth.position.y, 2)
          .cell(est.x, 2)
          .cell(est.y, 2)
          .cell(e1, 2)
          .cell(it->second.x, 2)
          .cell(it->second.y, 2)
          .cell(e2, 2);
      table.commit_row(row);
    }
    bench::emit(table, options.csv_path, "Figure 4");

    // Terminal rendering of the figure itself: '.' real trajectory,
    // 'o' CDPF estimates, 'x' CDPF-NE estimates.
    double y_lo = 1e9, y_hi = -1e9;
    std::vector<std::pair<double, double>> truth_line;
    for (std::size_t k = 0; k < trajectory.size(); ++k) {
      const geom::Vec2 p = trajectory.at_step(k).position;
      truth_line.emplace_back(p.x, p.y);
      y_lo = std::min(y_lo, p.y);
      y_hi = std::max(y_hi, p.y);
    }
    support::AsciiPlot plot(0.0, 160.0, y_lo - 8.0, y_hi + 8.0, 100, 24);
    plot.polyline(truth_line, '.');
    for (const auto& [t, est] : cdpf) {
      plot.point(est.x, est.y, 'o');
    }
    for (const auto& [t, est] : ne) {
      plot.point(est.x, est.y, 'x');
    }
    std::cout << "\n'.' real trajectory   'o' CDPF estimate   'x' CDPF-NE estimate\n"
              << plot.render();
    std::cout << "\nmean error: CDPF " << support::format_double(cdpf_err.mean(), 2)
              << " m, CDPF-NE " << support::format_double(ne_err.mean(), 2)
              << " m (paper: CDPF-NE slightly above CDPF; errors of up to a"
                 " few meters are tolerable at this density)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
