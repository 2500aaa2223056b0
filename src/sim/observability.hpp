// Glue between the simulation layer and the support observability plane:
// folds wsn::CommStats run accounting into the global metrics registry and
// provides the RAII scope the benches/examples use to honour `--trace` /
// `--metrics` CLI flags.
#pragma once

#include <string>

#include "support/metrics.hpp"
#include "wsn/comm_stats.hpp"

namespace cdpf::sim {

/// Fold a finished run's communication accounting into `registry` as
/// per-kind counters (`comm-<kind>-messages/-bytes/-receptions`) plus
/// `comm-total-*` rollups. Pure integer additions into atomic counters, so
/// folding N trials concurrently from any number of workers produces totals
/// bitwise identical to a serial fold — a metrics snapshot reproduces the
/// summed CommStats exactly for any `--workers` value.
void observe_comm(const wsn::CommStats& stats,
                  support::MetricsRegistry& registry = support::global_metrics());

/// RAII observability session for a CLI run. On construction: resets the
/// global metrics registry and, when a trace path is given, starts a trace
/// session. On destruction: stops the session, warns on stderr when the
/// trace dropped events (a full per-thread buffer), and writes the
/// requested files — the trace as Chrome trace JSON, the metrics as a
/// `cdpf-metrics/1` snapshot.
///
/// In a default build (tracing compiled out) a `--trace` file is still
/// written, just with an empty `traceEvents` array — the run stays valid,
/// and the scope warns on stderr that instrumentation was compiled away.
class ObservabilityScope {
 public:
  /// Empty paths disable the corresponding output.
  ObservabilityScope(std::string trace_path, std::string metrics_path);
  ~ObservabilityScope();

  ObservabilityScope(const ObservabilityScope&) = delete;
  ObservabilityScope& operator=(const ObservabilityScope&) = delete;

  bool tracing() const { return !trace_path_.empty(); }

 private:
  std::string trace_path_;
  std::string metrics_path_;
};

}  // namespace cdpf::sim
