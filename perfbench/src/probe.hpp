// Routing probe: replays CPF's measurement convergecast from outside the
// tracker. At every CPF iteration instant of a trial it routes from each
// active node within r_s of the true target to the sink with
// GreedyGeographicRouter::route_into, and times one
// Network::active_nodes_within query at r_c around each source (the grid
// query the greedy router repeats per hop).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

struct ProbeStats {
  std::size_t routes = 0;
  std::size_t failed = 0;
  std::size_t hops = 0;  // summed over successful routes
  std::vector<double> route_us;
  std::vector<double> query_us;
};

/// Probe trial `trial` at `density` (same deployment and trajectory as the
/// trial itself); `churn` replays the churn-dense environment per instant.
void probe_routes(double density, std::uint64_t root_seed, std::size_t trial,
                  bool churn, ProbeStats& out);

}  // namespace perfbench
