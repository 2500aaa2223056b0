// Host and build context recorded in every benchmark report.
#pragma once

#include <string>

namespace perfbench {

struct HostInfo {
  std::string cpu_model;
  unsigned logical_cores = 0;
  std::string compiler;
  std::string build_type;
  std::string cxx_flags;
  bool cdpf_tracing = false;
};

HostInfo host_info();

/// Best of three timings (ms) of a fixed register-only integer loop. The
/// library never runs it, so it only tracks the host: a run whose value is
/// far from its neighbours' ran on a slower or busier host.
double host_calibration_ms();

/// Peak resident set size of this process, in MB (2^20 bytes).
double peak_rss_mb();

}  // namespace perfbench
