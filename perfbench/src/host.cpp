#include "host.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <thread>

namespace perfbench {

HostInfo host_info() {
  HostInfo info;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      info.cpu_model = colon == std::string::npos ? line : line.substr(colon + 2);
      break;
    }
  }
  if (info.cpu_model.empty()) {
    info.cpu_model = "unknown";
  }
  info.logical_cores = std::thread::hardware_concurrency();
#if defined(__clang__)
  info.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  info.compiler = std::string("gcc ") + __VERSION__;
#else
  info.compiler = "unknown";
#endif
  info.build_type = PERFBENCH_BUILD_TYPE;
  info.cxx_flags = PERFBENCH_CXX_FLAGS;
  info.cdpf_tracing = PERFBENCH_CDPF_TRACING;
  return info;
}

double host_calibration_ms() {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 10'000'000; ++i) {  // xorshift64: a serial dependency chain
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    volatile std::uint64_t sink = x;
    (void)sink;
    best = std::min(best, std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  }
  return best;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
