// Wall-clock stopwatch for coarse experiment timing (the precise kernels are
// measured with google-benchmark; this is for whole-run reporting).
#pragma once

#include <chrono>

namespace cdpf::support {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace cdpf::support
