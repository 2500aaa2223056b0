// Fixture for cdpf_lint's no-fmod rule: nothing here may be flagged. A
// comment may name std::fmod(x, period), identifiers may contain "fmod",
// and a waived line passes.
#include <cmath>
#include <cstdint>

double my_fmod_free(double x) { return x; }

double wrap(double x, double period) {
  const auto n = static_cast<std::int64_t>(x / period);
  return x - static_cast<double>(n) * period;
}

double reference(double x, double period) {
  return std::fmod(x, period);  // cdpf-lint: allow(no-fmod)
}
