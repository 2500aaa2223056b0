// Fixture for cdpf_lint's no-fmod rule: each call below must be flagged.
#include <cmath>

double wrap_std(double x, double period) { return std::fmod(x, period); }

double wrap_global(double x, double period) { return ::fmod(x, period); }

float wrap_float(float x, float period) { return fmodf(x, period); }
