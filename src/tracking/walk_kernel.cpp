#include "tracking/walk_kernel.hpp"

#include "support/check.hpp"
#include "support/kernel_clones.hpp"

namespace cdpf::tracking {

// Substep-major: each substep advances every copy, so the inner loop runs
// across copies, which are independent, and reads each copy's draw at
// stride `substeps`. The loop with speed noise is the one CDPF's division
// runs and the vectorization gate checks; the walk without it (a test
// configuration) stays a plain loop.
CDPF_KERNEL_CLONES
void advance_walks(const TurnWalk& walk, std::size_t copies, std::size_t substeps,
                   const double* __restrict turns, const double* __restrict normals,
                   double* __restrict headings, double* __restrict speeds) {
  CDPF_ASSERT(walk.lo <= walk.hi && walk.sigma >= 0.0);
  const TurnWalk w = walk;
  if (!w.noisy_speed) {
    for (std::size_t t = 0; t < substeps; ++t) {
      for (std::size_t c = 0; c < copies; ++c) {
        headings[c] = w.turned(headings[c], turns[c * substeps + t]);
      }
    }
    return;
  }
  for (std::size_t t = 0; t < substeps; ++t) {
    for (std::size_t c = 0; c < copies; ++c) {  // cdpf-check: vectorized
      headings[c] = w.turned(headings[c], turns[c * substeps + t]);
      speeds[c] = w.scaled(speeds[c], normals[c * substeps + t]);
    }
  }
}

}  // namespace cdpf::tracking
