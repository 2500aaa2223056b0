// The substep rule of the random-turn walk (RandomTurnMotionModel) and its
// batch kernel. walk_kernel.cpp is compiled with CDPF_BATCH_KERNEL_FLAGS and
// the kernel is cloned per ISA (support/kernel_clones.hpp), so its loop
// vectorizes across copies and every lane rounds as the scalar rule does.
#pragma once

#include <algorithm>
#include <cstddef>

namespace cdpf::tracking {

/// One substep of the walk, from its two draws: the heading turns by
/// rng.uniform(lo, hi) and, with a noisy speed, the speed scales by
/// 1 + rng.gaussian(0.0, sigma), floored at 0 — operation for operation
/// what those calls compute, on a pre-drawn uniform `u` and normal `g`.
/// Without speed noise the speed is left alone and no normal is drawn.
struct TurnWalk {
  double lo = 0.0;
  double hi = 0.0;
  double sigma = 0.0;
  bool noisy_speed = false;

  double turned(double heading, double u) const { return heading + (lo + (hi - lo) * u); }
  double scaled(double speed, double g) const {
    return std::max(0.0, speed * (1.0 + (0.0 + sigma * g)));
  }
};

/// Advance `copies` walks by `substeps` substeps each: copy c's state
/// (headings[c], speeds[c]) takes substep t's draws turns[c * substeps + t]
/// and normals[c * substeps + t] (the layout the draws come in), by
/// TurnWalk::turned and, with speed noise, TurnWalk::scaled. Without speed
/// noise `normals` is not read.
void advance_walks(const TurnWalk& walk, std::size_t copies, std::size_t substeps,
                   const double* turns, const double* normals, double* headings,
                   double* speeds);

}  // namespace cdpf::tracking
