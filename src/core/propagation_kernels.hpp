// The two batch kernels of a propagation round (propagate_particles_into):
// the recorder gate over one grid cell's nodes and the division pass over
// one host's copies. propagation_kernels.cpp is compiled with
// CDPF_BATCH_KERNEL_FLAGS and each kernel is cloned per ISA
// (support/kernel_clones.hpp), so both loops vectorize and every lane rounds
// as the scalar code does: no contraction, and the same operations in the
// same order per element.
#pragma once

#include <cstddef>

#include "geom/vec2.hpp"
#include "tracking/detection.hpp"
#include "wsn/network.hpp"

namespace cdpf::core {

/// The geometric recorder gate over one cell's nodes: out[j] = node j's
/// linear-model probability (LinearProbabilityModel::probability_unchecked
/// of its believed distance from `predicted`) when node j is a radio
/// neighbour of the host's true position (d^2 <= r_c^2, rounded as the
/// grid's disk test rounds it) and its believed position passes the record
/// gate d^2 <= record_gate_sq, else +0.0. The record gate is deliberately
/// loose (the record radius inflated by a few ulp): it only ever rejects
/// nodes the exact linear-model test would reject with certainty, and a
/// node with a NaN believed position, which cannot lie in the area. Node j
/// records the broadcast when out[j] > 0, it is active and it is not the
/// host; the caller applies those two tests. `out` holds block.size
/// entries.
void record_probabilities(const wsn::Network::SlotBlock& block, geom::Vec2 host_true,
                          double comm_radius_sq, geom::Vec2 predicted, double record_gate_sq,
                          const tracking::LinearProbabilityModel& lin_prob, double* out);

/// The division pass over a host's n copies (paper §III-B): weights[i]
/// turns from copy i's record probability into its weight,
/// weight * p_i / probability_sum, and (velocity_x[i], velocity_y[i]) from
/// its sampled (speed, heading) into its velocity, the hop's direction at
/// the sampled speed: hop * (speed / |hop|). A copy whose squared hop is not
/// above 1e-12 m^2 (its recorder sits on the host) keeps its (speed,
/// heading); the return value says whether any did, and the caller turns
/// those into velocities.
bool divide_copies(std::size_t n, double weight, double probability_sum, double* weights,
                   const double* hop_x, const double* hop_y, double* velocity_x,
                   double* velocity_y);

}  // namespace cdpf::core
