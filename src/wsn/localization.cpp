#include "wsn/localization.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/matrix.hpp"
#include "support/check.hpp"

namespace cdpf::wsn {

namespace {

struct Reference {
  geom::Vec2 position;  // believed position of the reference node
  double range;         // measured (noisy) range to it
};

/// Linearized multilateration: subtract the first reference's circle
/// equation from the others to obtain a linear system in (x, y), solved via
/// 2x2 normal equations. Returns false when the geometry is degenerate
/// (references collinear / coincident).
bool multilaterate(const std::vector<Reference>& refs, geom::Vec2& out) {
  if (refs.size() < 3) {
    return false;
  }
  const Reference& base = refs.front();
  linalg::Mat2 ata;
  geom::Vec2 atb;
  for (std::size_t i = 1; i < refs.size(); ++i) {
    const double ax = 2.0 * (refs[i].position.x - base.position.x);
    const double ay = 2.0 * (refs[i].position.y - base.position.y);
    const double b = base.range * base.range - refs[i].range * refs[i].range +
                     refs[i].position.norm_squared() - base.position.norm_squared();
    ata(0, 0) += ax * ax;
    ata(0, 1) += ax * ay;
    ata(1, 0) += ax * ay;
    ata(1, 1) += ay * ay;
    atb.x += ax * b;
    atb.y += ay * b;
  }
  if (std::abs(linalg::determinant(ata)) < 1e-6) {
    return false;  // collinear references: rank-deficient normal equations
  }
  out = linalg::inverse(ata) * atb;
  return true;
}

}  // namespace

double LocalizationResult::mean_error(const Network& network) const {
  double sum = 0.0;
  std::size_t count = 0;
  for (NodeId id = 0; id < network.size(); ++id) {
    if (is_anchor[id]) {
      continue;
    }
    sum += geom::distance(positions[id], network.true_position(id));
    ++count;
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

LocalizationResult localize(const Network& network, const LocalizationConfig& config,
                            rng::Rng& rng) {
  CDPF_CHECK_MSG(config.anchor_fraction > 0.0 && config.anchor_fraction <= 1.0,
                 "anchor fraction must be within (0, 1]");
  CDPF_CHECK_MSG(config.range_sigma_m >= 0.0, "range sigma must be non-negative");
  CDPF_CHECK_MSG(config.min_references >= 3, "multilateration needs >= 3 references");
  const double max_range =
      config.max_range_m > 0.0 ? config.max_range_m : network.config().comm_radius;

  const std::size_t n = network.size();
  LocalizationResult result;
  result.positions.resize(n);
  result.is_anchor.assign(n, false);
  result.localized.assign(n, false);

  // Anchors: exact positions.
  for (NodeId id = 0; id < n; ++id) {
    if (rng.bernoulli(config.anchor_fraction)) {
      result.is_anchor[id] = true;
      result.localized[id] = true;
      result.positions[id] = network.true_position(id);
    }
  }

  // Iterative multilateration rounds.
  std::vector<NodeId> neighbors;
  for (std::size_t round = 0; round < config.rounds; ++round) {
    std::vector<NodeId> newly_localized;
    for (NodeId id = 0; id < n; ++id) {
      if (result.localized[id]) {
        continue;
      }
      network.nodes_within(network.true_position(id), max_range, neighbors);
      std::vector<Reference> refs;
      for (const NodeId r : neighbors) {
        if (r == id || !result.localized[r]) {
          continue;
        }
        const double true_range =
            geom::distance(network.true_position(id), network.true_position(r));
        refs.push_back({result.positions[r],
                        std::max(0.0, true_range +
                                          rng.gaussian(0.0, config.range_sigma_m))});
      }
      if (refs.size() < config.min_references) {
        continue;
      }
      geom::Vec2 estimate;
      if (multilaterate(refs, estimate)) {
        result.positions[id] = network.config().field.clamp(estimate);
        newly_localized.push_back(id);
      }
    }
    for (const NodeId id : newly_localized) {
      result.localized[id] = true;
    }
    if (newly_localized.empty()) {
      break;  // converged
    }
  }

  // Fallback for nodes that never collected enough references: the centroid
  // of the localized neighbors, or the field center as a last resort.
  for (NodeId id = 0; id < n; ++id) {
    if (result.localized[id]) {
      continue;
    }
    ++result.unlocalized;
    network.nodes_within(network.true_position(id), max_range, neighbors);
    geom::Vec2 centroid{};
    std::size_t count = 0;
    for (const NodeId r : neighbors) {
      if (r != id && result.localized[r]) {
        centroid += result.positions[r];
        ++count;
      }
    }
    result.positions[id] = count > 0
                               ? centroid / static_cast<double>(count)
                               : network.config().field.center();
  }
  return result;
}

}  // namespace cdpf::wsn
