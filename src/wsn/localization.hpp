// Anchor-based node localization.
//
// The paper's network model assumes node positions are "known a priori via
// GPS or using algorithmic strategies" (citing Stoleru et al.'s robust
// localization). This module implements the algorithmic strategy: a small
// fraction of anchor nodes know their position exactly (GPS); every other
// node measures noisy ranges to localized neighbors and solves a linearized
// multilateration least-squares problem. Localization proceeds in rounds so
// freshly localized nodes serve as references for nodes beyond anchor
// coverage (iterative / cooperative localization).
//
// The result is a set of *believed* positions to install on the Network via
// set_believed_positions(); the localization-error ablation then measures
// how position error propagates into tracking error.
#pragma once

#include <cstddef>
#include <vector>

#include "geom/vec2.hpp"
#include "random/rng.hpp"
#include "wsn/network.hpp"

namespace cdpf::wsn {

struct LocalizationConfig {
  /// Fraction of nodes with exact (GPS) positions.
  double anchor_fraction = 0.1;
  /// Std-dev of the inter-node range measurements (m).
  double range_sigma_m = 0.5;
  /// Maximum ranging distance; defaults to the communication radius when 0.
  double max_range_m = 0.0;
  /// Refinement rounds (round 1 localizes nodes with >= 3 anchor
  /// references; later rounds use previously localized nodes too).
  std::size_t rounds = 3;
  /// Minimum number of localized references required to solve.
  std::size_t min_references = 3;
};

struct LocalizationResult {
  std::vector<geom::Vec2> positions;  // believed position per node
  std::vector<bool> is_anchor;
  std::vector<bool> localized;        // solved (anchors count as localized)
  std::size_t unlocalized = 0;        // nodes that fell back to a guess

  /// Mean believed-vs-true position error over non-anchor nodes.
  double mean_error(const Network& network) const;
};

/// Run the localization protocol over `network` (using its TRUE positions
/// as physical ground truth for the simulated ranging).
LocalizationResult localize(const Network& network, const LocalizationConfig& config,
                            rng::Rng& rng);

}  // namespace cdpf::wsn
