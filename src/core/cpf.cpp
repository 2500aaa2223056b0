#include "core/cpf.hpp"

#include <algorithm>
#include <cmath>

#include "geom/angles.hpp"
#include "support/check.hpp"

namespace cdpf::core {

namespace {

constexpr std::size_t kNumParticles = 1000;  // paper: N_s = 1000 for CPF

/// Assumed innovation spread (rad) the adaptive-encoding Huffman code is
/// built for.
constexpr double kInnovationSigmaRad = 0.2;

/// Std-dev of the effective measurement noise when uniform quantization of
/// bin width `delta` is stacked on Gaussian noise `sigma` (variances add;
/// the quantization error is ~uniform with variance delta^2 / 12).
double effective_sigma(double sigma, std::optional<std::size_t> levels) {
  if (!levels) {
    return sigma;
  }
  const double delta = geom::kTwoPi / static_cast<double>(*levels);
  return std::sqrt(sigma * sigma + delta * delta / 12.0);
}

}  // namespace

CentralizedPf::CentralizedPf(wsn::Network& network, wsn::Radio& radio, CpfConfig config)
    : network_(network),
      radio_(radio),
      config_(config),
      bearing_(config.sigma_bearing),
      router_(network),
      filter_(tracking::make_motion_model(config.dt),
              filters::SirFilterConfig{kNumParticles, config.resampling}),
      received_(effective_sigma(config.sigma_bearing, config.quantization_levels),
                kCloudResolutionM) {
  if (config_.quantization_levels) {
    CDPF_CHECK_MSG(*config_.quantization_levels >= 2,
                   "quantization needs at least two levels");
  }
  // Size the per-iteration buffers for the worst case (every node detects)
  // so steady-state iterations never allocate. Reserving does not touch the
  // pages, so it costs no resident memory.
  const std::size_t nodes = network_.size();
  detecting_.reserve(nodes);
  received_.reserve(nodes);
  if (config_.adaptive_encoding) {
    CDPF_CHECK_MSG(config_.quantization_levels.has_value(),
                   "adaptive encoding requires quantization");
    // Huffman code over the signed quantized-innovation alphabet, built for
    // a Laplacian-like innovation distribution centered at zero.
    const std::size_t levels = *config_.quantization_levels;
    const double delta = geom::kTwoPi / static_cast<double>(levels);
    std::vector<double> frequencies(levels);
    for (std::size_t s = 0; s < levels; ++s) {
      // Symbol s encodes the signed bin k in [-levels/2, levels/2).
      const auto k = static_cast<double>(s) - static_cast<double>(levels) / 2.0;
      frequencies[s] = std::exp(-std::abs(k * delta) / kInnovationSigmaRad);
    }
    innovation_code_ = filters::HuffmanCode::from_frequencies(frequencies);
  }
}

double CentralizedPf::mean_bits_per_measurement() const {
  return encoded_measurements_ > 0
             ? static_cast<double>(encoded_bits_) /
                   static_cast<double>(encoded_measurements_)
             : 0.0;
}

std::string_view CentralizedPf::name() const {
  return config_.quantization_levels ? "DPF" : "CPF";
}

double CentralizedPf::quantize(double bearing_rad) const {
  CDPF_CHECK_MSG(std::isfinite(bearing_rad), "bearing must be finite");
  if (!config_.quantization_levels) {
    return bearing_rad;
  }
  const double levels = static_cast<double>(*config_.quantization_levels);
  const double delta = geom::kTwoPi / levels;
  const double wrapped = geom::wrap_angle(bearing_rad);
  // wrap_angle returns (-pi, pi]; clamp the edge case z == +pi into the
  // last bin instead of producing an out-of-range bin index.
  const double bin =
      std::min(std::floor((wrapped + geom::kPi) / delta), levels - 1.0);
  return geom::wrap_angle(-geom::kPi + (bin + 0.5) * delta);
}

void CentralizedPf::iterate(const tracking::TargetState& truth, double time,
                            rng::Rng& rng) {
  CDPF_CHECK_MSG(std::isfinite(time), "iteration time must be finite");
  network_.detecting_nodes(truth.position, detecting_);

  // Convergecast: one measurement per detecting node, hop by hop to the
  // sink. Payload is D_m, or the compressed size P for the DPF variant.
  received_.clear();
  // Fixed-width payload: ceil(log2(levels)) bits rounded up to bytes for
  // quantized bearings (1 byte at the paper's 256 levels — its P), the raw
  // D_m otherwise.
  std::size_t fixed_payload = radio_.payloads().measurement;
  if (config_.quantization_levels) {
    std::size_t bits = 0;
    while ((1ULL << bits) < *config_.quantization_levels) {
      ++bits;
    }
    fixed_payload = std::max<std::size_t>(1, (bits + 7) / 8);
  }
  // Adaptive mode: the sink feeds its predicted estimate back to the field
  // (one broadcast per iteration — the "backward parameter exchange" the
  // paper charges this DPF family with), and sensors encode the quantized
  // innovation against it.
  std::optional<geom::Vec2> fed_back_prediction;
  if (innovation_code_ && filter_.initialized()) {
    fed_back_prediction = filter_.motion_model()
                              .propagate(filter_.estimate())
                              .position;
    radio_.transceiver_broadcast(wsn::MessageKind::kControl,
                                 radio_.payloads().estimate);
  }
  const std::size_t levels = config_.quantization_levels.value_or(0);
  for (const wsn::NodeId id : detecting_) {
    const double z = bearing_.measure(network_.true_position(id), truth.position, rng);
    std::size_t payload = fixed_payload;
    double z_for_filter = quantize(z);
    if (fed_back_prediction) {
      // Quantize the innovation and pay only its Huffman codeword.
      const double predicted_bearing =
          bearing_.ideal(network_.position(id), *fed_back_prediction);
      const double innovation = geom::wrap_angle(z - predicted_bearing);
      const double delta = geom::kTwoPi / static_cast<double>(levels);
      const auto raw = static_cast<long long>(
          std::floor(innovation / delta + static_cast<double>(levels) / 2.0));
      const std::size_t symbol = static_cast<std::size_t>(std::clamp<long long>(
          raw, 0, static_cast<long long>(levels) - 1));
      const std::size_t bits = innovation_code_->code_length(symbol);
      encoded_bits_ += bits;
      ++encoded_measurements_;
      payload = std::max<std::size_t>(1, (bits + 7) / 8);
      // The sink reconstructs the measurement from the symbol center.
      const double decoded = geom::wrap_angle(
          predicted_bearing +
          (static_cast<double>(symbol) - static_cast<double>(levels) / 2.0 + 0.5) *
              delta);
      z_for_filter = decoded;
    }
    const auto hops = router_.send(radio_, id, network_.sink(),
                                   wsn::MessageKind::kMeasurement, payload);
    if (!hops) {
      continue;  // greedy void: this measurement never reaches the sink
    }
    received_.add(network_.position(id), z_for_filter);
  }

  if (!filter_.initialized()) {
    if (received_.empty()) {
      return;  // nothing to initialize from yet
    }
    filter_.initialize({received_.centroid(), kInitialVelocityMean},
                       {kInitialPositionSigma, kInitialPositionSigma},
                       {kInitialVelocitySigma, kInitialVelocitySigma}, rng);
    pending_estimates_.push_back({filter_.estimate(), time});
    return;
  }

  filter_.predict(rng);
  if (!received_.empty()) {
    particle_positions_.assign_positions(filter_.particles());
    received_.log_likelihoods(particle_positions_.x, particle_positions_.y,
                              particle_positions_.scores);
    filter_.update(particle_positions_.scores);
    filter_.resample(rng);
  }
  pending_estimates_.push_back({filter_.estimate(), time});
}

}  // namespace cdpf::core
