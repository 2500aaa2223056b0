// Golden outputs: a bit-level pin of every tracker's per-iteration output.
//
// Each cell runs one complete trial (sim::run_trial: deployment, trajectory,
// tracking) and folds the raw bits of every estimate (x, y, vx, vy, time)
// plus the per-kind CommStats messages, receptions and bytes into one
// FNV-1a digest. The expected digests were recorded on the library before
// any of the baselines' hot paths were optimized, so a refactor that claims
// "same numbers, less time" is checked here rather than argued. The CPF,
// DPF and SDPF cells were re-pinned once, on purpose, when those
// trackers moved to CDPF's variance-form bearing kernel (rounding-level
// drift; CommStats unchanged). The CPF and SDPF believed-position cells
// were re-pinned once more when CPF/DPF and SDPF started measuring
// bearings from each sensor's true position, as CDPF, the multi-target
// tracker and the detection model do; they had measured from the believed
// one. No other cell runs on believed positions, so no other cell moved.
// The ten SDPF cells were re-pinned once more when SDPF's total weight and
// estimate stopped summing its particles in hash-map order and moved to
// ascending host order (rounding-level drift; CommStats unchanged): the old
// digests depended on the standard library's hash-table layout.
// Every cell whose tracker scores bearings (all but the ten CDPF-NE cells)
// was re-pinned once more when core::BearingEvidence replaced its per-pair
// std::atan2 and std::log with a rational arctangent of the residual in the
// bearing's own frame and one log of the product of the precisions
// (inverse variances) per evaluation point: the same model, rounded
// differently, with CommStats unchanged. For CPF, DPF, SDPF and CDPF the
// per-trial RMSE and mean error moved by at most 1e-13 relative (fig6 and
// dpf_family; DPF estimates by at most 3.3e-13 m).
// CDPF-NE weighs particles by neighbourhood estimation, not by bearings, so
// its cells did not move.
// The eight believed-position cells were re-pinned once more when the radio
// started centring broadcasts and its link predicate on true positions, as
// network.hpp documents for radio propagation; broadcasts had been centred
// on the sender's believed position. Under believed positions that changes
// CPF's greedy routes, SDPF's and CDPF's receiver lists and so CDPF-NE's
// propagation; with believed == true positions the rule is the old one, so
// no other cell moved.
//
// The grid covers all five trackers at two seeds and three densities, CPF and
// SDPF under a randomized 50% duty cycle with TDSS wake-ups (sink kept
// awake, as perfbench's churn-dense workload does), and CPF and SDPF running
// on believed positions from wsn::localize. CDPF and CDPF-NE run under both
// environments too. Believed positions drive CDPF's record-disk scan, grown
// by the network's largest believed-vs-true displacement, with its record
// gate on believed coordinates, and CDPF-NE's believed-position neighbour
// gather. The duty cycle exercises the grid query's filter of sleeping
// nodes (Network::visit_active_within).
//
// A change that moves numbers ON PURPOSE must update the table in the same
// change and say why; a failing cell prints the digest it produced in the
// table's own syntax.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>

#include "random/engine.hpp"
#include "sim/experiment.hpp"
#include "wsn/deployment.hpp"
#include "wsn/duty_cycle.hpp"
#include "wsn/localization.hpp"

namespace cdpf::sim {
namespace {

enum class Environment : std::uint8_t {
  kStatic,             // every node alive and awake, true positions
  kDutyCycle,          // randomized 50% duty cycle + TDSS, sink kept awake
  kBelievedPositions,  // positions from anchor-based localization
};

struct GoldenCell {
  const char* name;
  AlgorithmKind kind;
  double density;
  std::uint64_t seed;
  Environment environment;
  std::uint64_t digest;
};

void PrintTo(const GoldenCell& cell, std::ostream* os) { *os << cell.name; }

class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// The churn hook perfbench's churn-dense workload applies: a 10 s period,
/// 50% awake, randomized phases; TDSS wakes a 25 m disk around the true
/// target position every step; the sink stays awake as the base station.
HookFactory duty_cycle_hook(const Scenario& scenario, std::uint64_t seed) {
  // Replay the trial stream up to the trajectory run_trial generates.
  rng::Rng replay(rng::derive_stream_seed(seed, 0));
  (void)wsn::deploy_uniform_random(scenario.node_count(), scenario.network.field, replay);
  auto truth = std::make_shared<tracking::Trajectory>(
      tracking::generate_random_turn_trajectory(scenario.trajectory, replay));
  const std::uint64_t phase_seed = rng::derive_stream_seed(seed ^ 0xd0c1ull, 0) | 1u;
  return [truth, phase_seed](wsn::Network& net, rng::Rng&) -> StepHook {
    auto schedule = std::make_shared<wsn::DutyCycleSchedule>(10.0, 0.5, phase_seed);
    auto tdss = std::make_shared<wsn::TdssScheduler>(net, 25.0);
    return [&net, schedule, tdss, truth](double t) {
      schedule->apply(net, t);
      tdss->wake_predicted_area(truth->at_time(t).position);
      net.set_power(net.sink(), wsn::PowerState::kAwake);
    };
  };
}

HookFactory localization_hook() {
  return [](wsn::Network& net, rng::Rng& rng) -> StepHook {
    wsn::LocalizationConfig config;
    config.anchor_fraction = 0.1;
    config.range_sigma_m = 1.0;
    net.set_believed_positions(wsn::localize(net, config, rng).positions);
    return {};
  };
}

struct Digest {
  std::uint64_t value = 0;
  std::size_t estimates = 0;
};

Digest run_cell(const GoldenCell& cell) {
  Scenario scenario;
  scenario.density_per_100m2 = cell.density;
  HookFactory hook;
  switch (cell.environment) {
    case Environment::kStatic: break;
    case Environment::kDutyCycle: hook = duty_cycle_hook(scenario, cell.seed); break;
    case Environment::kBelievedPositions: hook = localization_hook(); break;
  }
  const TrialResult result =
      run_trial(scenario, cell.kind, AlgorithmParams{}, cell.seed, 0, hook);
  Fnv1a fnv;
  for (const ScoredEstimate& s : result.outcome.scored) {
    fnv.add(s.estimate.state.position.x);
    fnv.add(s.estimate.state.position.y);
    fnv.add(s.estimate.state.velocity.x);
    fnv.add(s.estimate.state.velocity.y);
    fnv.add(s.estimate.time);
  }
  const wsn::CommStats& comm = result.outcome.comm;
  for (std::size_t k = 0; k < wsn::kNumMessageKinds; ++k) {
    const auto kind = static_cast<wsn::MessageKind>(k);
    fnv.add(static_cast<std::uint64_t>(comm.messages(kind)));
    fnv.add(static_cast<std::uint64_t>(comm.receptions(kind)));
    fnv.add(static_cast<std::uint64_t>(comm.bytes(kind)));
  }
  return {fnv.value(), result.outcome.scored.size()};
}

constexpr std::uint64_t kSeedA = 1;
constexpr std::uint64_t kSeedB = 20110516;

using enum AlgorithmKind;
using enum Environment;

// clang-format off
constexpr GoldenCell kCells[] = {
    {"CPF_d10_a", kCpf, 10.0, kSeedA, kStatic, 0xb11ff982b1887aaaull},
    {"CPF_d10_b", kCpf, 10.0, kSeedB, kStatic, 0x699945b1ff0ec40bull},
    {"CPF_d20_a", kCpf, 20.0, kSeedA, kStatic, 0x731820235270e027ull},
    {"CPF_d20_b", kCpf, 20.0, kSeedB, kStatic, 0xff4977bb413e0d94ull},
    {"CPF_d40_a", kCpf, 40.0, kSeedA, kStatic, 0xbe95a34166a40594ull},
    {"CPF_d40_b", kCpf, 40.0, kSeedB, kStatic, 0x53cca97d17bfd2caull},
    {"DPF_d10_a", kDpf, 10.0, kSeedA, kStatic, 0x44bb0f5926f8d1f0ull},
    {"DPF_d10_b", kDpf, 10.0, kSeedB, kStatic, 0x5a757333a4650fc4ull},
    {"DPF_d20_a", kDpf, 20.0, kSeedA, kStatic, 0xe9efc68f631a6df6ull},
    {"DPF_d20_b", kDpf, 20.0, kSeedB, kStatic, 0x2724566dd9cfab5aull},
    {"DPF_d40_a", kDpf, 40.0, kSeedA, kStatic, 0x426a622caa3cb167ull},
    {"DPF_d40_b", kDpf, 40.0, kSeedB, kStatic, 0x66f3544d3bacd7b8ull},
    {"SDPF_d10_a", kSdpf, 10.0, kSeedA, kStatic, 0x02401ed79abe3535ull},
    {"SDPF_d10_b", kSdpf, 10.0, kSeedB, kStatic, 0xc6135358c464a607ull},
    {"SDPF_d20_a", kSdpf, 20.0, kSeedA, kStatic, 0x60516917801e6118ull},
    {"SDPF_d20_b", kSdpf, 20.0, kSeedB, kStatic, 0x93410301157ae2a8ull},
    {"SDPF_d40_a", kSdpf, 40.0, kSeedA, kStatic, 0x70ed234cd6b4b5b5ull},
    {"SDPF_d40_b", kSdpf, 40.0, kSeedB, kStatic, 0x7b0345f92ccd3678ull},
    {"CDPF_d10_a", kCdpf, 10.0, kSeedA, kStatic, 0x4a468b8dff2fb766ull},
    {"CDPF_d10_b", kCdpf, 10.0, kSeedB, kStatic, 0x3976559204a6b33bull},
    {"CDPF_d20_a", kCdpf, 20.0, kSeedA, kStatic, 0x8deaf3e07cbd24dcull},
    {"CDPF_d20_b", kCdpf, 20.0, kSeedB, kStatic, 0x2b68ab794abe396bull},
    {"CDPF_d40_a", kCdpf, 40.0, kSeedA, kStatic, 0x73dbac163101e0d3ull},
    {"CDPF_d40_b", kCdpf, 40.0, kSeedB, kStatic, 0x79695efe8e2910c6ull},
    {"CDPFNE_d10_a", kCdpfNe, 10.0, kSeedA, kStatic, 0x27e0e920c23c8688ull},
    {"CDPFNE_d10_b", kCdpfNe, 10.0, kSeedB, kStatic, 0xf622cf9296f81b48ull},
    {"CDPFNE_d20_a", kCdpfNe, 20.0, kSeedA, kStatic, 0x8afc7c3c8b32be0dull},
    {"CDPFNE_d20_b", kCdpfNe, 20.0, kSeedB, kStatic, 0x8e0aabbdccb9da4bull},
    {"CDPFNE_d40_a", kCdpfNe, 40.0, kSeedA, kStatic, 0x821f44aac00dabd5ull},
    {"CDPFNE_d40_b", kCdpfNe, 40.0, kSeedB, kStatic, 0x8cde8dcb05679490ull},
    {"CPF_duty_d20_a", kCpf, 20.0, kSeedA, kDutyCycle, 0xfe0e2f79baaf119full},
    {"CPF_duty_d20_b", kCpf, 20.0, kSeedB, kDutyCycle, 0x7f71f7ce7ed778ebull},
    {"SDPF_duty_d20_a", kSdpf, 20.0, kSeedA, kDutyCycle, 0x8e555de0529ee415ull},
    {"SDPF_duty_d20_b", kSdpf, 20.0, kSeedB, kDutyCycle, 0x9c8f81dfa04b9656ull},
    {"CPF_localized_d20_a", kCpf, 20.0, kSeedA, kBelievedPositions, 0x464f907b155b00fcull},
    {"CPF_localized_d20_b", kCpf, 20.0, kSeedB, kBelievedPositions, 0xffe00fcc961b9850ull},
    {"CDPF_duty_d20_a", kCdpf, 20.0, kSeedA, kDutyCycle, 0xc2ce4ee41070886aull},
    {"CDPF_duty_d20_b", kCdpf, 20.0, kSeedB, kDutyCycle, 0xba55889aa450da05ull},
    {"CDPF_localized_d20_a", kCdpf, 20.0, kSeedA, kBelievedPositions, 0xc90faa252f7e20bcull},
    {"CDPF_localized_d20_b", kCdpf, 20.0, kSeedB, kBelievedPositions, 0x949b78fd5055189cull},
    {"CDPFNE_duty_d20_a", kCdpfNe, 20.0, kSeedA, kDutyCycle, 0xd820d70115fafeb5ull},
    {"CDPFNE_duty_d20_b", kCdpfNe, 20.0, kSeedB, kDutyCycle, 0x92771e27b6a4742bull},
    {"CDPFNE_localized_d20_a", kCdpfNe, 20.0, kSeedA, kBelievedPositions, 0x1db9bff9c85d7b6cull},
    {"CDPFNE_localized_d20_b", kCdpfNe, 20.0, kSeedB, kBelievedPositions, 0xd3a3eb267ef73b24ull},
    {"SDPF_localized_d20_a", kSdpf, 20.0, kSeedA, kBelievedPositions, 0x856d94eb5279b54eull},
    {"SDPF_localized_d20_b", kSdpf, 20.0, kSeedB, kBelievedPositions, 0xedd3ae502212ee86ull},
};
// clang-format on

class GoldenOutputs : public ::testing::TestWithParam<GoldenCell> {};

TEST_P(GoldenOutputs, DigestMatchesRecordedBits) {
  const GoldenCell& cell = GetParam();
  const Digest digest = run_cell(cell);
  EXPECT_GT(digest.estimates, 0u) << cell.name << " produced no estimate";
  char actual[32];
  std::snprintf(actual, sizeof actual, "0x%016llxull",
                static_cast<unsigned long long>(digest.value));
  EXPECT_EQ(digest.value, cell.digest)
      << cell.name << ": digest " << actual << " over " << digest.estimates
      << " estimates differs from the recorded bits";
}

INSTANTIATE_TEST_SUITE_P(Cells, GoldenOutputs, ::testing::ValuesIn(kCells),
                         [](const ::testing::TestParamInfo<GoldenCell>& param_info) {
                           return std::string(param_info.param.name);
                         });

}  // namespace
}  // namespace cdpf::sim
