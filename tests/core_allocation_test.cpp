// Steady-state allocation freedom (the hot-path contract): once a tracker's
// buffers are warm, an iteration must not touch the global heap at all. For
// Cdpf::iterate() — CDPF and CDPF-NE alike, as sim::run_trial and perfbench
// drive it — that covers sensing the detecting set and its bearings from
// ground truth, the propagation round and the weight-assignment step. The
// same holds for CentralizedPf::iterate(): detection, the convergecast, the
// SIR update and resampling; and for Sdpf::iterate(): propagation and
// re-hosting, the regroup by host, pruning, seeding, the transceiver round
// and local resampling. The test swaps in counting replacements for the
// global allocation functions and asserts the counter stays at zero across
// measured iterations.
//
// take_estimates() intentionally stays OUTSIDE the measured window: handing
// the pending estimates to the caller materializes a fresh vector by
// design (the internal buffer keeps its capacity).
//
// Construction is the other side of that contract: a tracker pre-sizes its
// buffers up front, and perfbench's setup_s times those allocations (page
// faults included), so ConstructionAllocation pins the blocks and bytes that
// constructing CDPF, CDPF-NE and CPF on a density-40 network requests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "core/cdpf.hpp"
#include "core/cpf.hpp"
#include "core/sdpf.hpp"
#include "sim/experiment.hpp"
#include "wsn/deployment.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_bytes{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc{};
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace cdpf {
namespace {

constexpr double kDt = 1.0;
constexpr int kWarmupSteps = 12;
constexpr int kMeasuredSteps = 8;

/// Allocations performed inside Cdpf::iterate() after a warm-up phase: the
/// path sim::run_trial drives, sensing included.
std::size_t cdpf_iterate_allocations(bool neighborhood_estimation) {
  rng::Rng rng(424242);
  const geom::Aabb field = geom::Aabb::square(200.0);
  const auto positions = wsn::deploy_uniform_random(
      wsn::node_count_for_density(20.0, field), field, rng);
  wsn::Network network(positions, wsn::NetworkConfig{field, 10.0, 30.0});
  wsn::Radio radio(network, wsn::PayloadSizes{});

  core::CdpfConfig config;
  config.dt = kDt;
  config.use_neighborhood_estimation = neighborhood_estimation;
  core::Cdpf filter(network, radio, config);
  auto truth = [](int step) {
    const double t = kDt * static_cast<double>(step);
    return tracking::TargetState{{60.0 + 3.0 * t, 100.0}, {3.0, 0.0}};
  };

  for (int step = 0; step < kWarmupSteps; ++step) {
    filter.iterate(truth(step), kDt * static_cast<double>(step), rng);
    (void)filter.take_estimates();
  }
  EXPECT_FALSE(filter.particles().empty()) << "warm-up lost the track";

  g_allocations.store(0);
  for (int step = kWarmupSteps; step < kWarmupSteps + kMeasuredSteps; ++step) {
    g_counting.store(true);
    filter.iterate(truth(step), kDt * static_cast<double>(step), rng);
    g_counting.store(false);
    (void)filter.take_estimates();
  }
  EXPECT_FALSE(filter.particles().empty()) << "measured phase lost the track";
  return g_allocations.load();
}

/// Allocations performed inside CentralizedPf::iterate() after a warm-up
/// phase (`levels` set: the quantized DPF variant).
std::size_t cpf_steady_state_allocations(std::optional<std::size_t> levels) {
  rng::Rng rng(424242);
  const geom::Aabb field = geom::Aabb::square(200.0);
  const auto positions = wsn::deploy_uniform_random(
      wsn::node_count_for_density(20.0, field), field, rng);
  wsn::Network network(positions, wsn::NetworkConfig{field, 10.0, 30.0});
  wsn::Radio radio(network, wsn::PayloadSizes{});

  core::CpfConfig config;
  config.dt = kDt;
  config.quantization_levels = levels;
  core::CentralizedPf filter(network, radio, config);
  auto truth = [](int step) {
    const double t = kDt * static_cast<double>(step);
    return tracking::TargetState{{60.0 + 3.0 * t, 100.0}, {3.0, 0.0}};
  };

  for (int step = 0; step < kWarmupSteps; ++step) {
    filter.iterate(truth(step), kDt * static_cast<double>(step), rng);
    (void)filter.take_estimates();
  }
  EXPECT_TRUE(filter.filter().initialized()) << "warm-up never initialized";

  g_allocations.store(0);
  for (int step = kWarmupSteps; step < kWarmupSteps + kMeasuredSteps; ++step) {
    g_counting.store(true);
    filter.iterate(truth(step), kDt * static_cast<double>(step), rng);
    g_counting.store(false);
    (void)filter.take_estimates();
  }
  return g_allocations.load();
}

/// Allocations performed inside Sdpf::iterate() after a warm-up phase.
std::size_t sdpf_steady_state_allocations() {
  rng::Rng rng(424242);
  const geom::Aabb field = geom::Aabb::square(200.0);
  const auto positions = wsn::deploy_uniform_random(
      wsn::node_count_for_density(20.0, field), field, rng);
  wsn::Network network(positions, wsn::NetworkConfig{field, 10.0, 30.0});
  wsn::Radio radio(network, wsn::PayloadSizes{});

  core::SdpfConfig config;
  config.dt = kDt;
  core::Sdpf filter(network, radio, config);
  auto truth = [](int step) {
    const double t = kDt * static_cast<double>(step);
    return tracking::TargetState{{60.0 + 3.0 * t, 100.0}, {3.0, 0.0}};
  };

  for (int step = 0; step < kWarmupSteps; ++step) {
    filter.iterate(truth(step), kDt * static_cast<double>(step), rng);
    (void)filter.take_estimates();
  }
  EXPECT_FALSE(filter.particles().empty()) << "warm-up lost the track";

  g_allocations.store(0);
  for (int step = kWarmupSteps; step < kWarmupSteps + kMeasuredSteps; ++step) {
    g_counting.store(true);
    filter.iterate(truth(step), kDt * static_cast<double>(step), rng);
    g_counting.store(false);
    (void)filter.take_estimates();
  }
  EXPECT_FALSE(filter.particles().empty()) << "measured phase lost the track";
  return g_allocations.load();
}

/// Heap blocks and bytes requested while constructing one tracker.
struct Footprint {
  std::size_t blocks = 0;
  std::size_t bytes = 0;
};

/// What constructing `kind`'s tracker on the paper's density-40 network
/// (16 000 nodes, seed 424242) requests from the heap.
Footprint construction_footprint(sim::AlgorithmKind kind) {
  rng::Rng rng(424242);
  const geom::Aabb field = geom::Aabb::square(200.0);
  const auto positions = wsn::deploy_uniform_random(
      wsn::node_count_for_density(40.0, field), field, rng);
  wsn::Network network(positions, wsn::NetworkConfig{field, 10.0, 30.0});
  wsn::Radio radio(network, wsn::PayloadSizes{});
  const sim::AlgorithmParams params;
  g_allocations.store(0);
  g_bytes.store(0);
  g_counting.store(true);
  auto tracker = sim::make_tracker(kind, network, radio, params);
  g_counting.store(false);
  return {g_allocations.load(), g_bytes.load()};
}

// The ceilings are the footprints of the parent of the change that added
// this test (04cf480), measured by this test's construction_footprint()
// built against that tree (RelWithDebInfo, GCC 12, libstdc++). A change may
// lower them; raising one needs a reason, since perfbench's setup_s moves
// with construction-time allocations. At 04cf480 CDPF reserved every
// per-round buffer for all 16 000 nodes; its propagation scratch is now
// sized by Network::max_nodes_within(r_c) (13 blocks, 2 086 772 bytes).
constexpr std::size_t kCdpfBlocks = 16;
constexpr std::size_t kCdpfBytes = 2499472;
constexpr std::size_t kCdpfNeBlocks = 22;
constexpr std::size_t kCdpfNeBytes = 3331472;
constexpr std::size_t kCpfBlocks = 3;
constexpr std::size_t kCpfBytes = 576584;

TEST(ConstructionAllocation, CdpfDoesNotGrow) {
  const Footprint f = construction_footprint(sim::AlgorithmKind::kCdpf);
  EXPECT_LE(f.blocks, kCdpfBlocks);
  EXPECT_LE(f.bytes, kCdpfBytes);
}

TEST(ConstructionAllocation, CdpfNeDoesNotGrow) {
  const Footprint f = construction_footprint(sim::AlgorithmKind::kCdpfNe);
  EXPECT_LE(f.blocks, kCdpfNeBlocks);
  EXPECT_LE(f.bytes, kCdpfNeBytes);
}

TEST(ConstructionAllocation, CpfDoesNotGrow) {
  const Footprint f = construction_footprint(sim::AlgorithmKind::kCpf);
  EXPECT_LE(f.blocks, kCpfBlocks);
  EXPECT_LE(f.bytes, kCpfBytes);
}

TEST(SteadyStateAllocation, CpfIterationIsAllocationFree) {
  EXPECT_EQ(cpf_steady_state_allocations(std::nullopt), 0u);
}

TEST(SteadyStateAllocation, DpfIterationIsAllocationFree) {
  EXPECT_EQ(cpf_steady_state_allocations(256), 0u);
}

TEST(SteadyStateAllocation, SdpfIterationIsAllocationFree) {
  EXPECT_EQ(sdpf_steady_state_allocations(), 0u);
}

TEST(SteadyStateAllocation, CdpfIterateFromTruthIsAllocationFree) {
  EXPECT_EQ(cdpf_iterate_allocations(false), 0u);
}

TEST(SteadyStateAllocation, CdpfNeIterateFromTruthIsAllocationFree) {
  EXPECT_EQ(cdpf_iterate_allocations(true), 0u);
}

}  // namespace
}  // namespace cdpf
