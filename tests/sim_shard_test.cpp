// Tests of the sharded Monte-Carlo execution plane: ShardSpec parsing, the
// cdpf-shard/1 snapshot round trip (bitwise), merge validation, the
// ExperimentRunner shard/merge/plain equivalence, and the CLI surface that
// fronts it (sim::parse_cli_options, make_tracker-by-name).
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/cli_options.hpp"
#include "sim/experiment.hpp"
#include "sim/runspec.hpp"
#include "sim/snapshot.hpp"
#include "support/check.hpp"

namespace {

using namespace cdpf;

// ---------------------------------------------------------------- ShardSpec

TEST(ShardSpec, ParsesValidSelectors) {
  const sim::ShardSpec a = sim::parse_shard("0/3");
  EXPECT_EQ(a.index, 0u);
  EXPECT_EQ(a.count, 3u);
  EXPECT_TRUE(a.is_sharded());
  EXPECT_EQ(a.to_string(), "0/3");

  const sim::ShardSpec b = sim::parse_shard("7/8");
  EXPECT_EQ(b.index, 7u);
  EXPECT_EQ(b.count, 8u);

  const sim::ShardSpec c = sim::parse_shard("0/1");
  EXPECT_FALSE(c.is_sharded());
}

TEST(ShardSpec, RejectsMalformedSelectors) {
  EXPECT_THROW(sim::parse_shard(""), cdpf::Error);
  EXPECT_THROW(sim::parse_shard("3"), cdpf::Error);
  EXPECT_THROW(sim::parse_shard("a/b"), cdpf::Error);
  EXPECT_THROW(sim::parse_shard("1/"), cdpf::Error);
  EXPECT_THROW(sim::parse_shard("/3"), cdpf::Error);
  EXPECT_THROW(sim::parse_shard("3/3"), cdpf::Error);  // index out of range
  EXPECT_THROW(sim::parse_shard("0/0"), cdpf::Error);  // zero shards
}

TEST(ShardSpec, SlotOwnershipIsRoundRobin) {
  const sim::ShardSpec shard{1, 3};
  EXPECT_FALSE(shard.owns_slot(0));
  EXPECT_TRUE(shard.owns_slot(1));
  EXPECT_FALSE(shard.owns_slot(2));
  EXPECT_FALSE(shard.owns_slot(3));
  EXPECT_TRUE(shard.owns_slot(4));
}

// ----------------------------------------------------------------- snapshot

sim::ShardSnapshot tiny_snapshot() {
  sim::ShardSnapshot snap;
  snap.experiment = "unit";
  snap.config = "experiment=unit;slots=2;trials=1;seed=9";
  snap.shard = {0, 1};
  snap.slot_count = 2;
  snap.slots = {{0, sim::SlotRecord{{1.5, -2.25}}},
                {1, sim::SlotRecord{{0.0}}}};
  return snap;
}

TEST(ShardSnapshot, JsonRoundTripIsBitwiseExact) {
  sim::ShardSnapshot snap = tiny_snapshot();
  // Values chosen to break any decimal-text round trip: non-representable
  // fractions, signed zero, huge, denormal, and infinities.
  snap.slots[0].second.values = {
      0.1,
      -0.0,
      1e300,
      std::numeric_limits<double>::denorm_min(),
      3.14159265358979323846,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
  };

  const sim::ShardSnapshot back = sim::ShardSnapshot::parse(snap.to_json());
  EXPECT_EQ(back.experiment, snap.experiment);
  EXPECT_EQ(back.config, snap.config);
  EXPECT_EQ(back.shard.index, snap.shard.index);
  EXPECT_EQ(back.shard.count, snap.shard.count);
  EXPECT_EQ(back.slot_count, snap.slot_count);
  ASSERT_EQ(back.slots.size(), snap.slots.size());
  for (std::size_t i = 0; i < snap.slots.size(); ++i) {
    EXPECT_EQ(back.slots[i].first, snap.slots[i].first);
    const auto& a = snap.slots[i].second.values;
    const auto& b = back.slots[i].second.values;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      // Compare bit patterns, not values: -0.0 == 0.0 would mask a loss.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[j]),
                std::bit_cast<std::uint64_t>(b[j]))
          << "value " << j;
    }
  }
}

TEST(ShardSnapshot, FileRoundTrip) {
  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "snap.json").string();
  const sim::ShardSnapshot snap = tiny_snapshot();
  snap.write(path);
  const sim::ShardSnapshot back = sim::ShardSnapshot::load(path);
  EXPECT_EQ(back.slots[0].second, snap.slots[0].second);
  EXPECT_THROW(sim::ShardSnapshot::load(path + ".missing"), cdpf::Error);
}

TEST(ShardSnapshot, ParseRejectsGarbage) {
  EXPECT_THROW(sim::ShardSnapshot::parse(""), cdpf::Error);
  EXPECT_THROW(sim::ShardSnapshot::parse("{"), cdpf::Error);
  EXPECT_THROW(sim::ShardSnapshot::parse("[1,2]"), cdpf::Error);
  // Syntax errors from the shared JSON reader keep the snapshot context.
  try {
    (void)sim::ShardSnapshot::parse(R"({"schema" "cdpf-shard/1"})");
    ADD_FAILURE() << "missing ':' was accepted";
  } catch (const cdpf::Error& e) {
    EXPECT_EQ(std::string(e.what()), "cdpf-shard JSON: expected ':' at offset 10");
  }
  EXPECT_THROW(sim::ShardSnapshot::parse(R"({"schema":"other/9"})"),
               cdpf::Error);
  // Right shape, wrong value encoding (decimal instead of bit pattern).
  EXPECT_THROW(
      sim::ShardSnapshot::parse(
          R"({"schema":"cdpf-shard/1","experiment":"unit","config":"c",)"
          R"("shard_index":0,"shard_count":1,"slot_count":1,)"
          R"("slots":[{"slot":0,"values":[1.5]}]})"),
      cdpf::Error);
}

// Split `full`'s slots round-robin into `count` shard snapshots.
std::vector<sim::ShardSnapshot> split(const sim::ShardSnapshot& full,
                                      std::size_t count) {
  std::vector<sim::ShardSnapshot> shards(count, full);
  for (std::size_t i = 0; i < count; ++i) {
    shards[i].shard = {i, count};
    shards[i].slots.clear();
    for (const auto& slot : full.slots) {
      if (slot.first % count == i) {
        shards[i].slots.push_back(slot);
      }
    }
  }
  return shards;
}

sim::ShardSnapshot six_slots() {
  sim::ShardSnapshot full;
  full.experiment = "unit";
  full.config = "experiment=unit;slots=6;trials=2;seed=3";
  full.shard = {0, 1};
  full.slot_count = 6;
  for (std::size_t s = 0; s < 6; ++s) {
    full.slots.push_back({s, sim::SlotRecord{{static_cast<double>(s), 0.5}}});
  }
  return full;
}

TEST(MergeSnapshots, SingleShardIsIdentity) {
  const sim::ShardSnapshot full = six_slots();
  const std::vector<sim::SlotRecord> merged = sim::merge_snapshots({full});
  ASSERT_EQ(merged.size(), 6u);
  for (std::size_t s = 0; s < 6; ++s) {
    EXPECT_EQ(merged[s], full.slots[s].second);
  }
}

TEST(MergeSnapshots, ThreeShardsReassembleInSlotOrder) {
  const sim::ShardSnapshot full = six_slots();
  std::vector<sim::ShardSnapshot> shards = split(full, 3);
  // Merge must not depend on argument order.
  std::swap(shards[0], shards[2]);
  const std::vector<sim::SlotRecord> merged = sim::merge_snapshots(shards);
  ASSERT_EQ(merged.size(), 6u);
  for (std::size_t s = 0; s < 6; ++s) {
    EXPECT_EQ(merged[s], full.slots[s].second);
  }
}

TEST(MergeSnapshots, RejectsBadShardSets) {
  const sim::ShardSnapshot full = six_slots();
  const std::vector<sim::ShardSnapshot> shards = split(full, 3);

  EXPECT_THROW(sim::merge_snapshots({}), cdpf::Error);
  // Missing one shard of three.
  EXPECT_THROW(sim::merge_snapshots({shards[0], shards[1]}), cdpf::Error);
  // The same shard twice.
  EXPECT_THROW(sim::merge_snapshots({shards[0], shards[0], shards[2]}),
               cdpf::Error);

  // Config digest mismatch.
  {
    auto bad = shards;
    bad[1].config = "experiment=unit;slots=6;trials=2;seed=4";
    EXPECT_THROW(sim::merge_snapshots(bad), cdpf::Error);
  }
  // Experiment mismatch.
  {
    auto bad = shards;
    bad[1].experiment = "other";
    EXPECT_THROW(sim::merge_snapshots(bad), cdpf::Error);
  }
  // A slot the shard does not own.
  {
    auto bad = shards;
    bad[0].slots.push_back({1, sim::SlotRecord{{9.0}}});
    EXPECT_THROW(sim::merge_snapshots(bad), cdpf::Error);
  }
  // A missing slot.
  {
    auto bad = shards;
    bad[2].slots.pop_back();
    EXPECT_THROW(sim::merge_snapshots(bad), cdpf::Error);
  }
  // A slot past slot_count.
  {
    auto bad = shards;
    bad[0].slots.push_back({6, sim::SlotRecord{{9.0}}});
    EXPECT_THROW(sim::merge_snapshots(bad), cdpf::Error);
  }
}

// ---------------------------------------------------------- ExperimentRunner

sim::RunSpec unit_spec() {
  sim::RunSpec spec;
  spec.experiment = "unit";
  spec.trials = 2;
  spec.seed = 41;
  spec.config = {{"flavor", "test"}};
  return spec;
}

// A cheap, deterministic stand-in for a Monte-Carlo trial.
sim::SlotRecord job_record(std::size_t slot) {
  const double x = static_cast<double>(slot);
  return sim::SlotRecord{{x, 1.0 / (x + 1.0), 0.1 * x}};
}

TEST(ExperimentRunner, PlainModeReturnsEverySlot) {
  sim::RunSpec spec = unit_spec();
  spec.workers = 4;  // exercise the pooled path through the runner
  sim::ExperimentRunner runner(spec);
  const auto records = runner.run(6, job_record);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 6u);
  EXPECT_EQ((*records)[4], job_record(4));
  EXPECT_TRUE(runner.snapshot_path().empty());
}

TEST(ExperimentRunner, ShardMergeMatchesPlainBitwise) {
  const std::filesystem::path dir = testing::TempDir();
  const std::size_t kSlots = 7;  // deliberately not a multiple of 3

  sim::ExperimentRunner plain(unit_spec());
  const auto reference = plain.run(kSlots, job_record);
  ASSERT_TRUE(reference.has_value());

  std::vector<std::string> paths;
  for (std::size_t i = 0; i < 3; ++i) {
    sim::RunSpec spec = unit_spec();
    spec.shard = {i, 3};
    spec.shard_out = (dir / ("unit-" + std::to_string(i) + ".json")).string();
    sim::ExperimentRunner shard(spec);
    EXPECT_FALSE(shard.run(kSlots, job_record).has_value());
    EXPECT_EQ(shard.snapshot_path(), spec.shard_out);
    paths.push_back(spec.shard_out);
  }

  sim::RunSpec merge_spec = unit_spec();
  merge_spec.merge_paths = paths;
  sim::ExperimentRunner merger(merge_spec);
  std::size_t calls = 0;
  const auto merged = merger.run(kSlots, [&](std::size_t slot) {
    ++calls;
    return job_record(slot);
  });
  EXPECT_EQ(calls, 0u) << "merge mode must not recompute slots";
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(*merged, *reference);
}

TEST(ExperimentRunner, MergeRejectsForeignSnapshots) {
  const std::filesystem::path dir = testing::TempDir();
  const std::string path = (dir / "foreign.json").string();
  {
    sim::RunSpec spec = unit_spec();
    spec.shard_out = path;
    sim::ExperimentRunner writer(spec);
    EXPECT_TRUE(writer.run(4, job_record).has_value());  // plain + snapshot
  }
  // Same snapshot, different trials -> digest mismatch.
  sim::RunSpec merge_spec = unit_spec();
  merge_spec.trials = 3;
  merge_spec.merge_paths = {path};
  sim::ExperimentRunner merger(merge_spec);
  EXPECT_THROW(merger.run(4, job_record), cdpf::Error);
}

TEST(ExperimentRunner, RejectsConflictingSpecs) {
  sim::RunSpec spec = unit_spec();
  spec.shard = {0, 2};
  spec.merge_paths = {"a.json"};
  EXPECT_THROW(sim::ExperimentRunner{spec}, cdpf::Error);
  EXPECT_THROW(sim::ExperimentRunner{sim::RunSpec{}}, cdpf::Error);  // no name
}

TEST(ExperimentRunner, DefaultSnapshotPathNamesTheShard) {
  sim::RunSpec spec = unit_spec();
  spec.shard = {1, 3};
  sim::ExperimentRunner runner(spec);
  EXPECT_EQ(runner.snapshot_path(), "unit.shard-1of3.json");
}

// ------------------------------------------------- fold / Monte-Carlo parity

TEST(FoldMonteCarlo, MatchesRunMonteCarloBitwise) {
  const double densities[] = {5.0, 10.0};
  const sim::AlgorithmKind kinds[] = {sim::AlgorithmKind::kSdpf,
                                      sim::AlgorithmKind::kCdpf};
  const sim::AlgorithmParams params;
  constexpr std::size_t kTrials = 3;
  constexpr std::uint64_t kSeed = 17;
  const sim::SweepGrid grid(2, 2, kTrials);

  std::vector<sim::SlotRecord> records;
  for (std::size_t slot = 0; slot < grid.slots(); ++slot) {
    const sim::SweepGrid::Slot s = grid.at(slot);
    sim::Scenario scenario;
    scenario.density_per_100m2 = densities[s.point];
    records.push_back(sim::to_record(
        sim::run_trial(scenario, kinds[s.kind], params, kSeed, s.trial)));
  }

  for (std::size_t point = 0; point < 2; ++point) {
    for (std::size_t kind = 0; kind < 2; ++kind) {
      SCOPED_TRACE(testing::Message() << "point " << point << ", kind " << kind);
      sim::Scenario scenario;
      scenario.density_per_100m2 = densities[point];
      const sim::MonteCarloResult direct =
          sim::run_monte_carlo(scenario, kinds[kind], params, kTrials, kSeed);
      const sim::MonteCarloResult folded = grid.fold(records, point, kind);

      EXPECT_EQ(folded.trials, direct.trials);
      EXPECT_EQ(folded.trials_without_estimates, direct.trials_without_estimates);
      // Bitwise, not approximate: the sharded plane promises byte-identical
      // tables, which requires the fold to replay the exact double sequence.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(folded.rmse.mean()),
                std::bit_cast<std::uint64_t>(direct.rmse.mean()));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(folded.mean_error.mean()),
                std::bit_cast<std::uint64_t>(direct.mean_error.mean()));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(folded.total_bytes.mean()),
                std::bit_cast<std::uint64_t>(direct.total_bytes.mean()));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(folded.total_messages.mean()),
                std::bit_cast<std::uint64_t>(direct.total_messages.mean()));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(folded.estimates.mean()),
                std::bit_cast<std::uint64_t>(direct.estimates.mean()));
    }
  }
}

TEST(SweepGrid, SlotsMapOneToOneOntoPointKindTrial) {
  // Point-major, then kind, then trial: the order every bench's snapshot
  // records its slots in.
  const sim::SweepGrid grid(3, 4, 5);
  ASSERT_EQ(grid.slots(), 60u);
  std::size_t slot = 0;
  for (std::size_t point = 0; point < 3; ++point) {
    for (std::size_t kind = 0; kind < 4; ++kind) {
      for (std::size_t trial = 0; trial < 5; ++trial, ++slot) {
        const sim::SweepGrid::Slot s = grid.at(slot);
        EXPECT_EQ(s.point, point);
        EXPECT_EQ(s.kind, kind);
        EXPECT_EQ(s.trial, trial);
        EXPECT_EQ(grid.slot(point, kind, trial), slot);
      }
    }
  }
  EXPECT_THROW(grid.at(60), Error);
  EXPECT_THROW(grid.slot(0, 4, 0), Error);
  EXPECT_THROW(sim::SweepGrid(2, 0, 3), Error);
}

// ------------------------------------------------------- name-keyed factory

TEST(AlgorithmRegistry, LooksUpEveryAlgorithmByName) {
  for (const sim::AlgorithmKind kind : sim::kAllAlgorithms) {
    const auto back = sim::algorithm_from_name(sim::algorithm_name(kind));
    ASSERT_TRUE(back.has_value()) << sim::algorithm_name(kind);
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(sim::algorithm_from_name("GMM-DPF").has_value());  // retired
  EXPECT_FALSE(sim::algorithm_from_name("NOPE").has_value());
  EXPECT_FALSE(sim::algorithm_from_name("cdpf").has_value());  // case-exact
}

TEST(AlgorithmRegistry, MakeTrackerByNameMatchesTrackerName) {
  sim::Scenario scenario;
  scenario.density_per_100m2 = 10.0;
  rng::Rng rng(1);
  wsn::Network network = sim::build_network(scenario, rng);
  wsn::Radio radio(network, scenario.payloads);
  const sim::AlgorithmParams params;

  const auto tracker = sim::make_tracker("CDPF-NE", network, radio, params);
  EXPECT_EQ(std::string(tracker->name()), "CDPF-NE");

  for (const char* unknown : {"bogus", "GMM-DPF"}) {
    try {
      sim::make_tracker(unknown, network, radio, params);
      FAIL() << unknown << ": an unknown name must throw";
    } catch (const cdpf::Error& e) {
      // The error lists the registry, exactly, so typos are self-diagnosing.
      const std::string what = e.what();
      EXPECT_TRUE(what.ends_with("(known: CPF, DPF, SDPF, CDPF, CDPF-NE)")) << what;
    }
  }
}

// ------------------------------------------------------------- CLI options

sim::CliOptions parse(std::vector<const char*> argv, const sim::CliSpec& spec) {
  argv.insert(argv.begin(), "test_bin");
  support::CliArgs args(static_cast<int>(argv.size()), argv.data());
  sim::CliOptions options = sim::parse_cli_options(args, spec);
  args.check_unknown();
  return options;
}

TEST(CliOptionsTest, ParsesTheStandardVocabulary) {
  const sim::CliSpec spec;
  const sim::CliOptions options =
      parse({"--densities=5,10", "--trials=4", "--seed=99", "--workers=2",
             "--shard=1/3", "--csv=out.csv"},
            spec);
  EXPECT_EQ(options.densities, (std::vector<double>{5.0, 10.0}));
  EXPECT_EQ(options.trials, 4u);
  EXPECT_EQ(options.seed, 99u);
  EXPECT_EQ(options.workers, 2u);
  EXPECT_EQ(options.shard.index, 1u);
  EXPECT_EQ(options.shard.count, 3u);
  EXPECT_EQ(options.csv_path, std::optional<std::string>("out.csv"));
  EXPECT_FALSE(options.help);
}

TEST(CliOptionsTest, MaskedGroupsRejectTheirFlags) {
  sim::CliSpec spec;
  spec.sharding = false;
  EXPECT_THROW(parse({"--shard=0/2"}, spec), cdpf::Error);
  spec.sharding = true;
  spec.monte_carlo = false;
  EXPECT_THROW(parse({"--trials=5"}, spec), cdpf::Error);
  // CSV is the one report format; there is no --json report.
  EXPECT_THROW(parse({"--json=report.json"}, sim::CliSpec{}), cdpf::Error);
}

TEST(CliOptionsTest, ShardAndMergeAreMutuallyExclusive) {
  const sim::CliSpec spec;
  EXPECT_THROW(parse({"--shard=0/2", "--merge=a.json"}, spec), cdpf::Error);
  EXPECT_THROW(parse({"--merge=a.json", "--shard-out=b.json"}, spec),
               cdpf::Error);
  EXPECT_THROW(parse({"--trials=0"}, spec), cdpf::Error);
}

TEST(CliOptionsTest, RunSpecCarriesTheParsedFields) {
  const sim::CliSpec spec;
  const sim::CliOptions options = parse({"--trials=2", "--seed=7"}, spec);
  const sim::RunSpec run =
      options.run_spec("fig6", {{"densities", "5,10"}});
  EXPECT_EQ(run.experiment, "fig6");
  EXPECT_EQ(run.trials, 2u);
  EXPECT_EQ(run.seed, 7u);
  ASSERT_EQ(run.config.size(), 1u);
  EXPECT_EQ(run.config[0].first, "densities");

  sim::ExperimentRunner runner(run);
  const std::string digest = runner.config_digest(20);
  EXPECT_NE(digest.find("fig6"), std::string::npos);
  EXPECT_NE(digest.find("seed=7"), std::string::npos);
  EXPECT_NE(digest.find("densities=5,10"), std::string::npos);
  // Workers must NOT be pinned by the digest: shards may differ in them.
  EXPECT_EQ(digest.find("workers"), std::string::npos);
}

}  // namespace
