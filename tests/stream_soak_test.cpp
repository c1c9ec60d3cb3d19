// Streaming detector-service mode: checkpoint/restore byte-identity
// (including a kill-at-random-epoch torture loop), memory-watermark
// invariants under flood, and trace record/replay equivalence. The soak
// harness that drives it (manifest, kill, resume, chaos) is tested over
// both worlds in epoch_soak_test.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "codec/checkpoint.hpp"
#include "scenario/stream_world.hpp"
#include "sim/rng.hpp"

namespace blackdp {
namespace {

scenario::StreamConfig smallConfig(std::uint64_t seed = 77) {
  scenario::StreamConfig config;
  config.seed = seed;
  config.clusters = 2;
  config.dreqsPerEpoch = 4;
  return config;
}

// --- determinism of the injection plan --------------------------------------

TEST(StreamWorldTest, PlanEpochIsPureInSeedAndEpoch) {
  const scenario::StreamWorld a{smallConfig()};
  scenario::StreamWorld b{smallConfig()};
  EXPECT_EQ(a.planEpoch(0), b.planEpoch(0));
  EXPECT_EQ(a.planEpoch(7), b.planEpoch(7));
  // Running epochs must not perturb the plan (it is state-independent, so a
  // resumed run plans exactly what the uninterrupted run planned).
  const auto plan3 = b.planEpoch(3);
  b.runEpoch();
  b.runEpoch();
  EXPECT_EQ(b.planEpoch(3), plan3);
  // Different seeds diverge.
  const scenario::StreamWorld c{smallConfig(78)};
  EXPECT_NE(c.planEpoch(0), a.planEpoch(0));
}

TEST(StreamWorldTest, InjectionSpecJsonRoundTrips) {
  const scenario::StreamWorld world{smallConfig()};
  for (std::uint64_t epoch = 0; epoch < 4; ++epoch) {
    for (const scenario::InjectionSpec& spec : world.planEpoch(epoch)) {
      std::string line;
      scenario::appendInjectionJson(line, epoch, spec);
      const auto parsed = scenario::parseInjectionJson(line);
      ASSERT_TRUE(parsed.has_value()) << line;
      EXPECT_EQ(parsed->first, epoch);
      EXPECT_EQ(parsed->second, spec);
    }
  }
  EXPECT_FALSE(scenario::parseInjectionJson("not json").has_value());
  EXPECT_FALSE(scenario::parseInjectionJson("{\"epoch\":1}").has_value());
}

TEST(StreamWorldTest, ReplayFromSpecsMatchesLiveGeneration) {
  scenario::StreamWorld live{smallConfig()};
  scenario::StreamWorld replayed{smallConfig()};
  for (int epoch = 0; epoch < 4; ++epoch) {
    const auto specs = live.planEpoch(live.nextEpoch());
    live.runEpoch();
    replayed.runEpochFromSpecs(specs);
  }
  EXPECT_EQ(live.metrics().toJson(), replayed.metrics().toJson());
  EXPECT_EQ(live.saveCheckpoint(), replayed.saveCheckpoint());
}

// --- checkpoint / restore ---------------------------------------------------

// The tentpole pin: kill the world at a random epoch boundary, restore the
// checkpoint into a freshly built world, run to the end — every byte of the
// final checkpoint and the metrics JSON must match an uninterrupted run.
TEST(StreamCheckpointTest, KillAtRandomEpochRestoresByteIdentically) {
  constexpr std::uint64_t kEpochs = 6;
  for (std::uint64_t round = 1; round <= 3; ++round) {
    const scenario::StreamConfig config = smallConfig(900 + round);

    scenario::StreamWorld uninterrupted{config};
    for (std::uint64_t e = 0; e < kEpochs; ++e) uninterrupted.runEpoch();
    const common::Bytes finalExpected = uninterrupted.saveCheckpoint();

    sim::Rng rng{round};
    const auto killAt = static_cast<std::uint64_t>(
        rng.uniformInt(1, static_cast<std::int64_t>(kEpochs) - 1));
    scenario::StreamWorld victim{config};
    for (std::uint64_t e = 0; e < killAt; ++e) victim.runEpoch();
    const common::Bytes blob = victim.saveCheckpoint();

    scenario::StreamWorld resumed{config};
    const common::Status restored = resumed.restoreCheckpoint(blob);
    ASSERT_TRUE(restored.ok())
        << restored.error().code << ": " << restored.error().detail;
    EXPECT_EQ(resumed.nextEpoch(), killAt);
    for (std::uint64_t e = killAt; e < kEpochs; ++e) resumed.runEpoch();

    EXPECT_EQ(resumed.saveCheckpoint(), finalExpected)
        << "round " << round << " killed at epoch " << killAt;
    EXPECT_EQ(resumed.metrics().toJson(), uninterrupted.metrics().toJson())
        << "round " << round << " killed at epoch " << killAt;
  }
}

TEST(StreamCheckpointTest, RestoreRejectsConfigMismatch) {
  scenario::StreamWorld source{smallConfig(1)};
  source.runEpoch();
  const common::Bytes blob = source.saveCheckpoint();

  scenario::StreamWorld differentSeed{smallConfig(2)};
  const common::Status restored = differentSeed.restoreCheckpoint(blob);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.error().code, "config-mismatch");
}

TEST(StreamCheckpointTest, RestoreRejectsCorruption) {
  scenario::StreamWorld source{smallConfig()};
  source.runEpoch();
  common::Bytes blob = source.saveCheckpoint();
  blob[blob.size() / 2] ^= 0x40;

  scenario::StreamWorld target{smallConfig()};
  const common::Status restored = target.restoreCheckpoint(blob);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.error().code, "bad-crc");
}

TEST(StreamCheckpointTest, RestoreRejectsTruncation) {
  scenario::StreamWorld source{smallConfig()};
  source.runEpoch();
  common::Bytes blob = source.saveCheckpoint();
  blob.resize(blob.size() / 2);

  scenario::StreamWorld target{smallConfig()};
  const common::Status restored = target.restoreCheckpoint(blob);
  ASSERT_FALSE(restored.ok());
  // Mid-structure cuts surface as CRC or truncation errors, never UB.
  EXPECT_TRUE(restored.error().code == "bad-crc" ||
              restored.error().code == "truncated")
      << restored.error().code;
}

// --- bounded memory under flood ---------------------------------------------

TEST(StreamSoakTest, WatermarkHoldsUnderFloodAndEvictionActuallyRuns) {
  scenario::StreamConfig config = smallConfig(5);
  config.dreqsPerEpoch = 12;
  // Tight completed-record cap so the flood overflows it well within the
  // test's horizon (most of the flood is rate-limited/rejected by design).
  config.detector.completedCap = 64;
  scenario::StreamWorld world{config};
  for (int epoch = 0; epoch < 40; ++epoch) {
    world.runEpoch();
    const std::vector<std::string> violations = world.checkInvariants();
    EXPECT_TRUE(violations.empty())
        << "epoch " << epoch << ": " << violations.front();
  }
  // The bound must come from eviction doing work, not from the stream being
  // too small to ever hit the caps: enough sessions completed to overflow
  // the per-detector completed-record cap, so the cap had to evict.
  const scenario::StreamMetrics metrics = world.metrics();
  EXPECT_GT(metrics.completedTotal,
            static_cast<std::uint64_t>(config.detector.completedCap) *
                config.clusters);
  EXPECT_GT(metrics.completedEvicted, 0u);
  EXPECT_LE(metrics.completedRetained,
            static_cast<std::uint64_t>(config.detector.completedCap) *
                config.clusters);
  // Gauges stay pinned to the population, not the stream length. (The idle-
  // ledger TTL never fires here — every reporter stays active for the whole
  // soak, which is exactly why the gauge bound matters.)
  const std::uint64_t reporterCap =
      static_cast<std::uint64_t>(config.population.honestReporters +
                                 config.population.liarReporters) *
      config.clusters;
  EXPECT_LE(metrics.trackedReporters, reporterCap);
  EXPECT_LE(metrics.noncesCached,
            reporterCap * config.detector.hardening.ledger.nonceCacheMax);
}

}  // namespace
}  // namespace blackdp
