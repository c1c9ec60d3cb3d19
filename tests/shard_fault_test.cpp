// Fault-tolerance contracts of the sharded megacity:
//   - envelope wire form and batch seals;
//   - every barrier integrity violation (hop bound, plan membership, seq
//     duplicate/reorder/gap, batch CRC) surfaces as a typed, catchable
//     ShardIntegrityError with its ShardStats counter bumped — including in
//     release builds, where these used to be compiled-out asserts;
//   - kill-at-ANY-epoch-boundary + restore reproduces the uninterrupted
//     run's metrics JSON and canonical log byte for byte;
//   - the supervisor restarts a scripted-crash shard from its snapshot and
//     replays the missed envelopes, converging to the no-fault surfaces;
//   - a segment whose RSU is scripted dark still applies revocation gossip
//     from its neighbours (degraded-mode isolation) while producing no
//     detection activity of its own.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "codec/checkpoint.hpp"
#include "common/bytes.hpp"
#include "scenario/corridor_world.hpp"
#include "shard/envelope.hpp"
#include "shard/integrity.hpp"
#include "shard/sharded_sim.hpp"
#include "sim/parallel.hpp"

namespace blackdp {
namespace {

// ------------------------------------------------------------ wire + seals

TEST(EnvelopeWireTest, SerializeDeserializeRoundTrips) {
  const shard::Envelope envelope{3, 4, 7, 2, {0x10, 0x20, 0x30}};
  common::ByteWriter writer;
  shard::serializeEnvelope(envelope, writer);
  common::ByteReader reader{writer.bytes()};
  EXPECT_EQ(shard::deserializeEnvelope(reader), envelope);
  EXPECT_TRUE(reader.exhausted());
}

TEST(EnvelopeWireTest, BatchSealCoversEveryFieldOfEveryEnvelope) {
  std::vector<shard::Envelope> batch{{1, 2, 0, 7, {0xaa, 0xbb}},
                                     {1, 2, 1, 7, {}}};
  const shard::BatchSeal seal = shard::sealBatch(batch);
  EXPECT_EQ(seal.count, 2u);

  auto mutated = [&](auto&& mutate) {
    std::vector<shard::Envelope> copy = batch;
    mutate(copy);
    return shard::sealBatch(copy);
  };
  EXPECT_NE(mutated([](auto& b) { b[0].body[0] ^= 1; }), seal);
  EXPECT_NE(mutated([](auto& b) { b[0].seq = 9; }), seal);
  EXPECT_NE(mutated([](auto& b) { b[1].dstSegment = 3; }), seal);
  EXPECT_NE(mutated([](auto& b) { b[1].kind = 8; }), seal);
  EXPECT_NE(mutated([](auto& b) { b.pop_back(); }), seal);
  EXPECT_EQ(mutated([](auto&) {}), seal);
}

// ------------------------------------------------- typed barrier integrity

/// Emits a scripted outbox at epoch 0 and nothing afterwards.
class ScriptedWorld final : public shard::ShardWorld {
 public:
  explicit ScriptedWorld(std::vector<shard::Envelope> epoch0 = {})
      : epoch0_{std::move(epoch0)} {}

  void runEpoch(std::uint32_t epoch, std::span<const shard::Envelope> inbox,
                std::vector<shard::Envelope>& outbox) override {
    (void)inbox;
    if (epoch == 0) outbox = epoch0_;
  }

 private:
  std::vector<shard::Envelope> epoch0_;
};

/// Runs one epoch over plan contiguous(4, 2) with the two scripted outboxes
/// and returns the caught integrity violation (nullopt = no throw).
std::optional<shard::IntegrityViolation> violationFor(
    std::vector<shard::Envelope> low, std::vector<shard::Envelope> high,
    shard::ShardStats* statsOut = nullptr,
    shard::ShardedSimulation::Config config = {}) {
  const sim::ParallelRunner runner{2};
  const shard::ShardPlan plan = shard::ShardPlan::contiguous(4, 2);
  ScriptedWorld lowWorld{std::move(low)};
  ScriptedWorld highWorld{std::move(high)};
  shard::ShardedSimulation sharded{plan, {&lowWorld, &highWorld},
                                  runner.threadPool(), std::move(config)};
  std::optional<shard::IntegrityViolation> caught;
  try {
    sharded.runEpoch();
  } catch (const shard::ShardIntegrityError& e) {
    EXPECT_EQ(e.epoch(), 0u);
    caught = e.kind();
  }
  if (statsOut != nullptr) *statsOut = sharded.stats();
  return caught;
}

TEST(ShardIntegrityTest, HealthyExchangePassesWithZeroViolationCounters) {
  shard::ShardStats stats;
  // Segment 1 -> 2 and 3 -> 2: legal single-hop traffic in both directions.
  const auto caught = violationFor({{1, 2, 0, 7, {0x01}}},
                                   {{3, 2, 0, 7, {0x02}}}, &stats);
  EXPECT_FALSE(caught.has_value());
  EXPECT_EQ(stats.envelopesExchanged, 2u);
  EXPECT_EQ(stats.epochViolations, 0u);
  EXPECT_EQ(stats.seqViolations, 0u);
  EXPECT_EQ(stats.crcRejects, 0u);
}

TEST(ShardIntegrityTest, HopBoundViolationIsTypedAndCounted) {
  // Segment 0 -> 2 travels two segments: beyond the epoch-safety bound.
  // This was a hard assert before; now it must be a catchable typed error
  // (this test runs in release builds too, where asserts may compile out).
  shard::ShardStats stats;
  const auto caught = violationFor({{0, 2, 0, 7, {}}}, {}, &stats);
  ASSERT_TRUE(caught.has_value());
  EXPECT_EQ(*caught, shard::IntegrityViolation::kEpochHops);
  EXPECT_EQ(stats.epochViolations, 1u);
  EXPECT_EQ(stats.seqViolations, 0u);
}

TEST(ShardIntegrityTest, ForeignSourceSegmentIsOutOfPlan) {
  // The low shard (segments 0-1) claims to emit from segment 2.
  shard::ShardStats stats;
  const auto caught = violationFor({{2, 3, 0, 7, {}}}, {}, &stats);
  ASSERT_TRUE(caught.has_value());
  EXPECT_EQ(*caught, shard::IntegrityViolation::kOutOfPlan);
  EXPECT_EQ(stats.seqViolations, 1u);
}

TEST(ShardIntegrityTest, DestinationOutsideThePlanIsOutOfPlan) {
  shard::ShardStats stats;
  const auto caught = violationFor({{1, 9, 0, 7, {}}}, {}, &stats);
  ASSERT_TRUE(caught.has_value());
  EXPECT_EQ(*caught, shard::IntegrityViolation::kOutOfPlan);
  EXPECT_EQ(stats.seqViolations, 1u);
}

TEST(ShardIntegrityTest, DuplicateSeqIsTypedAndCounted) {
  shard::ShardStats stats;
  const auto caught =
      violationFor({{1, 2, 0, 7, {}}, {1, 2, 0, 7, {}}}, {}, &stats);
  ASSERT_TRUE(caught.has_value());
  EXPECT_EQ(*caught, shard::IntegrityViolation::kSeqDuplicate);
  EXPECT_EQ(stats.seqViolations, 1u);
}

TEST(ShardIntegrityTest, RegressedSeqIsAReorder) {
  shard::ShardStats stats;
  const auto caught =
      violationFor({{1, 2, 1, 7, {}}, {1, 2, 0, 7, {}}}, {}, &stats);
  ASSERT_TRUE(caught.has_value());
  EXPECT_EQ(*caught, shard::IntegrityViolation::kSeqReorder);
  EXPECT_EQ(stats.seqViolations, 1u);
}

TEST(ShardIntegrityTest, MissingSeqIsAGapAtTheMergedCheck) {
  // seq 0 then 2 is emission-order ascending, so the per-outbox check
  // passes; the post-merge contiguity check must catch the missing seq 1.
  shard::ShardStats stats;
  const auto caught =
      violationFor({{1, 2, 0, 7, {}}, {1, 2, 2, 7, {}}}, {}, &stats);
  ASSERT_TRUE(caught.has_value());
  EXPECT_EQ(*caught, shard::IntegrityViolation::kSeqGap);
  EXPECT_EQ(stats.seqViolations, 1u);
}

TEST(ShardIntegrityTest, TamperedBatchFailsItsSealAsCrcMismatch) {
  // Corrupt the batch AFTER the worker sealed it and BEFORE the coordinator
  // verifies: the model of bit rot between worker and barrier.
  shard::ShardedSimulation::Config config;
  config.tamperOutboxHook = [](std::uint32_t epoch, std::uint32_t s,
                               std::vector<shard::Envelope>& outbox) {
    (void)epoch;
    if (s == 0 && !outbox.empty()) outbox[0].body[0] ^= 0x40;
  };
  shard::ShardStats stats;
  const auto caught = violationFor({{1, 2, 0, 7, {0x01}}}, {}, &stats,
                                   std::move(config));
  ASSERT_TRUE(caught.has_value());
  EXPECT_EQ(*caught, shard::IntegrityViolation::kCrcMismatch);
  EXPECT_EQ(stats.crcRejects, 1u);
  EXPECT_EQ(stats.seqViolations, 0u);
}

// --------------------------------------------- kill/resume byte identity

scenario::CorridorConfig tinyCorridor() {
  scenario::CorridorConfig config;
  config.seed = 7;
  config.segments = 4;
  config.vehicles = 240;
  config.attackerPermille = 100;  // 10% black holes: detections in 4 epochs
  config.departPermille = 100;
  return config;
}

TEST(CorridorCheckpointTest, KillAtEveryEpochBoundaryResumesByteIdentically) {
  const sim::ParallelRunner runner{4};
  const scenario::CorridorConfig config = tinyCorridor();
  constexpr std::uint32_t kEpochs = 4;

  scenario::CorridorWorld reference{config, 2, runner.threadPool()};
  std::vector<common::Bytes> checkpoints;  // boundary 1, 2, ..., kEpochs
  while (reference.nextEpoch() < kEpochs) {
    reference.step();
    checkpoints.push_back(reference.saveCheckpoint());
  }
  reference.finish();
  const std::string wantJson = reference.metricsJson();
  const std::string wantLog = reference.canonicalLog();

  for (std::size_t cut = 0; cut < checkpoints.size(); ++cut) {
    scenario::CorridorWorld resumed{config, 2, runner.threadPool()};
    const auto restored = resumed.restoreCheckpoint(checkpoints[cut]);
    ASSERT_TRUE(restored.ok()) << restored.error().code << ": "
                               << restored.error().detail;
    EXPECT_EQ(resumed.nextEpoch(), cut + 1);
    resumed.run(kEpochs);
    EXPECT_EQ(resumed.metricsJson(), wantJson) << "cut at boundary "
                                               << cut + 1;
    EXPECT_EQ(resumed.canonicalLog(), wantLog) << "cut at boundary "
                                               << cut + 1;
  }
}

TEST(CorridorCheckpointTest, ResumingUnderADifferentPartitionStillMatches) {
  // The checkpoint stores segment-addressed state, so restoring a 1-shard
  // checkpoint into a 1-shard world must reproduce what a 3-shard run says.
  const sim::ParallelRunner runner{3};
  const scenario::CorridorConfig config = tinyCorridor();

  scenario::CorridorWorld tri{config, 3, runner.threadPool()};
  tri.run(3);

  scenario::CorridorWorld mono{config, 1, runner.threadPool()};
  mono.step();
  const common::Bytes blob = mono.saveCheckpoint();
  scenario::CorridorWorld resumed{config, 1, runner.threadPool()};
  ASSERT_TRUE(resumed.restoreCheckpoint(blob).ok());
  resumed.run(3);
  EXPECT_EQ(resumed.metricsJson(), tri.metricsJson());
  EXPECT_EQ(resumed.canonicalLog(), tri.canonicalLog());
}

// --------------------------------------------------- supervisor restarts

TEST(ShardSupervisionTest, CrashedShardConvergesToTheNoFaultSurfaces) {
  const sim::ParallelRunner runner{4};
  const scenario::CorridorConfig clean = tinyCorridor();

  scenario::CorridorWorld reference{clean, 4, runner.threadPool()};
  reference.run(4);

  // Crash a shard whose replayed inbox is provably non-empty: with 4
  // segments across 4 shards every segment is its own shard, so any
  // envelope APPLIED at epoch 2 (migrate-in / handoff-in / revocation in
  // the log) pins a non-empty epoch-2 inbox for that segment's shard. A
  // crash at epoch 3 restores the epoch-2 snapshot and replays exactly
  // that inbox.
  std::optional<std::uint32_t> crashShard;
  {
    const std::string log = reference.canonicalLog();
    std::size_t pos = 0;
    while (pos < log.size() && !crashShard.has_value()) {
      const std::size_t end = log.find('\n', pos);
      const std::string line =
          log.substr(pos, end == std::string::npos ? end : end - pos);
      pos = end == std::string::npos ? log.size() : end + 1;
      std::uint32_t segment = 0;
      std::uint32_t epoch = 0;
      if (std::sscanf(line.c_str(), "seg=%u epoch=%u", &segment, &epoch) != 2 ||
          epoch != 2) {
        continue;
      }
      if (line.find(" migrate-in ") != std::string::npos ||
          line.find(" handoff-in ") != std::string::npos ||
          line.find(" revocation ") != std::string::npos) {
        crashShard = segment;
      }
    }
  }
  ASSERT_TRUE(crashShard.has_value())
      << "no cross-shard envelope applied at epoch 2; pick another epoch";

  scenario::CorridorConfig faulty = clean;
  faulty.faults.shardCrashes.push_back({3, *crashShard});
  scenario::CorridorWorld supervised{faulty, 4, runner.threadPool()};
  supervised.run(4);

  // The restart replayed the retained inboxes, so the recovered shard is
  // indistinguishable on both deterministic surfaces.
  EXPECT_EQ(supervised.metricsJson(), reference.metricsJson());
  EXPECT_EQ(supervised.canonicalLog(), reference.canonicalLog());

  const shard::ShardStats& stats = supervised.shardStats();
  EXPECT_EQ(stats.shardRestarts, 1u);
  EXPECT_GT(stats.envelopesReplayed, 0u);
  EXPECT_GT(stats.recoveryEpochs, 0u);

  // The integrity counters are part of the metrics surface (and zero on a
  // healthy run); the recovery counters are machine-plan-dependent and
  // deliberately are NOT, or the identity above could not hold.
  const std::string json = supervised.metricsJson();
  EXPECT_NE(json.find("shard.crc_rejects"), std::string::npos);
  EXPECT_NE(json.find("shard.epoch_violations"), std::string::npos);
  EXPECT_NE(json.find("shard.seq_violations"), std::string::npos);
  EXPECT_EQ(json.find("shard_restarts"), std::string::npos);
}

// ------------------------------------------------- degraded-mode recovery

struct RevocationLine {
  std::uint32_t segment{0};
  std::uint32_t epoch{0};
  std::uint64_t suspect{0};
  std::string text;
};

std::optional<RevocationLine> firstRevocation(const std::string& log) {
  std::size_t pos = 0;
  while (pos < log.size()) {
    const std::size_t end = log.find('\n', pos);
    const std::string line =
        log.substr(pos, end == std::string::npos ? end : end - pos);
    pos = end == std::string::npos ? log.size() : end + 1;
    if (line.find(" revocation ") == std::string::npos) continue;
    RevocationLine parsed;
    parsed.text = line;
    unsigned long long suspect = 0;
    if (std::sscanf(line.c_str(), "seg=%u epoch=%u revocation a=%llu",
                    &parsed.segment, &parsed.epoch, &suspect) == 3) {
      parsed.suspect = suspect;
      return parsed;
    }
  }
  return std::nullopt;
}

TEST(DegradedModeTest, RevocationGossipIsolatesWhileTheRsuIsDark) {
  const sim::ParallelRunner runner{2};
  const scenario::CorridorConfig clean = tinyCorridor();
  constexpr std::uint32_t kEpochs = 6;

  scenario::CorridorWorld reference{clean, 1, runner.threadPool()};
  reference.run(kEpochs);
  const auto revocation = firstRevocation(reference.canonicalLog());
  ASSERT_TRUE(revocation.has_value())
      << "reference run produced no revocation gossip; extend kEpochs";

  // Kill the receiving segment's RSU from the revocation epoch onwards: the
  // envelope was emitted by a NEIGHBOUR, so it must still apply.
  scenario::CorridorConfig dark = clean;
  dark.faults.rsuOutages.push_back(
      {revocation->segment, revocation->epoch, kEpochs});
  scenario::CorridorWorld degraded{dark, 1, runner.threadPool()};
  degraded.run(kEpochs);

  EXPECT_NE(degraded.canonicalLog().find(revocation->text),
            std::string::npos)
      << "revocation did not apply while the RSU was dark";

  bool sawSuspectIsolated = false;
  degraded.forEachSegment([&](std::uint32_t segment,
                              const std::vector<common::Address>& isolated,
                              const core::LiteDetector& detector) {
    (void)detector;
    if (segment != revocation->segment) return;
    for (const common::Address address : isolated) {
      sawSuspectIsolated |= address.value() == revocation->suspect;
    }
  });
  EXPECT_TRUE(sawSuspectIsolated);

  // Dark means dark: the segment runs no detection of its own during the
  // outage — no digests implies no chains, reports, probes, or verdicts.
  const std::string log = degraded.canonicalLog();
  std::size_t pos = 0;
  while (pos < log.size()) {
    const std::size_t end = log.find('\n', pos);
    const std::string line =
        log.substr(pos, end == std::string::npos ? end : end - pos);
    pos = end == std::string::npos ? log.size() : end + 1;
    std::uint32_t segment = 0;
    std::uint32_t epoch = 0;
    if (std::sscanf(line.c_str(), "seg=%u epoch=%u", &segment, &epoch) != 2) {
      continue;
    }
    if (segment != revocation->segment || epoch < revocation->epoch) continue;
    EXPECT_EQ(line.find(" report "), std::string::npos) << line;
    EXPECT_EQ(line.find(" probe "), std::string::npos) << line;
    EXPECT_EQ(line.find(" verdict "), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace blackdp
