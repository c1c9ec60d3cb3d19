// Fault-tolerance contracts of the sharded megacity:
//   - envelope wire form and batch seals;
//   - every barrier integrity violation (hop bound, plan membership, seq
//     duplicate/reorder/gap, batch CRC) surfaces as a typed, catchable
//     ShardIntegrityError with its ShardStats counter bumped — including in
//     release builds, where these used to be compiled-out asserts;
//   - kill-at-ANY-epoch-boundary + restore reproduces the uninterrupted
//     run's metrics JSON and canonical log byte for byte;
//   - a restore rejects hostile shard and exchange sections as typed
//     "malformed": restored inboxes pass the barrier's own exchange checks
//     and decode as the shards will apply them, and every single-bit flip
//     of an exchange section is rejected or runs on without throwing;
//   - a segment whose RSU is scripted dark still applies revocation gossip
//     from its neighbours (degraded-mode isolation) while producing no
//     detection activity of its own.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "core/lite_detector.hpp"
#include "obs/registry.hpp"
#include "scenario/corridor_world.hpp"
#include "shard/envelope.hpp"
#include "shard/integrity.hpp"
#include "shard/sharded_sim.hpp"
#include "sim/thread_pool.hpp"

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
  sim::ThreadPool pool{2};
  const shard::ShardPlan plan = shard::ShardPlan::contiguous(4, 2);
  ScriptedWorld lowWorld{std::move(low)};
  ScriptedWorld highWorld{std::move(high)};
  shard::ShardedSimulation sharded{plan, {&lowWorld, &highWorld},
                                  pool, std::move(config)};
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
  sim::ThreadPool pool{4};
  const scenario::CorridorConfig config = tinyCorridor();
  constexpr std::uint32_t kEpochs = 4;

  scenario::CorridorWorld reference{config, 2, pool};
  std::vector<common::Bytes> checkpoints;  // boundary 1, 2, ..., kEpochs
  while (reference.nextEpoch() < kEpochs) {
    reference.step();
    checkpoints.push_back(reference.saveCheckpoint());
  }
  reference.finish();
  const std::string wantJson = reference.metricsJson();
  const std::string wantLog = reference.canonicalLog();

  for (std::size_t cut = 0; cut < checkpoints.size(); ++cut) {
    scenario::CorridorWorld resumed{config, 2, pool};
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
  sim::ThreadPool pool{3};
  const scenario::CorridorConfig config = tinyCorridor();

  scenario::CorridorWorld tri{config, 3, pool};
  tri.run(3);

  scenario::CorridorWorld mono{config, 1, pool};
  mono.step();
  const common::Bytes blob = mono.saveCheckpoint();
  scenario::CorridorWorld resumed{config, 1, pool};
  ASSERT_TRUE(resumed.restoreCheckpoint(blob).ok());
  resumed.run(3);
  EXPECT_EQ(resumed.metricsJson(), tri.metricsJson());
  EXPECT_EQ(resumed.canonicalLog(), tri.canonicalLog());
}

// ------------------------------------------------ hostile shard sections

/// The world the hostile-section cases start from: seed 11, 2 segments on 2
/// shards, 24 vehicles, 20 % attackers, checkpointed after 4 epochs.
scenario::CorridorConfig hostileCorridor() {
  scenario::CorridorConfig config;
  config.seed = 11;
  config.segments = 2;
  config.vehicles = 24;
  config.attackerPermille = 200;
  return config;
}

/// Where a kCorridorShard section keeps what the cases rewrite, found by
/// walking the section (detector tables through their own decoder) rather
/// than by fixed byte offsets.
struct ShardSectionLayout {
  std::vector<std::size_t> idOffsets;  ///< of each resident vehicle's id
  std::vector<std::uint32_t> ids;
  std::size_t snapshotOffset{0};  ///< the metrics snapshot
};

ShardSectionLayout walkShardSection(const common::Bytes& section) {
  ShardSectionLayout layout;
  common::ByteReader r{section};
  const auto offset = [&] { return section.size() - r.remaining(); };
  (void)r.readI64();  // clock
  const std::uint32_t segments = r.readU32();
  for (std::uint32_t s = 0; s < segments; ++s) {
    (void)r.readU32();  // segment index
    for (std::uint32_t n = r.readU32(); n > 0; --n) {
      (void)r.readId<common::Address>();  // isolated
    }
    (void)r.readU64();  // detector: session-id counter
    (void)r.readU32();  // detector: probe-id counter
    for (std::uint32_t n = r.readU32(); n > 0; --n) {
      (void)core::DetectionSession::deserialize(r);
    }
    for (std::uint32_t n = r.readU32(); n > 0; --n) {
      layout.idOffsets.push_back(offset());
      layout.ids.push_back(r.readU32());
      (void)r.readI64();  // motion anchor
      for (std::uint32_t b = r.readU32(); b > 0; --b) {
        (void)r.readId<common::Address>();  // blacklist
      }
    }
    for (std::uint32_t n = r.readU32(); n > 0; --n) {
      (void)r.readU32();
      (void)r.readU8();
      (void)r.readU64();
      (void)r.readU64();
      (void)r.readU64();
    }
  }
  layout.snapshotOffset = offset();
  return layout;
}

class HostileShardSectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario::CorridorWorld world{hostileCorridor(), 2, pool_};
    while (world.nextEpoch() < 4) world.step();
    const auto decoded = codec::decodeCheckpoint(world.saveCheckpoint());
    ASSERT_TRUE(decoded.ok());
    checkpoint_ = decoded.value();
  }

  /// The checkpoint with shard section `shard` replaced by `rewrite(body)`,
  /// resealed under a valid CRC.
  common::Bytes rewritten(
      std::size_t shard, const std::function<common::Bytes(common::Bytes)>& rewrite) {
    codec::CheckpointBuilder builder;
    std::size_t seen = 0;
    for (const codec::CheckpointSection& section : checkpoint_.sections) {
      const auto tag = static_cast<codec::CheckpointTag>(section.tag);
      const bool target =
          tag == codec::CheckpointTag::kCorridorShard && seen++ == shard;
      builder.add(tag, target ? rewrite(section.body) : section.body);
    }
    return builder.finish();
  }

  [[nodiscard]] const common::Bytes& shardSection(std::size_t shard) const {
    return *checkpoint_.findAll(codec::CheckpointTag::kCorridorShard)[shard];
  }

  /// Shard 0's first resident vehicle renamed to `id`.
  common::Bytes withFirstResidentRenamed(std::uint32_t id) {
    return rewritten(0, [id](common::Bytes body) {
      const ShardSectionLayout layout = walkShardSection(body);
      EXPECT_FALSE(layout.idOffsets.empty());
      common::ByteWriter w;
      w.writeU32(id);
      std::copy(w.bytes().begin(), w.bytes().end(),
                body.begin() +
                    static_cast<std::ptrdiff_t>(layout.idOffsets.front()));
      return body;
    });
  }

  common::Status restore(const common::Bytes& blob) {
    scenario::CorridorWorld fresh{hostileCorridor(), 2, pool_};
    return fresh.restoreCheckpoint(blob);
  }

  sim::ThreadPool pool_{2};
  codec::Checkpoint checkpoint_;
};

TEST_F(HostileShardSectionTest, VehicleResidentInTheOtherShardIsMalformed) {
  const ShardSectionLayout other = walkShardSection(shardSection(1));
  ASSERT_FALSE(other.ids.empty());
  const common::Status status =
      restore(withFirstResidentRenamed(other.ids.front()));
  ASSERT_FALSE(status.ok()) << "one vehicle restored into two shards";
  EXPECT_EQ(status.error().code, "malformed");
}

TEST_F(HostileShardSectionTest, VehicleThatHasNotEnteredYetIsMalformed) {
  std::optional<std::uint32_t> late;
  for (std::uint32_t id = 0; id < hostileCorridor().vehicles && !late; ++id) {
    if (scenario::vehicleSpec(hostileCorridor(), id).entryEpoch >= 4) late = id;
  }
  ASSERT_TRUE(late.has_value());
  const common::Status status = restore(withFirstResidentRenamed(*late));
  ASSERT_FALSE(status.ok()) << "vehicle " << *late << " restored early";
  EXPECT_EQ(status.error().code, "malformed");
}

TEST_F(HostileShardSectionTest, HistogramShorterThanItsEdgesIsMalformed) {
  // A histogram with three edges has four buckets; one bucket would send
  // the restore's merge past the end of the counts.
  const common::Status status = restore(rewritten(0, [](common::Bytes body) {
    const std::size_t at = walkShardSection(body).snapshotOffset;
    common::ByteReader r{std::span<const std::uint8_t>{body}.subspan(at)};
    obs::Snapshot snapshot = obs::deserializeSnapshot(r);
    const common::Bytes tail(body.end() -
                                 static_cast<std::ptrdiff_t>(r.remaining()),
                             body.end());
    snapshot.histograms["corridor.hostile"] = {{1.0, 2.0, 3.0}, {5}, 5,
                                               5.0, 1.0, 1.0};
    common::ByteWriter w;
    obs::serializeSnapshot(snapshot, w);
    common::Bytes out(body.begin(),
                      body.begin() + static_cast<std::ptrdiff_t>(at));
    out.insert(out.end(), w.bytes().begin(), w.bytes().end());
    out.insert(out.end(), tail.begin(), tail.end());
    return out;
  }));
  ASSERT_FALSE(status.ok()) << "a short histogram restored";
  EXPECT_EQ(status.error().code, "malformed");
}

// ----------------------------------------------- hostile exchange sections

/// One inbox per shard: the kCorridorExchange section, read and written
/// through its layout.
using Inboxes = std::vector<std::vector<shard::Envelope>>;

Inboxes readExchange(const common::Bytes& section) {
  common::ByteReader r{section};
  Inboxes inboxes(r.readU32());
  for (std::vector<shard::Envelope>& inbox : inboxes) {
    for (std::uint32_t n = r.readU32(); n > 0; --n) {
      inbox.push_back(shard::deserializeEnvelope(r));
    }
  }
  EXPECT_TRUE(r.exhausted());
  return inboxes;
}

common::Bytes writeExchange(const Inboxes& inboxes) {
  common::ByteWriter w;
  w.writeU32(static_cast<std::uint32_t>(inboxes.size()));
  for (const std::vector<shard::Envelope>& inbox : inboxes) {
    w.writeU32(static_cast<std::uint32_t>(inbox.size()));
    for (const shard::Envelope& envelope : inbox) {
      shard::serializeEnvelope(envelope, w);
    }
  }
  return std::move(w).take();
}

/// The tiny corridor on 2 shards, checkpointed after 2 epochs: its exchange
/// section holds one migration envelope.
class HostileExchangeSectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario::CorridorWorld world{tinyCorridor(), 2, pool_};
    while (world.nextEpoch() < 2) world.step();
    const auto decoded = codec::decodeCheckpoint(world.saveCheckpoint());
    ASSERT_TRUE(decoded.ok());
    checkpoint_ = decoded.value();
    const common::Bytes* exchange =
        checkpoint_.find(codec::CheckpointTag::kCorridorExchange);
    ASSERT_NE(exchange, nullptr);
    section_ = *exchange;
  }

  /// The checkpoint with its exchange section replaced, under a valid CRC.
  [[nodiscard]] common::Bytes withExchange(const common::Bytes& section) const {
    codec::CheckpointBuilder builder;
    for (const codec::CheckpointSection& s : checkpoint_.sections) {
      const auto tag = static_cast<codec::CheckpointTag>(s.tag);
      const bool exchange = tag == codec::CheckpointTag::kCorridorExchange;
      builder.add(tag, exchange ? section : s.body);
    }
    return builder.finish();
  }

  /// Restores into a fresh world and, when that succeeds, runs 3 epochs.
  common::Status restoreAndRun(const common::Bytes& blob) {
    scenario::CorridorWorld fresh{tinyCorridor(), 2, pool_};
    const common::Status status = fresh.restoreCheckpoint(blob);
    for (int i = 0; status.ok() && i < 3; ++i) fresh.step();
    return status;
  }

  sim::ThreadPool pool_{2};
  codec::Checkpoint checkpoint_;
  common::Bytes section_;
};

TEST_F(HostileExchangeSectionTest, HandBuiltInboxesAreMalformed) {
  const Inboxes original = readExchange(section_);
  ASSERT_EQ(original.size(), 2u);
  ASSERT_TRUE(original[0].empty());
  ASSERT_EQ(original[1].size(), 1u);
  constexpr auto kMigration =
      static_cast<std::uint8_t>(scenario::CorridorEnvelopeKind::kMigration);
  ASSERT_EQ(original[1][0].kind, kMigration);
  common::ByteWriter ghost;
  ghost.writeU32(100000);  // far outside the 240-vehicle fleet
  ghost.writeU32(0);       // empty blacklist

  struct Case {
    const char* name;
    std::function<void(Inboxes&)> rewrite;
  };
  const std::vector<Case> cases{
      {"envelope in the inbox of a shard not owning its segment",
       [](Inboxes& in) { std::swap(in[0], in[1]); }},
      {"revocation with a 2-byte body",
       [](Inboxes& in) {
         in[1][0].kind = static_cast<std::uint8_t>(
             scenario::CorridorEnvelopeKind::kRevocation);
         in[1][0].body = {0x01, 0x02};
       }},
      {"envelope of unknown kind 9", [](Inboxes& in) { in[1][0].kind = 9; }},
      {"migration of a vehicle outside the fleet",
       [&](Inboxes& in) { in[1][0].body = ghost.bytes(); }},
      {"envelope travelling two segments",
       [](Inboxes& in) {
         shard::Envelope& e = in[1][0];
         e.srcSegment = e.dstSegment + 2 < 4 ? e.dstSegment + 2
                                             : e.dstSegment - 2;
       }},
      {"seq 1 without seq 0", [](Inboxes& in) { in[1][0].seq = 1; }},
  };
  for (const Case& c : cases) {
    Inboxes inboxes = original;
    c.rewrite(inboxes);
    const common::Bytes blob = withExchange(writeExchange(inboxes));
    common::Status status;
    EXPECT_NO_THROW(status = restoreAndRun(blob)) << c.name;
    EXPECT_EQ(status.ok() ? std::string{"ok"} : status.error().code,
              "malformed")
        << c.name;
  }
}

TEST_F(HostileExchangeSectionTest, EverySingleBitFlipIsTypedOrRunsOn) {
  for (std::size_t bit = 0; bit < section_.size() * 8; ++bit) {
    common::Bytes flipped = section_;
    flipped[bit / 8] = static_cast<std::uint8_t>(flipped[bit / 8] ^
                                                 (1u << (bit % 8)));
    common::Status status;
    ASSERT_NO_THROW(status = restoreAndRun(withExchange(flipped)))
        << "byte " << bit / 8 << " bit " << bit % 8;
    if (!status.ok()) {
      EXPECT_EQ(status.error().code, "malformed")
          << "byte " << bit / 8 << " bit " << bit % 8;
    }
  }
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
  sim::ThreadPool pool{2};
  const scenario::CorridorConfig clean = tinyCorridor();
  constexpr std::uint32_t kEpochs = 6;

  scenario::CorridorWorld reference{clean, 1, pool};
  reference.run(kEpochs);
  const auto revocation = firstRevocation(reference.canonicalLog());
  ASSERT_TRUE(revocation.has_value())
      << "reference run produced no revocation gossip; extend kEpochs";

  // Kill the receiving segment's RSU from the revocation epoch onwards: the
  // envelope was emitted by a NEIGHBOUR, so it must still apply.
  scenario::CorridorConfig dark = clean;
  dark.rsuOutages.push_back(
      {revocation->segment, revocation->epoch, kEpochs});
  scenario::CorridorWorld degraded{dark, 1, pool};
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
