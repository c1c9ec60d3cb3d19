// Pins the sharding contracts: ShardPlan geometry, the canonical envelope
// merge order, detector session migration (extract/adopt, including the
// late-handoff merge), and — the headline — partition invariance of the
// megacity corridor: shards=1 and shards=N produce byte-identical metrics
// JSON and canonical logs. The same identity gates CI via the megacity
// smoke stage.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/lite_detector.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "scenario/corridor_world.hpp"
#include "shard/envelope.hpp"
#include "shard/sharded_sim.hpp"
#include "sim/thread_pool.hpp"

namespace blackdp {
namespace {

TEST(ShardPlanTest, ContiguousSplitCoversEverySegmentOnce) {
  const shard::ShardPlan plan = shard::ShardPlan::contiguous(10, 4);
  EXPECT_EQ(plan.segments(), 10u);
  EXPECT_EQ(plan.shards(), 4u);
  // 10 = 3 + 3 + 2 + 2: the first (segments % shards) regions get the
  // extra segment.
  EXPECT_EQ(plan.segmentCount(0), 3u);
  EXPECT_EQ(plan.segmentCount(1), 3u);
  EXPECT_EQ(plan.segmentCount(2), 2u);
  EXPECT_EQ(plan.segmentCount(3), 2u);
  std::uint32_t covered = 0;
  for (std::uint32_t s = 0; s < plan.shards(); ++s) {
    EXPECT_EQ(plan.firstSegment(s), covered);
    for (std::uint32_t i = 0; i < plan.segmentCount(s); ++i) {
      EXPECT_EQ(plan.shardOf(covered + i), s);
    }
    covered += plan.segmentCount(s);
  }
  EXPECT_EQ(covered, plan.segments());
}

TEST(ShardPlanTest, SinglePartitionOwnsEverything) {
  const shard::ShardPlan plan = shard::ShardPlan::contiguous(7, 1);
  EXPECT_EQ(plan.segmentCount(0), 7u);
  for (std::uint32_t s = 0; s < 7; ++s) EXPECT_EQ(plan.shardOf(s), 0u);
}

TEST(EnvelopeTest, CanonicalOrderIsSourceSegmentThenSeq) {
  const shard::Envelope a{1, 2, 0, 0, {}};
  const shard::Envelope b{1, 2, 1, 0, {}};
  const shard::Envelope c{2, 1, 0, 0, {}};
  EXPECT_TRUE(shard::canonicalLess(a, b));
  EXPECT_TRUE(shard::canonicalLess(b, c));
  EXPECT_FALSE(shard::canonicalLess(c, a));
}

/// Toy world: records the inbox it observes each epoch and emits a scripted
/// outbox, so the test can watch the barrier merge + route exactly.
class RecordingWorld final : public shard::ShardWorld {
 public:
  RecordingWorld(std::uint32_t firstSegment, std::uint32_t segmentCount)
      : firstSegment_{firstSegment}, segmentCount_{segmentCount} {}

  void runEpoch(std::uint32_t epoch, std::span<const shard::Envelope> inbox,
                std::vector<shard::Envelope>& outbox) override {
    inboxes_.emplace_back(inbox.begin(), inbox.end());
    if (epoch == 0) {
      // Emit toward the neighbouring region, out of seq order on purpose —
      // emission order per source segment must still be seq-ascending, so
      // seq follows emission; srcSegment interleaving is what the canonical
      // sort has to untangle.
      const std::uint32_t last = firstSegment_ + segmentCount_ - 1;
      const std::uint32_t dst = last + 1 < 4 ? last + 1 : last - 1;
      outbox.push_back({last, dst, 0, 7, {static_cast<std::uint8_t>(last)}});
      outbox.push_back({last, dst, 1, 7, {}});
    }
  }

  [[nodiscard]] const std::vector<std::vector<shard::Envelope>>& inboxes()
      const {
    return inboxes_;
  }

 private:
  std::uint32_t firstSegment_;
  std::uint32_t segmentCount_;
  std::vector<std::vector<shard::Envelope>> inboxes_;
};

TEST(ShardedSimulationTest, MergesAndRoutesEnvelopesInCanonicalOrder) {
  sim::ThreadPool pool{2};
  shard::ShardPlan plan = shard::ShardPlan::contiguous(4, 2);
  RecordingWorld low{0, 2};   // segments 0-1, emits 1 -> 2
  RecordingWorld high{2, 2};  // segments 2-3, emits 3 -> 2
  shard::ShardedSimulation sharded{plan, {&low, &high}, pool};
  sharded.runEpoch();
  sharded.runEpoch();

  EXPECT_EQ(sharded.stats().epochsRun, 2u);
  EXPECT_EQ(sharded.stats().envelopesExchanged, 4u);
  // Epoch 0 inboxes are empty; epoch 1: everything targets segment 2
  // (high shard), ordered src=1 seq=0, src=1 seq=1, src=3 seq=0, src=3
  // seq=1.
  ASSERT_EQ(low.inboxes().size(), 2u);
  ASSERT_EQ(high.inboxes().size(), 2u);
  EXPECT_TRUE(low.inboxes()[0].empty());
  EXPECT_TRUE(low.inboxes()[1].empty());
  EXPECT_TRUE(high.inboxes()[0].empty());
  const auto& arrived = high.inboxes()[1];
  ASSERT_EQ(arrived.size(), 4u);
  EXPECT_EQ(arrived[0].srcSegment, 1u);
  EXPECT_EQ(arrived[0].seq, 0u);
  EXPECT_EQ(arrived[1].srcSegment, 1u);
  EXPECT_EQ(arrived[1].seq, 1u);
  EXPECT_EQ(arrived[2].srcSegment, 3u);
  EXPECT_EQ(arrived[2].seq, 0u);
  EXPECT_EQ(arrived[3].srcSegment, 3u);
  EXPECT_EQ(arrived[3].seq, 1u);
}

/// Runs its epochs as told: `fails` makes runEpoch throw "shard <s>".
class ThrowingWorld final : public shard::ShardWorld {
 public:
  ThrowingWorld(std::uint32_t shard, bool fails)
      : shard_{shard}, fails_{fails} {}

  void runEpoch(std::uint32_t, std::span<const shard::Envelope>,
                std::vector<shard::Envelope>&) override {
    ++epochsRun_;
    if (fails_) throw std::runtime_error{"shard " + std::to_string(shard_)};
  }

  [[nodiscard]] std::uint32_t epochsRun() const { return epochsRun_; }

 private:
  std::uint32_t shard_;
  bool fails_;
  std::uint32_t epochsRun_{0};
};

TEST(ShardedSimulationTest, LowestShardExceptionWinsAfterEveryShardStops) {
  sim::ThreadPool pool{3};
  const shard::ShardPlan plan = shard::ShardPlan::contiguous(3, 3);
  ThrowingWorld healthy{0, false};
  ThrowingWorld low{1, true};
  ThrowingWorld high{2, true};
  shard::ShardedSimulation sharded{plan, {&healthy, &low, &high}, pool};
  obs::MemoryRecorder recorder;
  const obs::ScopedTraceRecorder scoped{&recorder};
  try {
    sharded.runEpoch();
    FAIL() << "expected shard 1's exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 1");
  }
  // Every shard ran its epoch; the suppressed failure of shard 2 is traced
  // on the coordinating thread; the failed epoch does not count.
  EXPECT_EQ(healthy.epochsRun(), 1u);
  EXPECT_EQ(low.epochsRun(), 1u);
  EXPECT_EQ(high.epochsRun(), 1u);
  ASSERT_EQ(recorder.size(), 1u);
  const obs::TraceEvent& traced = recorder.events().front();
  EXPECT_EQ(traced.kind, obs::EventKind::kParallel);
  EXPECT_EQ(traced.op,
            static_cast<std::uint8_t>(obs::ParallelOp::kWorkerFailure));
  EXPECT_EQ(traced.value, 2u);
  EXPECT_EQ(traced.detail, "shard 2");
  EXPECT_EQ(sharded.epoch(), 0u);
  EXPECT_EQ(sharded.stats().epochsRun, 0u);
}

// ------------------------------------------------- detector session moves

/// Hooks for a detector whose only suspect is always present: probes get a
/// fresh fake destination, verdicts land in `verdicts`.
struct DetectorProbe {
  core::LiteDetector detector;
  std::vector<std::pair<core::DetectionSession, core::Verdict>> verdicts;
  common::Address lastDestination{};
  std::uint32_t lastRreqId{0};

  DetectorProbe()
      : detector{{}, 1, core::LiteDetector::Hooks{
                            .present = [](common::Address) { return true; },
                            .sendProbe =
                                [this](core::DetectionSession& s,
                                       common::Address, std::uint32_t rreqId,
                                       bool fresh) {
                                  if (fresh) {
                                    s.fakeDestination =
                                        common::Address{0x3'0000'0000u + rreqId};
                                  }
                                  lastDestination = s.fakeDestination;
                                  lastRreqId = rreqId;
                                },
                            .armDeadline = {},
                            .roundDelay = {},
                            .forward = [](const core::DetectionSession&) {
                              return false;
                            },
                            .onEvent = {},
                            .onVerdict =
                                [this](core::DetectionSession& s,
                                       core::Verdict v) {
                                  verdicts.emplace_back(s, v);
                                }}} {}

  void reportAt(common::Address suspect, common::Address reporter,
                std::int64_t us) {
    const sim::TimePoint now = sim::TimePoint::fromUs(us);
    if (auto opened = detector.report(suspect, {reporter, {}}, now)) {
      detector.adopt(std::move(*opened), now);
    }
  }
  void replyFrom(common::Address replier, aodv::SeqNum destSeq) {
    aodv::RouteReply rrep;
    rrep.destination = lastDestination;
    rrep.rreqId = common::RreqId{lastRreqId};
    rrep.destSeq = destSeq;
    detector.onProbeReply(rrep, replier, sim::TimePoint::fromUs(6'000'000));
  }
};

TEST(LiteDetectorTest, ExtractAdoptRoundTripPreservesSessionState) {
  DetectorProbe src;
  const common::Address suspect{0x1'0000'002au};
  src.reportAt(suspect, common::Address{0x1'0000'0001u}, 1'234'567);
  src.replyFrom(suspect, 9);  // RREP₁: RREQ₂ is next

  const core::DetectionSession moved =
      core::LiteDetector::handedOff(src.detector.extract(suspect));
  EXPECT_EQ(src.detector.activeSessions(), 0u);
  EXPECT_EQ(moved.startedAt.us(), 1'234'567);
  EXPECT_EQ(moved.stage, core::ProbeStage::kRreq2);
  EXPECT_EQ(moved.rrep1Seq, 9u);
  EXPECT_EQ(moved.forwardCount, 1u);

  DetectorProbe dst;
  dst.detector.adopt(moved, sim::TimePoint::fromUs(2'000'000));
  EXPECT_EQ(dst.detector.activeSessions(), 1u);
  const core::DetectionSession* s = dst.detector.find(suspect);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->id, moved.id);
  EXPECT_EQ(s->reporters, moved.reporters);
  EXPECT_EQ(s->startedAt, moved.startedAt);
  EXPECT_EQ(s->forwardCount, moved.forwardCount);
  // The adopting RSU continues the ladder where it stopped: RREQ₂ with
  // sn + 1 over the carried RREP₁.
  EXPECT_EQ(s->stage, core::ProbeStage::kRreq2);
  EXPECT_EQ(s->rreq2Seq, 10u);
}

TEST(LiteDetectorTest, SerializeDeserializeRoundTrips) {
  core::DetectionSession s;
  s.id = common::DetectionSessionId{(3ull << 32) | 5};
  s.suspect = common::Address{0x1'0000'0123u};
  s.reporters = {{common::Address{0x1'0000'0456u}, common::ClusterId{2}},
                 {common::Address{0x1'0000'0457u}, common::ClusterId{3}}};
  s.stage = core::ProbeStage::kTeammate;
  s.rrep1Seq = 11;
  s.rreq2Seq = 12;
  s.accomplice = common::Address{0x1'0000'0789u};
  s.retriesLeft = 1;
  s.packets = 7;
  s.forwardCount = 2;
  s.hardened = true;
  s.round = 2;
  s.violations = 2;
  s.startedAt = sim::TimePoint::fromUs(9'876'543'210);
  s.probeStartedAt = sim::TimePoint::fromUs(9'876'600'000);
  s.disposable = common::Address{0xD15D15'0000'0001u};
  s.fakeDestination = common::Address{0xD15D15'0000'0002u};
  s.stageRreqIds = {4, 5};
  s.deadlineKind = core::DeadlineKind::kProbeTimeout;
  s.deadline = sim::TimePoint::fromUs(9'877'000'000);
  s.deadlineGen = 6;
  s.deadlineSeq = 99;
  common::ByteWriter w;
  s.serialize(w);
  common::ByteReader r{w.bytes()};
  EXPECT_EQ(core::DetectionSession::deserialize(r), s);
  EXPECT_TRUE(r.exhausted());
}

TEST(LiteDetectorTest, AdoptMergesWithAnExistingSession) {
  // A hand-off can arrive for a suspect this RSU already probes (local
  // reports re-opened a session after the suspect migrated here). The
  // adopted session merges: its reporters and packets join, the live
  // session keeps its clock and its place on the ladder (no restart), and
  // the merged session concludes once, answering both reporters.
  DetectorProbe merger;
  const common::Address suspect{0x1'0000'002au};
  const common::Address local{0x1'0000'0002u};
  const common::Address remote{0x1'0000'0001u};
  merger.reportAt(suspect, local, 5'000'000);
  merger.replyFrom(suspect, 9);  // RREQ₂ now outstanding
  const std::uint32_t rreq2Id = merger.lastRreqId;

  core::DetectionSession incoming;
  incoming.id = common::DetectionSessionId{(2ull << 32) | 1};
  incoming.suspect = suspect;
  incoming.reporters = {{remote, {}}};
  incoming.startedAt = sim::TimePoint::fromUs(1'000'000);
  incoming.packets = 3;
  incoming.forwardCount = 1;
  merger.detector.adopt(incoming, sim::TimePoint::fromUs(5'500'000));
  EXPECT_EQ(merger.detector.activeSessions(), 1u);
  EXPECT_EQ(merger.lastRreqId, rreq2Id) << "the merge restarted probing";

  merger.replyFrom(suspect, 200);  // RREP₂ newer than sn + 1: confirmed
  ASSERT_EQ(merger.verdicts.size(), 1u);
  const auto& [done, verdict] = merger.verdicts.front();
  EXPECT_EQ(verdict, core::Verdict::kSingleBlackHole);
  ASSERT_EQ(done.reporters.size(), 2u);
  EXPECT_EQ(done.reporters[0].address, local);
  EXPECT_EQ(done.reporters[1].address, remote);
  EXPECT_EQ(done.startedAt.us(), 5'000'000);
  EXPECT_EQ(merger.detector.activeSessions(), 0u);
}

// ----------------------------------------------------- partition invariance

scenario::CorridorConfig tinyCorridor() {
  scenario::CorridorConfig config;
  config.seed = 7;
  config.segments = 4;
  config.vehicles = 240;
  config.attackerPermille = 100;  // 10% black holes: detections in 4 epochs
  config.departPermille = 100;
  return config;
}

TEST(CorridorWorldTest, ShardCountIsUnobservable) {
  sim::ThreadPool pool{4};
  const scenario::CorridorConfig config = tinyCorridor();

  scenario::CorridorWorld mono{config, 1, pool};
  mono.run(4);
  scenario::CorridorWorld quad{config, 4, pool};
  quad.run(4);

  // Byte-identical: the partition must be unobservable on both
  // deterministic surfaces.
  EXPECT_EQ(mono.metricsJson(), quad.metricsJson());
  EXPECT_EQ(mono.canonicalLog(), quad.canonicalLog());
  EXPECT_EQ(mono.framesDelivered(), quad.framesDelivered());

  // The run must actually exercise the machinery it claims to pin.
  const std::string log = mono.canonicalLog();
  EXPECT_NE(log.find(" join"), std::string::npos);
  EXPECT_NE(log.find(" migrate-out"), std::string::npos);
  EXPECT_NE(log.find(" migrate-in"), std::string::npos);
  EXPECT_NE(log.find(" report"), std::string::npos);
  EXPECT_NE(log.find(" probe"), std::string::npos);
  EXPECT_NE(log.find(" verdict"), std::string::npos);
  EXPECT_GT(quad.shardStats().envelopesExchanged, 0u);
  EXPECT_EQ(mono.shardStats().envelopesExchanged,
            quad.shardStats().envelopesExchanged);

  // The barrier's integrity counters are part of the metrics surface, zero
  // on a healthy run; no recovery counter is, or a restored run could not
  // match an uninterrupted one.
  const obs::Snapshot snapshot = quad.metricsSnapshot();
  for (const char* name : {"shard.crc_rejects", "shard.epoch_violations",
                           "shard.seq_violations"}) {
    const auto it = snapshot.counters.find(name);
    ASSERT_NE(it, snapshot.counters.end()) << name;
    EXPECT_EQ(it->second, 0u) << name;
  }
  for (const auto& [name, value] : snapshot.counters) {
    (void)value;
    for (const char* recovery : {"restart", "replay", "recover", "restore"}) {
      EXPECT_EQ(name.find(recovery), std::string::npos) << name;
    }
  }
}

TEST(CorridorWorldTest, OddPartitionMatchesToo) {
  // 4 segments across 3 shards: uneven regions (2 + 1 + 1) must not leak
  // into the deterministic surfaces either.
  sim::ThreadPool pool{3};
  const scenario::CorridorConfig config = tinyCorridor();
  scenario::CorridorWorld mono{config, 1, pool};
  mono.run(3);
  scenario::CorridorWorld tri{config, 3, pool};
  tri.run(3);
  EXPECT_EQ(mono.metricsJson(), tri.metricsJson());
  EXPECT_EQ(mono.canonicalLog(), tri.canonicalLog());
}

TEST(CorridorWorldTest, CooperativePairIsCaughtOnOneAndThreeShards) {
  // The corridor runs the paper's ladder: RREQ₁, RREQ₂ with a next-hop
  // inquiry, then the named teammate. Both partitions must log the same
  // cooperative verdict, isolate both attackers, and no honest vehicle.
  sim::ThreadPool pool{3};
  const scenario::CorridorConfig config = tinyCorridor();
  scenario::CorridorWorld mono{config, 1, pool};
  mono.run(6);
  scenario::CorridorWorld tri{config, 3, pool};
  tri.run(6);
  EXPECT_EQ(mono.metricsJson(), tri.metricsJson());
  EXPECT_EQ(mono.canonicalLog(), tri.canonicalLog());

  const std::string cooperative =
      " b=" + std::to_string(static_cast<int>(
                  core::Verdict::kCooperativeBlackHole)) +
      " ";
  const std::string log = mono.canonicalLog();
  std::size_t verdicts = 0;
  for (std::size_t at = log.find(" verdict "); at != std::string::npos;
       at = log.find(" verdict ", at + 1)) {
    const std::size_t eol = log.find('\n', at);
    if (log.substr(at, eol - at).find(cooperative) != std::string::npos) {
      ++verdicts;
    }
  }
  EXPECT_GT(verdicts, 0u) << "no cooperative verdict in " << log;
  EXPECT_NE(mono.metricsJson().find("\"corridor.cooperative\""),
            std::string::npos);
  EXPECT_TRUE(mono.checkInvariants().empty());
}

TEST(CorridorWorldTest, VehicleSpecsArePureFunctionsOfSeed) {
  const scenario::CorridorConfig config = tinyCorridor();
  for (std::uint32_t id = 0; id < 16; ++id) {
    const scenario::VehicleSpec a = scenario::vehicleSpec(config, id);
    const scenario::VehicleSpec b = scenario::vehicleSpec(config, id);
    EXPECT_EQ(a.speedMps, b.speedMps);
    EXPECT_EQ(a.eastbound, b.eastbound);
    EXPECT_EQ(a.entryX, b.entryX);
    EXPECT_EQ(a.entryEpoch, b.entryEpoch);
    EXPECT_EQ(a.departEpoch, b.departEpoch);
    EXPECT_EQ(a.attacker, b.attacker);
    // Paper speeds: uniform 50-90 km/h.
    EXPECT_GE(a.speedMps, 50.0 / 3.6);
    EXPECT_LE(a.speedMps, 90.0 / 3.6);
  }
}

}  // namespace
}  // namespace blackdp
