#include "scenario/stream_world.hpp"

#include <algorithm>
#include <sstream>
#include <string>

#include "cluster/messages.hpp"
#include "common/assert.hpp"
#include "core/secure.hpp"
#include "obs/json.hpp"

namespace blackdp::scenario {
namespace {

// Node-id / address blocks disjoint from the TA's pseudonym counter (1000+),
// the detector's reserved probe range, and the invented-suspect range.
constexpr std::uint32_t kStreamRsuNodeIdBase = 600'000;
constexpr std::uint32_t kStreamDriverNodeIdBase = 500'000;
constexpr std::uint64_t kStreamRsuAddressBase = 100;
/// Invented suspects come from the plausible vehicle address space (the
/// same range hardened type-A probes draw from — nobody owns it).
constexpr std::uint64_t kUnknownSuspectBase = 0x10000000ull;
constexpr std::uint64_t kUnknownSuspectSpan = 0x0FFFFFFFull;

constexpr double kClusterLengthM = 1000.0;
constexpr double kHighwayWidthM = 200.0;
/// Below the 1000 m cluster spacing: clusters are radio-isolated, so
/// cross-cluster detection traffic travels the backbone only.
constexpr double kTransmissionRangeM = 400.0;

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

core::DetectorConfig streamDetectorDefaults() {
  core::DetectorConfig config;
  // Service mode: anti-evasion probing plus the accusation-channel defense
  // (rate limit, replay cache, demerits) — the stream is adversarial.
  config.hardening.enabled = true;
  // Every table the stream touches gets a bound: verification entries are
  // TTL-swept, completed records are capped, idle ledger entries evicted.
  config.sessionTtl = sim::Duration::seconds(5);
  config.completedCap = 256;
  config.hardening.ledger.entryTtl = sim::Duration::seconds(30);
  return config;
}

std::string_view toString(InjectionKind kind) {
  switch (kind) {
    case InjectionKind::kHonestAccusation: return "honest";
    case InjectionKind::kFalseAccusation: return "false-accusation";
    case InjectionKind::kReplayedDreq: return "replay";
    case InjectionKind::kBadSignature: return "bad-signature";
    case InjectionKind::kUnknownSuspect: return "unknown-suspect";
  }
  return "?";
}

// ----------------------------------------------------------- construction

StreamWorld::StreamWorld(StreamConfig config)
    : config_{config},
      seeds_{config.seed},
      highway_{static_cast<double>(config.clusters) * kClusterLengthM,
               kHighwayWidthM, kClusterLengthM} {
  BDP_ASSERT_MSG(config_.clusters >= 1, "stream world needs a cluster");
  BDP_ASSERT_MSG(config_.dreqsPerEpoch >= 1, "stream world needs traffic");
  BDP_ASSERT_MSG(config_.epochLength.us() >
                     static_cast<std::int64_t>(config_.dreqsPerEpoch),
                 "epoch too short for the injection slots");
  const StreamPopulation& pop = config_.population;
  BDP_ASSERT_MSG(pop.honestReporters >= 1 && pop.liarReporters >= 1 &&
                     pop.honestSuspects >= 1 && pop.blackHoles >= 1,
                 "every injection kind needs a non-empty pool");

  engine_ = std::make_unique<crypto::CryptoEngine>(seeds_.deriveSeed("crypto"));
  crypto::TaConfig taConfig;
  taConfig.certificateLifetime = config_.certificateLifetime;
  // Zero-latency world: all cascades complete within their own timestamp,
  // so an epoch boundary only ever has re-armable detector timers pending.
  taConfig.propagationDelay = sim::Duration{};
  taNetwork_ =
      std::make_unique<crypto::TaNetwork>(simulator_, *engine_, taConfig);
  net::MediumConfig mediumConfig;
  mediumConfig.transmissionRangeM = kTransmissionRangeM;
  mediumConfig.perHopLatency = sim::Duration{};
  mediumConfig.maxJitter = sim::Duration{};
  medium_ = std::make_unique<net::WirelessMedium>(
      simulator_, seeds_.stream("medium"), mediumConfig);
  backbone_ = std::make_unique<net::Backbone>(simulator_, sim::Duration{});
  buildWorld();
}

StreamWorld::~StreamWorld() = default;

void StreamWorld::buildWorld() {
  const common::TaId ta = taNetwork_->addAuthority();

  for (std::uint32_t c = 1; c <= config_.clusters; ++c) {
    auto world = std::make_unique<ClusterWorld>();
    world->id = common::ClusterId{c};
    const mobility::Position center = highway_.clusterCenter(world->id);

    world->rsuNode = std::make_unique<net::BasicNode>(
        simulator_, *medium_, common::NodeId{kStreamRsuNodeIdBase + c},
        mobility::LinearMotion::stationary(center));
    world->rsuNode->setLocalAddress(common::Address{kStreamRsuAddressBase + c});
    world->head = std::make_unique<cluster::ClusterHead>(
        simulator_, *world->rsuNode, *backbone_, highway_, world->id);
    taNetwork_->subscribeRevocations(
        [head = world->head.get()](const crypto::RevocationNotice& notice) {
          head->applyRevocation(notice);
        });

    core::DetectorConfig detectorConfig = config_.detector;
    if (detectorConfig.probeSeed == 0) {
      detectorConfig.probeSeed =
          seeds_.deriveSeed("stream-detector-" + std::to_string(c));
    }
    world->detector = std::make_unique<core::RsuDetector>(
        simulator_, *world->head, *taNetwork_, *engine_, detectorConfig);
    // One world-shared arm counter: timers armed by different detectors at
    // the same deadline keep their global FIFO order across a checkpoint.
    world->detector->shareArmSequence(&armSeq_);

    world->driver = std::make_unique<net::BasicNode>(
        simulator_, *medium_, common::NodeId{kStreamDriverNodeIdBase + c},
        mobility::LinearMotion::stationary(center));
    world->driver->addHandler(
        [this, cw = world.get()](const net::Frame& frame) {
          return onDriverFrame(*cw, frame);
        });

    clusters_.push_back(std::move(world));
  }

  // Enrollment in a fixed global order: the TA's pseudonym/serial counters
  // and the crypto engine's key-generation stream advance identically every
  // build, so a restored world reconstructs the exact same identities.
  std::uint32_t nextNodeId = 1;
  const StreamPopulation& pop = config_.population;
  for (const auto& world : clusters_) {
    auto fill = [&](std::vector<Member>& group, std::uint32_t count,
                    Role role) {
      for (std::uint32_t i = 0; i < count; ++i) {
        Member member = enrollMember(*world, ta, common::NodeId{nextNodeId++});
        world->roles.emplace(member.address, role);
        group.push_back(std::move(member));
      }
    };
    fill(world->honestReporters, pop.honestReporters, Role::kHonestReporter);
    fill(world->liarReporters, pop.liarReporters, Role::kLiarReporter);
    fill(world->honestSuspects, pop.honestSuspects, Role::kHonestSuspect);
    fill(world->blackHoles, pop.blackHoles, Role::kBlackHole);
    fill(world->accomplices, pop.accomplices, Role::kAccomplice);
  }

  // Every member joins its cluster head (broadcast JREQ; the zone owner
  // claims it). Zero latency: the join handshakes all land at t = 0.
  for (const auto& world : clusters_) {
    const mobility::Position center = highway_.clusterCenter(world->id);
    auto join = [&](const std::vector<Member>& group) {
      for (const Member& member : group) {
        auto jreq = net::makeMutablePayload<cluster::JoinRequest>();
        jreq->vehicle = member.address;
        jreq->position = center;
        jreq->speedMps = 0.0;
        jreq->direction = mobility::Direction::kEastbound;
        world->driver->sendFromAlias(member.address, common::kBroadcastAddress,
                                     jreq);
      }
    };
    join(world->honestReporters);
    join(world->liarReporters);
    join(world->honestSuspects);
    join(world->blackHoles);
    join(world->accomplices);
  }

  // Flush the t = 0 setup cascade so the world starts an epoch with an
  // empty queue — restoreCheckpoint() fast-forwards over this point and
  // must not skip live events.
  simulator_.run(sim::TimePoint::fromUs(0));

  const std::size_t expectedMembers = pop.honestReporters + pop.liarReporters +
                                      pop.honestSuspects + pop.blackHoles +
                                      pop.accomplices;
  for (const auto& cluster : clusters_) {
    BDP_ASSERT_MSG(cluster->head->memberCount() == expectedMembers,
                   "stream population failed to join its cluster head");
  }
}

StreamWorld::Member StreamWorld::enrollMember(ClusterWorld& cw,
                                              common::TaId ta,
                                              common::NodeId nodeId) {
  auto enrollment = taNetwork_->enroll(ta, nodeId);
  BDP_ASSERT_MSG(enrollment.ok(), "stream member enrollment failed");
  Member member;
  member.nodeId = nodeId;
  member.address = enrollment.value().certificate.pseudonym;
  member.creds = {enrollment.value().certificate,
                  enrollment.value().privateKey};
  cw.driver->addAlias(member.address);
  return member;
}

// -------------------------------------------------------------- the driver

bool StreamWorld::onDriverFrame(ClusterWorld& cw, const net::Frame& frame) {
  if (const auto* rreq = net::payloadAs<aodv::RouteRequest>(frame.payload)) {
    const auto role = cw.roles.find(frame.dst);
    if (role == cw.roles.end()) return false;
    switch (role->second) {
      case Role::kBlackHole:
        answerProbe(cw, *rreq, frame.dst, /*supportive=*/false);
        return true;
      case Role::kAccomplice:
        answerProbe(cw, *rreq, frame.dst, /*supportive=*/true);
        return true;
      default:
        // Honest members have nothing to reply with (unknown destination /
        // no fresher route) and TTL 1 forbids rebroadcast: silence.
        return true;
    }
  }
  if (const auto* resp =
          net::payloadAs<core::DetectionResponse>(frame.payload)) {
    if (!cw.roles.contains(frame.dst)) return false;
    const auto verdict = static_cast<std::uint8_t>(resp->verdict);
    BDP_ASSERT_MSG(verdict < 4, "verdict out of range");
    ++responsesByVerdict_[verdict];
    auto mix = [this](std::uint64_t v) {
      for (int shift = 56; shift >= 0; shift -= 8) {
        verdictHash_ ^= (v >> shift) & 0xFFu;
        verdictHash_ *= 1099511628211ull;
      }
    };
    mix(static_cast<std::uint64_t>(simulator_.now().us()));
    mix(resp->reporter.value());
    mix(resp->suspect.value());
    mix(verdict);
    mix(resp->accomplice.value());
    if (recordVerdicts_) {
      verdictTimeline_.push_back({simulator_.now().us(),
                                  resp->reporter.value(),
                                  resp->suspect.value(), verdict,
                                  resp->accomplice.value()});
    }
    return true;
  }
  if (net::payloadAs<cluster::JoinReply>(frame.payload)) return true;
  if (net::payloadAs<cluster::RevocationAnnouncement>(frame.payload)) {
    ++revocationAnnouncements_;
    return true;
  }
  return false;
}

void StreamWorld::answerProbe(ClusterWorld& cw, const aodv::RouteRequest& rreq,
                              common::Address probedAlias, bool supportive) {
  auto rrep = net::makeMutablePayload<aodv::RouteReply>();
  rrep->rreqId = rreq.rreqId;
  rrep->origin = rreq.origin;
  rrep->destination = rreq.destination;
  // The defining black-hole lie: always a fresher route than asked for.
  rrep->destSeq = rreq.unknownDestSeq ? aodv::SeqNum{50000} : rreq.destSeq + 1;
  rrep->hopCount = 1;
  rrep->replier = probedAlias;
  rrep->replierCluster = cw.id;
  if (!supportive && rreq.inquireNextHop && !cw.accomplices.empty()) {
    // Cooperative attack: the primary names its teammate, pinned by the
    // black hole's own index so the pairing is stable.
    std::size_t bhIndex = 0;
    for (std::size_t i = 0; i < cw.blackHoles.size(); ++i) {
      if (cw.blackHoles[i].address == probedAlias) bhIndex = i;
    }
    rrep->claimedNextHop =
        cw.accomplices[bhIndex % cw.accomplices.size()].address;
  }
  cw.driver->sendFromAlias(probedAlias, rreq.origin, std::move(rrep));
}

// --------------------------------------------------------------- the plan

std::vector<InjectionSpec> StreamWorld::planEpoch(std::uint64_t epoch) const {
  // Pure in (seed, epoch): the schedule never reads world state, so a
  // resumed run plans exactly what the uninterrupted run would have.
  sim::Rng rng{sim::deriveTrialSeed(seeds_.deriveSeed("stream-plan"), epoch)};
  std::vector<InjectionSpec> specs;
  specs.reserve(static_cast<std::size_t>(config_.clusters) *
                config_.dreqsPerEpoch);
  const std::int64_t slot =
      config_.epochLength.us() / (config_.dreqsPerEpoch + 1);
  for (std::uint32_t c = 1; c <= config_.clusters; ++c) {
    std::vector<std::size_t> honestSpecs;  // replay candidates, this cluster
    for (std::uint32_t i = 0; i < config_.dreqsPerEpoch; ++i) {
      InjectionSpec spec;
      spec.cluster = c;
      spec.offsetUs = slot * static_cast<std::int64_t>(i + 1);
      spec.reporterIndex =
          static_cast<std::uint32_t>(rng.uniformInt(0, 1'000'000));
      spec.targetIndex =
          static_cast<std::uint32_t>(rng.uniformInt(0, 1'000'000));
      spec.nonce = rng.nextU64();
      const std::int64_t roll = rng.uniformInt(0, 99);
      if (roll < 30) {
        spec.kind = InjectionKind::kHonestAccusation;
      } else if (roll < 50) {
        spec.kind = InjectionKind::kFalseAccusation;
      } else if (roll < 75) {
        if (honestSpecs.empty()) {
          spec.kind = InjectionKind::kHonestAccusation;
        } else {
          // Byte-identical duplicate of an earlier-in-epoch honest d_req
          // (deterministic signing ⇒ identical envelope): the replay cache
          // must reject it even though the signature verifies.
          const InjectionSpec& original =
              specs[honestSpecs[rng.index(honestSpecs.size())]];
          spec.kind = InjectionKind::kReplayedDreq;
          spec.reporterIndex = original.reporterIndex;
          spec.targetIndex = original.targetIndex;
          spec.nonce = original.nonce;
        }
      } else if (roll < 85) {
        spec.kind = InjectionKind::kBadSignature;
      } else {
        spec.kind = InjectionKind::kUnknownSuspect;
        spec.suspectAddr =
            kUnknownSuspectBase +
            static_cast<std::uint64_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(kUnknownSuspectSpan)));
        if (config_.clusters > 1) {
          // Claim the suspect lives in some *other* cluster: the d_req is
          // forwarded over the backbone and dies remotely as kUnreachable.
          std::uint32_t pick = static_cast<std::uint32_t>(
              1 + rng.index(config_.clusters - 1));
          if (pick >= c) ++pick;
          spec.targetCluster = pick;
        } else {
          spec.targetCluster = c;
        }
      }
      if (spec.kind == InjectionKind::kHonestAccusation) {
        honestSpecs.push_back(specs.size());
      }
      specs.push_back(spec);
    }
  }
  return specs;
}

void StreamWorld::injectFromSpec(const InjectionSpec& spec) {
  BDP_ASSERT_MSG(spec.cluster >= 1 && spec.cluster <= config_.clusters,
                 "injection spec names an unknown cluster");
  ClusterWorld& cw = *clusters_[spec.cluster - 1];
  const Member* reporter = nullptr;
  common::Address suspect{};
  common::ClusterId suspectCluster = cw.id;
  switch (spec.kind) {
    case InjectionKind::kHonestAccusation:
    case InjectionKind::kReplayedDreq:
    case InjectionKind::kBadSignature:
      reporter = &cw.honestReporters[spec.reporterIndex %
                                     cw.honestReporters.size()];
      suspect =
          cw.blackHoles[spec.targetIndex % cw.blackHoles.size()].address;
      break;
    case InjectionKind::kFalseAccusation:
      reporter =
          &cw.liarReporters[spec.reporterIndex % cw.liarReporters.size()];
      suspect =
          cw.honestSuspects[spec.targetIndex % cw.honestSuspects.size()]
              .address;
      break;
    case InjectionKind::kUnknownSuspect:
      reporter = &cw.honestReporters[spec.reporterIndex %
                                     cw.honestReporters.size()];
      suspect = common::Address{spec.suspectAddr};
      suspectCluster = common::ClusterId{spec.targetCluster};
      break;
  }
  BDP_ASSERT(reporter != nullptr);

  auto dreq = net::makeMutablePayload<core::DetectionRequest>();
  dreq->reporter = reporter->address;
  dreq->reporterCluster = cw.id;
  dreq->suspect = suspect;
  dreq->suspectCluster = suspectCluster;
  dreq->nonce = spec.nonce;
  dreq->envelope =
      core::makeEnvelope(dreq->canonicalBytes(), reporter->creds, *engine_);
  if (spec.kind == InjectionKind::kBadSignature) {
    dreq->envelope->signature.mac[0] ^= 0xFF;
  }
  cw.driver->sendFromAlias(reporter->address, cw.head->address(),
                           std::move(dreq));
  ++injectedByKind_[static_cast<std::size_t>(spec.kind)];
}

void StreamWorld::runEpoch() { runEpochInternal(planEpoch(nextEpoch_)); }

void StreamWorld::runEpochFromSpecs(const std::vector<InjectionSpec>& specs) {
  runEpochInternal(specs);
}

void StreamWorld::runEpochInternal(const std::vector<InjectionSpec>& specs) {
  const sim::TimePoint epochStart = sim::TimePoint::fromUs(
      static_cast<std::int64_t>(nextEpoch_) * config_.epochLength.us());
  const sim::TimePoint epochEnd = epochStart + config_.epochLength;
  BDP_ASSERT_MSG(simulator_.now() == epochStart,
                 "epoch must start at its boundary");
  for (const InjectionSpec& spec : specs) {
    BDP_ASSERT_MSG(
        spec.offsetUs > 0 && spec.offsetUs < config_.epochLength.us(),
        "injection offset outside its epoch");
    simulator_.scheduleAt(
        epochStart + sim::Duration::microseconds(spec.offsetUs),
        [this, spec] { injectFromSpec(spec); });
  }
  simulator_.run(epochEnd);
  // run() leaves the clock at the last executed event; pin it to the
  // boundary so state checkpointed here ages identically after a restore.
  simulator_.fastForward(epochEnd);
  ++nextEpoch_;
}

// ------------------------------------------------------------- checkpoint

std::uint64_t StreamWorld::configHash() const {
  common::ByteWriter w;
  w.writeU64(config_.seed);
  w.writeU32(config_.clusters);
  w.writeU32(config_.population.honestReporters);
  w.writeU32(config_.population.liarReporters);
  w.writeU32(config_.population.honestSuspects);
  w.writeU32(config_.population.blackHoles);
  w.writeU32(config_.population.accomplices);
  w.writeU32(config_.dreqsPerEpoch);
  w.writeI64(config_.epochLength.us());
  w.writeI64(config_.certificateLifetime.us());
  const core::DetectorConfig& d = config_.detector;
  w.writeI64(d.probeTimeout.us());
  w.writeI64(d.probeRetries);
  w.writeI64(d.stageRetries);
  w.writeU8(d.maxForwards);
  w.writeI64(d.sessionTtl.us());
  w.writeU64(d.probeSeed);
  w.writeBool(d.recordProbeIdentities);
  w.writeU64(d.completedCap);
  const core::DetectorHardening& h = d.hardening;
  w.writeBool(h.enabled);
  w.writeI64(h.probeRounds);
  w.writeI64(h.violationQuorum);
  w.writeI64(h.probeJitterMax.us());
  w.writeU32(h.inflatedSeq);
  w.writeU64(h.plausibleAddressLo);
  w.writeU64(h.plausibleAddressHi);
  const core::ReporterLedgerConfig& l = h.ledger;
  w.writeI64(l.demeritThreshold);
  w.writeU32(l.windowMax);
  w.writeI64(l.window.us());
  w.writeU64(l.nonceCacheMax);
  w.writeI64(l.entryTtl.us());
  return fnv1a(w.bytes());
}

common::Bytes StreamWorld::saveCheckpoint() {
  codec::CheckpointBuilder builder;
  {
    common::ByteWriter w;
    w.writeU64(configHash());
    w.writeU64(config_.seed);
    w.writeU64(nextEpoch_);
    w.writeI64(simulator_.now().us());
    builder.add(codec::CheckpointTag::kMeta, std::move(w).take());
  }
  {
    common::ByteWriter w;
    std::ostringstream state;
    state << medium_->rng().engine();
    w.writeString(state.str());
    builder.add(codec::CheckpointTag::kMedium, std::move(w).take());
  }
  {
    common::ByteWriter w;
    taNetwork_->saveState(w);
    builder.add(codec::CheckpointTag::kTa, std::move(w).take());
  }
  {
    common::ByteWriter w;
    w.writeU64(armSeq_);
    for (const std::uint64_t count : injectedByKind_) w.writeU64(count);
    for (const std::uint64_t count : responsesByVerdict_) w.writeU64(count);
    w.writeU64(verdictHash_);
    w.writeU64(revocationAnnouncements_);
    builder.add(codec::CheckpointTag::kStream, std::move(w).take());
  }
  for (const auto& cluster : clusters_) {
    common::ByteWriter w;
    w.writeU32(cluster->id.value());
    cluster->head->saveState(w);
    cluster->detector->saveState(w);
    builder.add(codec::CheckpointTag::kCluster, std::move(w).take());
  }
  return builder.finish();
}

common::Status StreamWorld::restoreCheckpoint(
    std::span<const std::uint8_t> blob) {
  BDP_ASSERT_MSG(nextEpoch_ == 0 && simulator_.now().us() == 0,
                 "restore requires a freshly built world");
  return codec::restoreGuarded(
      blob, codec::CheckpointTag::kMeta, configHash(), config_.seed,
      [this](const codec::Checkpoint& checkpoint,
             common::ByteReader& meta) -> common::Status {
        const std::uint64_t epoch = meta.readU64();
        const std::int64_t simNowUs = meta.readI64();
        codec::expectConsumed(meta, "meta");
        // Divide rather than multiply: a hostile epoch must not overflow on
        // its way to being rejected.
        const std::int64_t epochUs = config_.epochLength.us();
        if (simNowUs < 0 || simNowUs % epochUs != 0 ||
            static_cast<std::uint64_t>(simNowUs / epochUs) != epoch) {
          return common::Error{
              "malformed", "checkpoint clock is not at its epoch boundary"};
        }
        simulator_.fastForward(sim::TimePoint::fromUs(simNowUs));

        common::ByteReader r =
            checkpoint.section(codec::CheckpointTag::kMedium);
        std::istringstream state{r.readString()};
        state >> medium_->rng().engine();
        if (state.fail()) {
          return common::Error{"malformed", "medium RNG state unreadable"};
        }
        codec::expectConsumed(r, "medium");

        r = checkpoint.section(codec::CheckpointTag::kTa);
        taNetwork_->restoreState(r);
        codec::expectConsumed(r, "TA");

        r = checkpoint.section(codec::CheckpointTag::kStream);
        armSeq_ = r.readU64();
        for (std::uint64_t& count : injectedByKind_) count = r.readU64();
        for (std::uint64_t& count : responsesByVerdict_) count = r.readU64();
        verdictHash_ = r.readU64();
        revocationAnnouncements_ = r.readU64();
        codec::expectConsumed(r, "stream");

        const auto clusterSections =
            checkpoint.findAll(codec::CheckpointTag::kCluster);
        if (clusterSections.size() != clusters_.size()) {
          return common::Error{
              "malformed", "checkpoint cluster count differs from the world"};
        }
        std::vector<core::PendingTimer> rearm;
        for (std::size_t i = 0; i < clusters_.size(); ++i) {
          r = common::ByteReader{*clusterSections[i]};
          ClusterWorld& cluster = *clusters_[i];
          if (r.readU32() != cluster.id.value()) {
            return common::Error{"malformed", "cluster sections out of order"};
          }
          cluster.head->restoreState(r);
          cluster.detector->restoreState(r, rearm);
          codec::expectConsumed(r, "cluster");
        }

        // Reschedule every live detector timer in its original global arm
        // order: the simulator's FIFO tie-break then reproduces the
        // interrupted run's event order exactly.
        std::sort(rearm.begin(), rearm.end(),
                  [](const core::PendingTimer& a, const core::PendingTimer& b) {
                    return a.armSeq < b.armSeq;
                  });
        for (core::PendingTimer& timer : rearm) {
          simulator_.scheduleAt(timer.deadline, std::move(timer.fire));
        }
        nextEpoch_ = epoch;
        return common::Status::success();
      },
      [this] { return saveCheckpoint(); });
}

// ------------------------------------------------------ metrics/invariants

StreamMetrics StreamWorld::metrics() const {
  StreamMetrics m;
  m.epochsRun = nextEpoch_;
  for (std::size_t i = 0; i < kInjectionKinds; ++i) {
    m.injectedByKind[i] = injectedByKind_[i];
  }
  for (std::size_t i = 0; i < 4; ++i) {
    m.responsesByVerdict[i] = responsesByVerdict_[i];
  }
  m.verdictHash = verdictHash_;
  m.revocationAnnouncements = revocationAnnouncements_;
  for (const auto& cluster : clusters_) {
    const core::DetectorStats& s = cluster->detector->stats();
    m.dreqReceived += s.dreqReceived;
    m.dreqRejectedAuth += s.dreqRejectedAuth;
    m.dreqRateLimited += s.dreqRateLimited;
    m.dreqReplayed += s.dreqReplayed;
    m.dreqDeduplicated += s.dreqDeduplicated;
    m.probesSent += s.probesSent;
    m.confirmations += s.confirmations;
    m.isolations += s.isolations;
    m.exonerations += s.exonerations;
    m.expiredSessions += s.expiredSessions;
    m.completedEvicted += s.completedEvicted;
    m.ledgerEvictions += s.ledgerEvictions;
    m.completedTotal += cluster->detector->completedTotal();
    m.activeSessions += cluster->detector->activeSessions();
    m.trackedReporters += cluster->detector->reporterLedger().trackedReporters();
    m.noncesCached += cluster->detector->reporterLedger().noncesCached();
    m.completedRetained += cluster->detector->completedSessions().size();
  }
  m.pendingEvents = simulator_.pendingEvents();
  return m;
}

std::string StreamMetrics::toJson() const {
  std::string out = "{";
  auto field = [&out](std::string_view key, std::uint64_t value,
                      bool first = false) {
    if (!first) out += ",";
    obs::appendJsonString(out, key);
    out += ":";
    obs::appendJsonNumber(out, value);
  };
  field("epochs", epochsRun, /*first=*/true);
  field("injected_honest", injectedByKind[0]);
  field("injected_false_accusation", injectedByKind[1]);
  field("injected_replay", injectedByKind[2]);
  field("injected_bad_signature", injectedByKind[3]);
  field("injected_unknown_suspect", injectedByKind[4]);
  field("verdict_not_confirmed", responsesByVerdict[0]);
  field("verdict_single", responsesByVerdict[1]);
  field("verdict_cooperative", responsesByVerdict[2]);
  field("verdict_unreachable", responsesByVerdict[3]);
  field("verdict_hash", verdictHash);
  field("revocation_announcements", revocationAnnouncements);
  field("dreq_received", dreqReceived);
  field("dreq_rejected_auth", dreqRejectedAuth);
  field("dreq_rate_limited", dreqRateLimited);
  field("dreq_replayed", dreqReplayed);
  field("dreq_deduplicated", dreqDeduplicated);
  field("probes_sent", probesSent);
  field("confirmations", confirmations);
  field("isolations", isolations);
  field("exonerations", exonerations);
  field("expired_sessions", expiredSessions);
  field("completed_total", completedTotal);
  field("completed_evicted", completedEvicted);
  field("ledger_evictions", ledgerEvictions);
  field("active_sessions", activeSessions);
  field("tracked_reporters", trackedReporters);
  field("nonces_cached", noncesCached);
  field("completed_retained", completedRetained);
  // pendingEvents is deliberately NOT serialized: disarmed (generation-
  // mismatched) timer closures from before a checkpoint still sit in an
  // uninterrupted run's queue as no-ops but are not recreated on restore,
  // so the gauge may differ while every byte of detector state is equal.
  out += "}";
  return out;
}

std::vector<std::string> StreamWorld::checkInvariants() const {
  std::vector<std::string> violations;
  const StreamPopulation& pop = config_.population;
  const std::int64_t epochUs = config_.epochLength.us();
  const std::int64_t ttlUs = config_.detector.sessionTtl.us();
  const std::uint64_t ttlEpochs =
      ttlUs > 0 ? static_cast<std::uint64_t>((ttlUs + epochUs - 1) / epochUs)
                : 1;
  // A session can only be born from an injected d_req and lives at most
  // ttl + probe-campaign epochs; forwarded sessions add cross-cluster load,
  // so each detector is bounded by the *world's* per-epoch injection rate.
  const std::uint64_t sessionCap = static_cast<std::uint64_t>(
      config_.dreqsPerEpoch) * config_.clusters * (ttlEpochs + 2);
  const std::uint64_t reporterCap = pop.honestReporters + pop.liarReporters;
  std::uint64_t totalSessions = 0;

  for (const auto& cluster : clusters_) {
    const std::string where = "cluster " + std::to_string(cluster->id.value());
    const core::RsuDetector& detector = *cluster->detector;
    totalSessions += detector.activeSessions();
    if (detector.activeSessions() > sessionCap) {
      violations.push_back(
          where + ": verification table " +
          std::to_string(detector.activeSessions()) + " > cap " +
          std::to_string(sessionCap));
    }
    const std::size_t cap = config_.detector.completedCap;
    if (cap > 0 && detector.completedSessions().size() > cap) {
      violations.push_back(
          where + ": completed records " +
          std::to_string(detector.completedSessions().size()) + " > cap " +
          std::to_string(cap));
    }
    const core::ReporterLedger& ledger = detector.reporterLedger();
    if (ledger.trackedReporters() > reporterCap) {
      violations.push_back(where + ": ledger tracks " +
                           std::to_string(ledger.trackedReporters()) +
                           " reporters > population " +
                           std::to_string(reporterCap));
    }
    const std::uint64_t nonceCap =
        reporterCap * config_.detector.hardening.ledger.nonceCacheMax;
    if (ledger.noncesCached() > nonceCap) {
      violations.push_back(where + ": nonce cache " +
                           std::to_string(ledger.noncesCached()) + " > cap " +
                           std::to_string(nonceCap));
    }
  }

  // Timers are never cancelled, only generation-disarmed, so the queue
  // holds at most a couple of closures per session plus per-detector
  // sweeps and this epoch's injections.
  const std::uint64_t pendingCap =
      totalSessions * 2 + config_.clusters +
      static_cast<std::uint64_t>(config_.dreqsPerEpoch) * config_.clusters +
      64;
  if (simulator_.pendingEvents() > pendingCap) {
    violations.push_back("simulator queue " +
                         std::to_string(simulator_.pendingEvents()) +
                         " > cap " + std::to_string(pendingCap));
  }
  return violations;
}

const core::RsuDetector& StreamWorld::detector(std::uint32_t cluster) const {
  BDP_ASSERT(cluster >= 1 && cluster <= clusters_.size());
  return *clusters_[cluster - 1]->detector;
}

// ------------------------------------------------------------- trace JSONL

void appendInjectionJson(std::string& out, std::uint64_t epoch,
                         const InjectionSpec& spec) {
  out += "{\"epoch\":";
  obs::appendJsonNumber(out, epoch);
  out += ",\"cluster\":";
  obs::appendJsonNumber(out, static_cast<std::uint64_t>(spec.cluster));
  out += ",\"offset_us\":";
  obs::appendJsonNumber(out, spec.offsetUs);
  out += ",\"kind\":";
  obs::appendJsonNumber(out, static_cast<std::uint64_t>(spec.kind));
  out += ",\"reporter\":";
  obs::appendJsonNumber(out, static_cast<std::uint64_t>(spec.reporterIndex));
  out += ",\"target\":";
  obs::appendJsonNumber(out, static_cast<std::uint64_t>(spec.targetIndex));
  out += ",\"suspect_addr\":";
  obs::appendJsonNumber(out, spec.suspectAddr);
  out += ",\"target_cluster\":";
  obs::appendJsonNumber(out, static_cast<std::uint64_t>(spec.targetCluster));
  out += ",\"nonce\":";
  obs::appendJsonNumber(out, spec.nonce);
  out += "}";
}

std::optional<std::pair<std::uint64_t, InjectionSpec>> parseInjectionJson(
    std::string_view line) {
  const auto object = obs::FlatJsonObject::parse(line);
  if (!object) return std::nullopt;
  const auto epoch = object->u64("epoch");
  const auto cluster = object->u64("cluster");
  const auto offsetUs = object->i64("offset_us");
  const auto kind = object->u64("kind");
  const auto reporter = object->u64("reporter");
  const auto target = object->u64("target");
  const auto suspectAddr = object->u64("suspect_addr");
  const auto targetCluster = object->u64("target_cluster");
  const auto nonce = object->u64("nonce");
  if (!epoch || !cluster || !offsetUs || !kind || !reporter || !target ||
      !suspectAddr || !targetCluster || !nonce) {
    return std::nullopt;
  }
  if (*kind >= kInjectionKinds) return std::nullopt;
  InjectionSpec spec;
  spec.cluster = static_cast<std::uint32_t>(*cluster);
  spec.offsetUs = *offsetUs;
  spec.kind = static_cast<InjectionKind>(*kind);
  spec.reporterIndex = static_cast<std::uint32_t>(*reporter);
  spec.targetIndex = static_cast<std::uint32_t>(*target);
  spec.suspectAddr = *suspectAddr;
  spec.targetCluster = static_cast<std::uint32_t>(*targetCluster);
  spec.nonce = *nonce;
  return std::make_pair(*epoch, spec);
}

}  // namespace blackdp::scenario
