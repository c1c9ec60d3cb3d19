#include "core/rsu_detector.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace blackdp::core {

namespace {
constexpr std::string_view kLog = "detector";

void traceDetector(sim::Simulator& simulator, cluster::ClusterHead& ch,
                   obs::DetectorOp op, common::DetectionSessionId session,
                   common::Address suspect, common::Address other = {},
                   std::uint64_t value = 0, std::string detail = {}) {
  if (auto* tr = obs::Trace::active()) {
    tr->record({simulator.now().us(), obs::EventKind::kDetector,
                static_cast<std::uint8_t>(op), ch.node().id().value(),
                ch.clusterId().value(), suspect.value(), other.value(),
                session.value(), value, std::move(detail)});
  }
}

void traceTable(sim::Simulator& simulator, cluster::ClusterHead& ch,
                obs::ChTableOp op, common::DetectionSessionId session,
                common::Address suspect) {
  if (auto* tr = obs::Trace::active()) {
    tr->record({simulator.now().us(), obs::EventKind::kChTable,
                static_cast<std::uint8_t>(op), ch.node().id().value(),
                ch.clusterId().value(), suspect.value(), 0, session.value()});
  }
}

/// Disposable identities and fake destinations live in a reserved address
/// range far above the TA's pseudonym counter, so they can never collide
/// with a real node.
constexpr std::uint64_t kProbeAddressBase = 0xD15D15ull << 32;

}  // namespace

RsuDetector::RsuDetector(sim::Simulator& simulator,
                         cluster::ClusterHead& clusterHead,
                         crypto::TaNetwork& taNetwork,
                         const crypto::CryptoEngine& engine,
                         DetectorConfig config)
    : simulator_{simulator},
      ch_{clusterHead},
      taNetwork_{taNetwork},
      engine_{engine},
      ledger_{config.hardening.ledger},
      probeRng_{config.probeSeed},
      core_{config, clusterHead.clusterId().value(),
            LiteDetector::Hooks{
                .present = [this](common::Address a) { return ch_.isMember(a); },
                .sendProbe = std::bind_front(&RsuDetector::sendProbe, this),
                .armDeadline = std::bind_front(&RsuDetector::armDeadline, this),
                .roundDelay = std::bind_front(&RsuDetector::roundDelay, this),
                .forward = std::bind_front(&RsuDetector::forward, this),
                .onEvent = std::bind_front(&RsuDetector::onEvent, this),
                .onVerdict = std::bind_front(&RsuDetector::finishSession, this)}} {
  ch_.setFrameHook([this](const net::Frame& frame) { return onFrame(frame); });
  ch_.setBackboneHook(
      [this](common::ClusterId from, const net::PayloadPtr& payload) {
        onBackbone(from, payload);
      });
  ch_.setBackboneFailureHook(
      [this](common::ClusterId to, const net::PayloadPtr& payload) {
        onBackboneSendFailed(to, payload);
      });
}

common::Address RsuDetector::allocProbeAddress() {
  return common::Address{kProbeAddressBase |
                         (static_cast<std::uint64_t>(ch_.clusterId().value())
                          << 24) |
                         nextProbeAddress_++};
}

// ------------------------------------------------------------------ intake

bool RsuDetector::onFrame(const net::Frame& frame) {
  if (const auto* dreq = net::payloadAs<DetectionRequest>(frame.payload)) {
    handleDreq(*dreq);
    return true;
  }
  if (const auto* rrep = net::payloadAs<aodv::RouteReply>(frame.payload)) {
    core_.onProbeReply(*rrep, frame.src, simulator_.now());
    return true;
  }
  return false;
}

void RsuDetector::onBackbone(common::ClusterId from,
                             const net::PayloadPtr& payload) {
  (void)from;
  if (const auto* fwd = net::payloadAs<ForwardedDetection>(payload)) {
    ++stats_.sessionsAdopted;
    adoptForwarded(*fwd, /*degraded=*/false);
    return;
  }
  if (const auto* result = net::payloadAs<DetectionResult>(payload)) {
    relayResult(*result);
    return;
  }
}

void RsuDetector::onBackboneSendFailed(common::ClusterId to,
                                       const net::PayloadPtr& payload) {
  (void)to;
  if (const auto* fwd = net::payloadAs<ForwardedDetection>(payload)) {
    // The target CH is dead or unreachable: re-adopt the session and probe
    // from here over the air (one cluster is within radio range of this
    // RSU). forwardCount is pinned at the cap so a failed probe terminates
    // as kUnreachable instead of bouncing the session around a dead region.
    ++stats_.forwardsFailed;
    adoptForwarded(*fwd, /*degraded=*/true);
    return;
  }
  if (const auto* result = net::payloadAs<DetectionResult>(payload)) {
    // The reporter's CH is dead: best-effort verdict delivery over the air
    // (the reporter may still be within this RSU's radio range).
    ++stats_.resultRelaysFailed;
    relayResult(*result);
    return;
  }
}

void RsuDetector::adoptForwarded(const ForwardedDetection& fwd,
                                 bool degraded) {
  // The session a backbone forward carries (LiteDetector::handedOff's form).
  DetectionSession session;
  session.id = fwd.session;
  session.suspect = fwd.suspect;
  session.reporters.push_back({fwd.reporter, fwd.reporterCluster});
  session.stage = static_cast<ProbeStage>(fwd.stage);
  session.rrep1Seq = fwd.lastSeenSeq;
  session.packets = fwd.packetsSoFar;
  session.forwardCount =
      degraded ? core_.config().maxForwards : fwd.forwardCount;
  session.degraded = degraded;
  session.startedAt = fwd.startedAt;
  traceDetector(simulator_, ch_,
                degraded ? obs::DetectorOp::kAdoptedDegraded
                         : obs::DetectorOp::kSessionAdopted,
                session.id, session.suspect, fwd.reporter,
                static_cast<std::uint64_t>(session.stage));
  core_.adopt(std::move(session), simulator_.now());
}

void RsuDetector::handleDreq(const DetectionRequest& dreq) {
  ++stats_.dreqReceived;

  // RSUs only act on reports from authenticated, non-revoked members
  // (otherwise attackers could use fake reports to disconnect legitimate
  // nodes — the weakness of voting schemes the paper avoids).
  const EnvelopeCheck check = verifyEnvelope(
      dreq.canonicalBytes(), dreq.envelope, dreq.reporter, taNetwork_, engine_,
      simulator_.now(), &ch_.revocations());
  if (!check.ok) {
    ++stats_.dreqRejectedAuth;
    traceDetector(simulator_, ch_, obs::DetectorOp::kDreqRejected, {},
                  dreq.suspect, dreq.reporter, 0, std::string{check.reason});
    BDP_LOG(kDebug, kLog) << "d_req rejected: " << check.reason;
    return;
  }

  // Accusation-channel defense (hardened only): the d_req passed signature
  // verification, but a compromised-yet-certified reporter can still flood
  // forged accusations or replay captured ones. Quarantined-liar and
  // rate-limit rejections share one counter; replays get their own.
  if (core_.config().hardening.enabled) {
    if (ledger_.isQuarantined(dreq.reporter)) {
      ++stats_.dreqRateLimited;
      traceDetector(simulator_, ch_, obs::DetectorOp::kDreqRateLimited, {},
                    dreq.suspect, dreq.reporter, 0, "reporter-quarantined");
      return;
    }
    if (!ledger_.admitNonce(dreq.reporter, dreq.nonce, simulator_.now())) {
      ++stats_.dreqReplayed;
      traceDetector(simulator_, ch_, obs::DetectorOp::kDreqReplayed, {},
                    dreq.suspect, dreq.reporter, dreq.nonce);
      return;
    }
    if (!ledger_.admitAccusation(dreq.reporter, simulator_.now())) {
      ++stats_.dreqRateLimited;
      traceDetector(simulator_, ch_, obs::DetectorOp::kDreqRateLimited, {},
                    dreq.suspect, dreq.reporter, 0, "over-rate");
      return;
    }
  }

  std::optional<DetectionSession> opened = core_.report(
      dreq.suspect, {dreq.reporter, dreq.reporterCluster}, simulator_.now());
  if (!opened) return;  // merged into the live session
  traceDetector(simulator_, ch_, obs::DetectorOp::kDreqReceived, opened->id,
                opened->suspect, dreq.reporter);

  if (!ch_.isMember(dreq.suspect) && dreq.suspectCluster != ch_.clusterId() &&
      dreq.suspectCluster.value() != 0) {
    // The reporter says the suspect lives in another cluster: hand over.
    forwardSession(*opened, dreq.suspectCluster);
    return;
  }
  core_.adopt(std::move(*opened), simulator_.now());
}

// ----------------------------------------------------------- core hooks

common::Address RsuDetector::pickRealDestination(
    const DetectionSession& session) {
  // The reporter is the strongest candidate: the suspect answered its route
  // discovery, so the reporter is certainly in the suspect's overheard
  // neighborhood — a selective evader cannot claim ignorance of it.
  for (const SessionReporter& reporter : session.reporters) {
    if (reporter.address != session.suspect &&
        reporter.address != common::kNullAddress) {
      return reporter.address;
    }
  }
  std::vector<common::Address> candidates;
  for (const common::Address member : ch_.members()) {
    if (member != session.suspect) candidates.push_back(member);
  }
  if (candidates.empty()) return common::kNullAddress;
  return candidates[probeRng_.index(candidates.size())];
}

void RsuDetector::sendProbe(DetectionSession& session, common::Address target,
                            std::uint32_t rreqId, bool freshIdentity) {
  if (!session.hardened || session.stage != ProbeStage::kRreq1) {
    if (freshIdentity) {
      if (session.disposable != common::kNullAddress) {
        ch_.node().removeAlias(session.disposable);
      }
      session.disposable = allocProbeAddress();
      session.fakeDestination = allocProbeAddress();
      ch_.node().addAlias(session.disposable);
      if (core_.config().recordProbeIdentities) {
        probeIdentityLog_.push_back(
            {session.disposable, session.fakeDestination});
      }
    }
    ++stats_.probesSent;
    traceDetector(simulator_, ch_, obs::DetectorOp::kProbeSent, session.id,
                  session.suspect, target,
                  static_cast<std::uint64_t>(session.stage));
    ch_.node().sendFromAlias(session.disposable, target,
                             probeRequest(session, rreqId));
    return;
  }
  // A hardened round: fresh disposable identity, so the suspect can never
  // correlate rounds, and identities are single-use by construction.
  const DetectorHardening& hardening = core_.config().hardening;
  ch_.node().removeAlias(session.disposable);
  session.disposable = allocProbeAddress();
  ch_.node().addAlias(session.disposable);
  common::Address destination = common::kNullAddress;
  if (session.round % 2 == 0) destination = pickRealDestination(session);
  const bool typeB = destination != common::kNullAddress;
  if (!typeB) {
    // Type A: invented destination from the plausible vehicle address
    // space; unknown sequence number, like a genuine first discovery.
    destination = common::Address{static_cast<std::uint64_t>(
        probeRng_.uniformInt(
            static_cast<std::int64_t>(hardening.plausibleAddressLo),
            static_cast<std::int64_t>(hardening.plausibleAddressHi)))};
  }
  session.fakeDestination = destination;
  auto rreq = probeRequest(session, rreqId);
  if (typeB) {
    // Type B: a destination the suspect has plausibly overheard, with a
    // sequence number no honest cache can match — only a forger replies.
    rreq->destSeq = hardening.inflatedSeq;
    rreq->unknownDestSeq = false;
    rreq->inquireNextHop = true;
  }
  if (core_.config().recordProbeIdentities) {
    probeIdentityLog_.push_back({session.disposable, destination});
  }
  ++stats_.probesSent;
  traceDetector(simulator_, ch_, obs::DetectorOp::kProbeSent, session.id,
                session.suspect, target,
                static_cast<std::uint64_t>(session.round));
  ch_.node().sendFromAlias(session.disposable, target, std::move(rreq));
}

sim::Duration RsuDetector::roundDelay() {
  return sim::Duration::microseconds(probeRng_.uniformInt(
      0, core_.config().hardening.probeJitterMax.us()));
}

void RsuDetector::armDeadline(DetectionSession& session) {
  session.deadlineSeq = ++*armSeqCounter_;
  simulator_.scheduleAt(session.deadline, [this, suspect = session.suspect,
                                           gen = session.deadlineGen] {
    core_.onDeadline(suspect, gen, simulator_.now());
  });
}

bool RsuDetector::forward(const DetectionSession& session) {
  if (session.disposable != common::kNullAddress) {
    ch_.node().removeAlias(session.disposable);
  }
  const auto next = guessNextCluster(session.suspect);
  if (!next) return false;
  forwardSession(session, *next);
  return true;
}

void RsuDetector::onEvent(const DetectionSession& session, SessionEvent event,
                          common::Address other) {
  switch (event) {
    case SessionEvent::kOpened:
      traceDetector(simulator_, ch_, obs::DetectorOp::kSessionOpened,
                    session.id, session.suspect,
                    session.reporters.empty()
                        ? common::Address{}
                        : session.reporters.front().address);
      traceTable(simulator_, ch_, obs::ChTableOp::kVerificationInsert,
                 session.id, session.suspect);
      armSweep();
      return;
    case SessionEvent::kReportMerged:
      ++stats_.dreqDeduplicated;
      traceDetector(simulator_, ch_, obs::DetectorOp::kDreqDeduplicated,
                    session.id, session.suspect, other);
      traceTable(simulator_, ch_, obs::ChTableOp::kVerificationMerge,
                 session.id, session.suspect);
      return;
    case SessionEvent::kSessionMerged:
      traceTable(simulator_, ch_, obs::ChTableOp::kVerificationMerge,
                 session.id, session.suspect);
      return;
    case SessionEvent::kProbeReply:
      traceDetector(simulator_, ch_, obs::DetectorOp::kProbeReply, session.id,
                    session.suspect, other,
                    static_cast<std::uint64_t>(session.stage));
      return;
    case SessionEvent::kViolation:
      ++stats_.probeViolations;
      traceDetector(simulator_, ch_, obs::DetectorOp::kProbeViolation,
                    session.id, session.suspect, other,
                    static_cast<std::uint64_t>(session.round));
      return;
    case SessionEvent::kConfirmed:
      ++stats_.confirmations;
      return;
    case SessionEvent::kProbeTimeout:
      traceDetector(simulator_, ch_, obs::DetectorOp::kProbeTimeout,
                    session.id, session.suspect, {},
                    static_cast<std::uint64_t>(session.stage));
      return;
    case SessionEvent::kExonerated:
      exonerateReporters(session);
      return;
    case SessionEvent::kExpired:
      ++stats_.expiredSessions;
      traceTable(simulator_, ch_, obs::ChTableOp::kVerificationExpired,
                 session.id, session.suspect);
      return;
  }
}

void RsuDetector::exonerateReporters(const DetectionSession& session) {
  ++stats_.exonerations;
  traceDetector(simulator_, ch_, obs::DetectorOp::kExonerated, session.id,
                session.suspect, {},
                static_cast<std::uint64_t>(session.round));
  for (const SessionReporter& reporter : session.reporters) {
    const bool crossed = ledger_.demerit(reporter.address);
    ++stats_.reporterDemerits;
    traceDetector(simulator_, ch_, obs::DetectorOp::kReporterDemerited,
                  session.id, session.suspect, reporter.address,
                  static_cast<std::uint64_t>(
                      ledger_.demeritScore(reporter.address)));
    if (crossed) {
      // The accuser is a systematic liar: quarantine it through the TA
      // exactly like a confirmed black hole.
      ++stats_.reportersQuarantined;
      traceDetector(simulator_, ch_, obs::DetectorOp::kReporterQuarantined,
                    session.id, session.suspect, reporter.address);
      taNetwork_.reportMisbehaviour(reporter.address);
    }
  }
}

// ---------------------------------------------------------------- forwards

std::optional<common::ClusterId> RsuDetector::guessNextCluster(
    common::Address suspect) const {
  const auto record = ch_.historyRecord(suspect);
  if (!record) return std::nullopt;
  return ch_.zones().neighborToward(ch_.clusterId(), record->direction);
}

void RsuDetector::forwardSession(const DetectionSession& session,
                                 common::ClusterId target) {
  ++stats_.sessionsForwarded;
  // A disposable identity is assigned iff the session sat in this CH's
  // verification table (mid-probe flee handover): record the table erase.
  if (session.disposable != common::kNullAddress) {
    traceTable(simulator_, ch_, obs::ChTableOp::kVerificationErase, session.id,
               session.suspect);
  }
  const DetectionSession moved = LiteDetector::handedOff(session);
  traceDetector(simulator_, ch_, obs::DetectorOp::kSessionForwarded,
                moved.id, moved.suspect, moved.reporters.front().address,
                target.value());
  auto fwd = net::makeMutablePayload<ForwardedDetection>();
  fwd->session = moved.id;
  fwd->reporter = moved.reporters.front().address;
  fwd->reporterCluster = moved.reporters.front().cluster;
  fwd->suspect = moved.suspect;
  fwd->stage = static_cast<std::uint8_t>(moved.stage);
  fwd->lastSeenSeq = moved.rrep1Seq;
  fwd->packetsSoFar = moved.packets;
  fwd->forwardCount = moved.forwardCount;
  fwd->startedAt = moved.startedAt;
  ch_.sendOnBackbone(target, std::move(fwd));
}

// ---------------------------------------------------------------- verdicts

void RsuDetector::finishSession(DetectionSession& session, Verdict verdict) {
  ch_.node().removeAlias(session.disposable);
  if (session.disposable != common::kNullAddress) {
    traceTable(simulator_, ch_, obs::ChTableOp::kVerificationErase, session.id,
               session.suspect);
  }
  traceDetector(simulator_, ch_, obs::DetectorOp::kVerdict, session.id,
                session.suspect, session.accomplice,
                static_cast<std::uint64_t>(verdict),
                std::string{toString(verdict)});

  std::optional<sim::TimePoint> isolatedAt;
  if (verdict == Verdict::kSingleBlackHole ||
      verdict == Verdict::kCooperativeBlackHole) {
    isolate(session, verdict);
    isolatedAt = simulator_.now();
    if (session.hardened) {
      // Confirmed accusations buy back reporter reputation.
      for (const SessionReporter& reporter : session.reporters) {
        ledger_.credit(reporter.address);
      }
    }
  }

  // Answer every reporter; account for the packets each answer costs.
  for (const SessionReporter& reporter : session.reporters) {
    if (reporter.cluster == ch_.clusterId() || reporter.cluster.value() == 0) {
      auto response = net::makeMutablePayload<DetectionResponse>();
      response->reporter = reporter.address;
      response->suspect = session.suspect;
      response->verdict = verdict;
      response->accomplice = session.accomplice;
      session.packets += 1;  // the over-the-air response
      ch_.node().sendTo(reporter.address, std::move(response));
    } else {
      auto result = net::makeMutablePayload<DetectionResult>();
      result->session = session.id;
      result->reporter = reporter.address;
      result->suspect = session.suspect;
      result->verdict = verdict;
      result->accomplice = session.accomplice;
      // Backbone relay + the peer CH's over-the-air response.
      session.packets += 2;
      result->packetsUsed = session.packets;
      ch_.sendOnBackbone(reporter.cluster, std::move(result));
    }
  }

  SessionRecord record;
  record.id = session.id;
  record.suspect = session.suspect;
  record.reporter = session.reporters.empty()
                        ? common::kNullAddress
                        : session.reporters.front().address;
  record.verdict = verdict;
  record.accomplice = verdict == Verdict::kCooperativeBlackHole
                          ? session.accomplice
                          : common::kNullAddress;
  record.packetsUsed = session.packets;
  record.startedAt = session.startedAt;
  record.endedAt = simulator_.now();
  record.probeStartedAt = session.probeStartedAt;
  record.isolatedAt = isolatedAt;
  completed_.push_back(std::move(record));
  ++completedTotal_;
  const std::size_t cap = core_.config().completedCap;
  if (cap > 0 && completed_.size() > cap) {
    const std::size_t excess = completed_.size() - cap;
    completed_.erase(completed_.begin(),
                     completed_.begin() + static_cast<std::ptrdiff_t>(excess));
    stats_.completedEvicted += excess;
  }
}

void RsuDetector::isolate(const DetectionSession& session, Verdict verdict) {
  // Certificate revocation request to the trusted authority; the TA pauses
  // pseudonym renewal and pushes revocation notices to every subscribed CH
  // (which blacklist, announce to members, and inform newly joined
  // vehicles via JREP).
  ++stats_.isolations;
  traceDetector(simulator_, ch_, obs::DetectorOp::kIsolated, session.id,
                session.suspect,
                verdict == Verdict::kCooperativeBlackHole ? session.accomplice
                                                          : common::Address{});
  taNetwork_.reportMisbehaviour(session.suspect);
  if (verdict == Verdict::kCooperativeBlackHole &&
      session.accomplice != common::kNullAddress) {
    taNetwork_.reportMisbehaviour(session.accomplice);
  }
}

// ------------------------------------------------------- TTL sweep & relay

void RsuDetector::armSweep() {
  // Lazy: the sweep timer exists only while the verification table is
  // non-empty, so an idle detector never keeps Simulator::run() alive.
  const sim::Duration ttl = core_.config().sessionTtl;
  if (ttl.us() <= 0 || sweepArmed_ || core_.activeSessions() == 0) return;
  sweepArmed_ = true;
  sweepDeadline_ = simulator_.now() + ttl;
  sweepArmSeq_ = ++*armSeqCounter_;
  simulator_.schedule(ttl, [this] { onSweep(); });
}

void RsuDetector::onSweep() {
  sweepArmed_ = false;
  const sim::TimePoint now = simulator_.now();
  // The idle-ledger TTL rides the same timer: one sweep bounds both tables.
  stats_.ledgerEvictions += ledger_.evictIdle(now);
  core_.expire(now);
  armSweep();
}

void RsuDetector::relayResult(const DetectionResult& result) {
  traceDetector(simulator_, ch_, obs::DetectorOp::kResultRelayed,
                result.session, result.suspect, result.reporter);
  auto response = net::makeMutablePayload<DetectionResponse>();
  response->reporter = result.reporter;
  response->suspect = result.suspect;
  response->verdict = result.verdict;
  response->accomplice = result.accomplice;
  ch_.node().sendTo(result.reporter, std::move(response));
}

// ----------------------------------------------------- checkpoint / restore

void RsuDetector::shareArmSequence(std::uint64_t* counter) {
  armSeqCounter_ = counter != nullptr ? counter : &armSeqLocal_;
}

namespace {

/// Every DetectorStats counter, in checkpoint order.
constexpr std::uint64_t DetectorStats::*kCheckpointedStats[] = {
    &DetectorStats::dreqReceived,       &DetectorStats::dreqRejectedAuth,
    &DetectorStats::dreqDeduplicated,   &DetectorStats::sessionsAdopted,
    &DetectorStats::sessionsForwarded,  &DetectorStats::probesSent,
    &DetectorStats::confirmations,      &DetectorStats::isolations,
    &DetectorStats::forwardsFailed,     &DetectorStats::resultRelaysFailed,
    &DetectorStats::dreqRateLimited,    &DetectorStats::dreqReplayed,
    &DetectorStats::probeViolations,    &DetectorStats::exonerations,
    &DetectorStats::reporterDemerits,   &DetectorStats::reportersQuarantined,
    &DetectorStats::expiredSessions,    &DetectorStats::completedEvicted,
    &DetectorStats::ledgerEvictions};

void writeRecord(common::ByteWriter& w, const SessionRecord& rec) {
  w.writeId(rec.id);
  w.writeId(rec.suspect);
  w.writeId(rec.reporter);
  w.writeU8(static_cast<std::uint8_t>(rec.verdict));
  w.writeId(rec.accomplice);
  w.writeU32(rec.packetsUsed);
  w.writeI64(rec.startedAt.us());
  w.writeI64(rec.endedAt.us());
  writeOptionalTime(w, rec.probeStartedAt);
  writeOptionalTime(w, rec.isolatedAt);
}

SessionRecord readRecord(common::ByteReader& r) {
  SessionRecord rec;
  rec.id = r.readId<common::DetectionSessionId>();
  rec.suspect = r.readId<common::Address>();
  rec.reporter = r.readId<common::Address>();
  rec.verdict = static_cast<Verdict>(r.readU8());
  rec.accomplice = r.readId<common::Address>();
  rec.packetsUsed = r.readU32();
  rec.startedAt = sim::TimePoint::fromUs(r.readI64());
  rec.endedAt = sim::TimePoint::fromUs(r.readI64());
  rec.probeStartedAt = readOptionalTime(r);
  rec.isolatedAt = readOptionalTime(r);
  return rec;
}

}  // namespace

void RsuDetector::saveState(common::ByteWriter& w) const {
  for (const auto field : kCheckpointedStats) w.writeU64(stats_.*field);

  w.writeU64(completedTotal_);
  w.writeU32(static_cast<std::uint32_t>(completed_.size()));
  for (const SessionRecord& rec : completed_) writeRecord(w, rec);

  w.writeU64(nextProbeAddress_);
  w.writeU64(armSeqLocal_);

  // mt19937_64's stream operators are the only portable way to round-trip
  // its 2.5 KB of internal state; the textual form is deterministic.
  std::ostringstream rng;
  rng << probeRng_.engine();
  w.writeString(rng.str());

  ledger_.saveState(w);

  w.writeBool(sweepArmed_);
  w.writeI64(sweepDeadline_.us());
  w.writeU64(sweepArmSeq_);

  core_.saveState(w);

  w.writeU32(static_cast<std::uint32_t>(probeIdentityLog_.size()));
  for (const ProbeIdentity& pi : probeIdentityLog_) {
    w.writeId(pi.disposable);
    w.writeId(pi.destination);
  }
}

void RsuDetector::restoreState(common::ByteReader& r,
                               std::vector<PendingTimer>& rearm) {
  for (const auto field : kCheckpointedStats) stats_.*field = r.readU64();

  completedTotal_ = r.readU64();
  completed_.clear();
  // Every reserve sized by a wire count is capped by the bytes left: a
  // hostile count must fail on its first underrun, not allocate first.
  const std::uint32_t recordCount = r.readU32();
  completed_.reserve(std::min<std::size_t>(recordCount, r.remaining()));
  for (std::uint32_t i = 0; i < recordCount; ++i) {
    completed_.push_back(readRecord(r));
  }

  nextProbeAddress_ = r.readU64();
  armSeqLocal_ = r.readU64();

  std::istringstream rng{r.readString()};
  rng >> probeRng_.engine();
  BDP_ASSERT_MSG(!rng.fail(), "corrupt probe RNG state in checkpoint");

  ledger_.restoreState(r);

  sweepArmed_ = r.readBool();
  sweepDeadline_ = sim::TimePoint::fromUs(r.readI64());
  sweepArmSeq_ = r.readU64();
  if (sweepArmed_) {
    rearm.push_back({sweepArmSeq_, sweepDeadline_, [this] { onSweep(); }});
  }

  core_.restoreState(r);
  core_.forEachSession([&](const DetectionSession& s) {
    // The fresh world's CH node has no probe aliases yet; rebind so the
    // suspect's replies still reach this detector.
    if (s.disposable != common::kNullAddress) {
      ch_.node().addAlias(s.disposable);
    }
    // A session without a live deadline (a reply disarmed it) ends only
    // through the TTL sweep — exactly as in the uninterrupted run.
    if (s.deadlineKind != DeadlineKind::kNone) {
      rearm.push_back({s.deadlineSeq, s.deadline,
                       [this, suspect = s.suspect, gen = s.deadlineGen] {
                         core_.onDeadline(suspect, gen, simulator_.now());
                       }});
    }
  });

  probeIdentityLog_.clear();
  const std::uint32_t logCount = r.readU32();
  probeIdentityLog_.reserve(std::min<std::size_t>(logCount, r.remaining()));
  for (std::uint32_t i = 0; i < logCount; ++i) {
    ProbeIdentity pi;
    pi.disposable = r.readId<common::Address>();
    pi.destination = r.readId<common::Address>();
    probeIdentityLog_.push_back(pi);
  }
}

}  // namespace blackdp::core
