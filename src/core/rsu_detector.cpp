#include "core/rsu_detector.hpp"

#include <algorithm>
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
      config_{config},
      ledger_{config.hardening.ledger},
      probeRng_{config.probeSeed} {
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
    handleProbeReply(*rrep, frame);
    return true;
  }
  return false;
}

void RsuDetector::onBackbone(common::ClusterId from,
                             const net::PayloadPtr& payload) {
  (void)from;
  if (const auto* fwd = net::payloadAs<ForwardedDetection>(payload)) {
    adoptForwarded(*fwd);
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
    Session session;
    session.id = fwd->session;
    session.suspect = fwd->suspect;
    session.reporters.push_back({fwd->reporter, fwd->reporterCluster});
    session.stage = fwd->stage;
    session.rrep1Seq = fwd->lastSeenSeq;
    session.packets = fwd->packetsSoFar;
    session.forwardCount = config_.maxForwards;
    session.degraded = true;
    session.retriesLeft =
        fwd->stage == 0 ? config_.probeRetries : config_.stageRetries;
    session.startedAt = fwd->startedAt;
    traceDetector(simulator_, ch_, obs::DetectorOp::kAdoptedDegraded,
                  session.id, session.suspect, fwd->reporter,
                  static_cast<std::uint64_t>(session.stage));
    beginProbing(std::move(session));
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
  if (config_.hardening.enabled) {
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

  // Verification-table dedup: concurrent reports against one suspect merge.
  if (Session* merged = active_.find(dreq.suspect)) {
    ++stats_.dreqDeduplicated;
    merged->reporters.push_back({dreq.reporter, dreq.reporterCluster});
    merged->packets += 1;  // the received d_req
    traceDetector(simulator_, ch_, obs::DetectorOp::kDreqDeduplicated,
                  merged->id, dreq.suspect, dreq.reporter);
    traceTable(simulator_, ch_, obs::ChTableOp::kVerificationMerge,
               merged->id, dreq.suspect);
    return;
  }

  Session session;
  session.id = common::DetectionSessionId{
      (static_cast<std::uint64_t>(ch_.clusterId().value()) << 32) |
      nextSessionLocal_++};
  session.suspect = dreq.suspect;
  session.reporters.push_back({dreq.reporter, dreq.reporterCluster});
  session.packets = 1;  // the received d_req
  session.retriesLeft = config_.probeRetries;
  session.startedAt = simulator_.now();
  traceDetector(simulator_, ch_, obs::DetectorOp::kDreqReceived, session.id,
                session.suspect, dreq.reporter);

  if (!ch_.isMember(dreq.suspect) && dreq.suspectCluster != ch_.clusterId() &&
      dreq.suspectCluster.value() != 0) {
    // The reporter says the suspect lives in another cluster: hand over.
    forwardSession(std::move(session), dreq.suspectCluster);
    return;
  }
  placeSession(std::move(session));
}

void RsuDetector::adoptForwarded(const ForwardedDetection& fwd) {
  ++stats_.sessionsAdopted;
  Session session;
  session.id = fwd.session;
  session.suspect = fwd.suspect;
  session.reporters.push_back({fwd.reporter, fwd.reporterCluster});
  session.stage = fwd.stage;
  session.rrep1Seq = fwd.lastSeenSeq;
  session.packets = fwd.packetsSoFar;
  session.forwardCount = fwd.forwardCount;
  session.retriesLeft =
      fwd.stage == 0 ? config_.probeRetries : config_.stageRetries;
  session.startedAt = fwd.startedAt;
  traceDetector(simulator_, ch_, obs::DetectorOp::kSessionAdopted, session.id,
                session.suspect, fwd.reporter,
                static_cast<std::uint64_t>(session.stage));
  placeSession(std::move(session));
}

void RsuDetector::placeSession(Session session) {
  if (ch_.isMember(session.suspect)) {
    beginProbing(std::move(session));
    return;
  }
  // Not (or no longer) here: chase via the history table, bounded.
  if (session.forwardCount < config_.maxForwards) {
    if (const auto next = guessNextCluster(session.suspect)) {
      forwardSession(std::move(session), *next);
      return;
    }
  }
  finishSession(std::move(session), Verdict::kUnreachable);
}

std::optional<common::ClusterId> RsuDetector::guessNextCluster(
    common::Address suspect) const {
  const auto record = ch_.historyRecord(suspect);
  if (!record) return std::nullopt;
  return ch_.zones().neighborToward(ch_.clusterId(), record->direction);
}

void RsuDetector::forwardSession(Session session, common::ClusterId target) {
  ++stats_.sessionsForwarded;
  BDP_ASSERT(!session.reporters.empty());
  // A disposable identity is assigned iff the session sat in this CH's
  // verification table (mid-probe flee handover): record the table erase.
  if (session.disposable != common::kNullAddress) {
    traceTable(simulator_, ch_, obs::ChTableOp::kVerificationErase, session.id,
               session.suspect);
  }
  traceDetector(simulator_, ch_, obs::DetectorOp::kSessionForwarded,
                session.id, session.suspect,
                session.reporters.front().address, target.value());
  auto fwd = net::makeMutablePayload<ForwardedDetection>();
  fwd->session = session.id;
  fwd->reporter = session.reporters.front().address;
  fwd->reporterCluster = session.reporters.front().cluster;
  fwd->suspect = session.suspect;
  fwd->stage = static_cast<std::uint8_t>(session.stage == 1 ? 1 : 0);
  fwd->lastSeenSeq = session.rrep1Seq;
  fwd->packetsSoFar = session.packets + 1;  // this forward counts
  fwd->forwardCount = static_cast<std::uint8_t>(session.forwardCount + 1);
  fwd->startedAt = session.startedAt;
  ch_.sendOnBackbone(target, std::move(fwd));
}

// ----------------------------------------------------------------- probing

void RsuDetector::beginProbing(Session session) {
  // A disposable identity makes the RSU look like a normal vehicle to the
  // suspect (§III-B1); a fresh fake destination guarantees no honest node
  // can have a route.
  // A session for this suspect may already be running here (e.g. a second
  // CH forwarded its own report while ours is active): merge, don't restart.
  if (Session* existing = active_.find(session.suspect)) {
    auto& reporters = existing->reporters;
    reporters.insert(reporters.end(), session.reporters.begin(),
                     session.reporters.end());
    existing->packets += session.packets;
    traceTable(simulator_, ch_, obs::ChTableOp::kVerificationMerge,
               existing->id, session.suspect);
    return;
  }

  // Hardened campaigns only start from stage 0; a mid-probe handover
  // (stage 1) continues with the naive ladder so the probe-state transfer
  // semantics stay exactly the paper's.
  session.hardened = config_.hardening.enabled && session.stage == 0;
  if (!session.hardened) {
    session.disposable = allocProbeAddress();
    session.fakeDestination = allocProbeAddress();
    ch_.node().addAlias(session.disposable);
    if (config_.recordProbeIdentities) {
      probeIdentityLog_.push_back({session.disposable, session.fakeDestination});
    }
  }

  const common::Address suspect = session.suspect;
  BDP_ASSERT_MSG(!active_.contains(suspect),
                 "duplicate active session for suspect");
  Session& placed = active_[suspect];
  placed = std::move(session);
  traceDetector(simulator_, ch_, obs::DetectorOp::kSessionOpened, placed.id,
                suspect,
                placed.reporters.empty() ? common::Address{}
                                         : placed.reporters.front().address);
  traceTable(simulator_, ch_, obs::ChTableOp::kVerificationInsert, placed.id,
             suspect);
  armSweep();
  if (placed.hardened) {
    scheduleHardenedRound(placed);
    return;
  }
  sendProbe(suspect, placed);
}

// Hardened campaign ------------------------------------------------------

void RsuDetector::scheduleHardenedRound(Session& session) {
  const std::uint32_t gen = ++session.timerGen;
  const auto jitter = sim::Duration::microseconds(
      probeRng_.uniformInt(0, config_.hardening.probeJitterMax.us()));
  session.timerKind = 2;
  session.timerDeadline = simulator_.now() + jitter;
  session.timerArmSeq = ++*armSeqCounter_;
  simulator_.schedule(jitter, [this, suspect = session.suspect, gen] {
    Session* live = active_.find(suspect);
    if (live == nullptr || live->timerGen != gen) return;
    live->timerKind = 0;
    sendHardenedProbe(*live);
  });
}

common::Address RsuDetector::pickRealDestination(const Session& session) {
  // The reporter is the strongest candidate: the suspect answered its route
  // discovery, so the reporter is certainly in the suspect's overheard
  // neighborhood — a selective evader cannot claim ignorance of it.
  for (const Reporter& reporter : session.reporters) {
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

void RsuDetector::sendHardenedProbe(Session& session) {
  // Fresh disposable identity and destination every round: the suspect can
  // never correlate rounds, and identities are single-use by construction.
  ch_.node().removeAlias(session.disposable);
  session.disposable = allocProbeAddress();
  ch_.node().addAlias(session.disposable);

  auto rreq = net::makeMutablePayload<aodv::RouteRequest>();
  rreq->rreqId = common::RreqId{nextProbeRreqId_++};
  session.stageRreqIds.clear();  // one countable reply per round
  session.stageRreqIds.push_back(rreq->rreqId.value());
  rreq->origin = session.disposable;
  rreq->originSeq = 1;
  rreq->ttl = 1;

  common::Address destination = common::kNullAddress;
  if (session.round % 2 == 0) destination = pickRealDestination(session);
  if (destination != common::kNullAddress) {
    // Type B: a destination the suspect has plausibly overheard, with a
    // sequence number no honest cache can match — only a forger replies.
    rreq->destSeq = config_.hardening.inflatedSeq;
    rreq->unknownDestSeq = false;
    rreq->inquireNextHop = true;
  } else {
    // Type A: invented destination from the plausible vehicle address
    // space; unknown sequence number, like a genuine first discovery.
    destination = common::Address{static_cast<std::uint64_t>(probeRng_.uniformInt(
        static_cast<std::int64_t>(config_.hardening.plausibleAddressLo),
        static_cast<std::int64_t>(config_.hardening.plausibleAddressHi)))};
    rreq->destSeq = 0;
    rreq->unknownDestSeq = true;
  }
  session.fakeDestination = destination;
  rreq->destination = destination;
  if (config_.recordProbeIdentities) {
    probeIdentityLog_.push_back({session.disposable, destination});
  }

  ++stats_.probesSent;
  session.packets += 1;
  if (!session.probeStartedAt) session.probeStartedAt = simulator_.now();
  traceDetector(simulator_, ch_, obs::DetectorOp::kProbeSent, session.id,
                session.suspect, session.suspect,
                static_cast<std::uint64_t>(session.round));
  ch_.node().sendFromAlias(session.disposable, session.suspect,
                           std::move(rreq));
  armTimer(session);
}

void RsuDetector::exonerateReporters(const Session& session) {
  ++stats_.exonerations;
  traceDetector(simulator_, ch_, obs::DetectorOp::kExonerated, session.id,
                session.suspect, {},
                static_cast<std::uint64_t>(session.round));
  for (const Reporter& reporter : session.reporters) {
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

void RsuDetector::sendProbe(common::Address target, Session& session) {
  auto rreq = net::makeMutablePayload<aodv::RouteRequest>();
  rreq->rreqId = common::RreqId{nextProbeRreqId_++};
  session.stageRreqIds.push_back(rreq->rreqId.value());
  rreq->origin = session.disposable;
  rreq->originSeq = 1;
  rreq->destination = session.fakeDestination;
  rreq->ttl = 1;  // probe must not propagate past the suspect

  if (session.stage == 1) {
    // RREQ₂: one above RREP₁'s sequence number + next-hop inquiry. An honest
    // node cannot know a fresher route to a destination that does not exist.
    session.rreq2Seq = session.rrep1Seq + 1;
    rreq->destSeq = session.rreq2Seq;
    rreq->unknownDestSeq = false;
    rreq->inquireNextHop = true;
  } else {
    rreq->destSeq = 0;
    rreq->unknownDestSeq = true;
  }

  ++stats_.probesSent;
  session.packets += 1;
  if (!session.probeStartedAt) session.probeStartedAt = simulator_.now();
  traceDetector(simulator_, ch_, obs::DetectorOp::kProbeSent, session.id,
                session.suspect, target,
                static_cast<std::uint64_t>(session.stage));
  ch_.node().sendFromAlias(session.disposable, target, std::move(rreq));
  armTimer(session);
}

void RsuDetector::armTimer(Session& session) {
  const std::uint32_t gen = ++session.timerGen;
  session.timerKind = 1;
  session.timerDeadline = simulator_.now() + config_.probeTimeout;
  session.timerArmSeq = ++*armSeqCounter_;
  simulator_.schedule(config_.probeTimeout,
                      [this, suspect = session.suspect, gen] {
                        onProbeTimeout(suspect, gen);
                      });
}

void RsuDetector::onProbeTimeout(common::Address suspect, std::uint32_t gen) {
  Session* live = active_.find(suspect);
  if (live == nullptr || live->timerGen != gen) return;
  Session& session = *live;
  session.timerKind = 0;  // this timer is being consumed
  traceDetector(simulator_, ch_, obs::DetectorOp::kProbeTimeout, session.id,
                session.suspect, {},
                static_cast<std::uint64_t>(session.stage));

  if (session.stage == 2) {
    if (session.retriesLeft > 0) {
      --session.retriesLeft;
      sendProbe(session.accomplice, session);
      return;
    }
    // Teammate stayed silent: the primary attacker is still confirmed.
    Session done = std::move(session);
    active_.erase(suspect);
    done.accomplice = common::kNullAddress;
    finishSession(std::move(done), Verdict::kSingleBlackHole);
    return;
  }

  if (!ch_.isMember(suspect) && !session.degraded) {
    // The suspect moved on mid-probe (flee scenario): hand the session,
    // including probe state, to the next cluster head. Hardened campaigns
    // forward at stage 0 (the next CH restarts its own campaign).
    Session moved = std::move(session);
    active_.erase(suspect);
    ch_.node().removeAlias(moved.disposable);
    if (moved.forwardCount < config_.maxForwards) {
      if (const auto next = guessNextCluster(suspect)) {
        forwardSession(std::move(moved), *next);
        return;
      }
    }
    finishSession(std::move(moved), Verdict::kUnreachable);
    return;
  }

  if (session.hardened) {
    // A silent round: no violation. Rounds are the redundancy mechanism, so
    // there are no per-round retries — move straight to the next round.
    ++session.round;
    if (session.round < config_.hardening.probeRounds) {
      scheduleHardenedRound(session);
      return;
    }
    Session done = std::move(session);
    active_.erase(suspect);
    if (done.violations == 0) {
      // Full campaign, zero violations: the accusation was baseless.
      exonerateReporters(done);
    }
    finishSession(std::move(done), Verdict::kNotConfirmed);
    return;
  }

  // Retry budget: stage 0 uses probeRetries (seed behaviour); stages 1/2
  // use stageRetries, reset on every stage advance.
  if (session.retriesLeft > 0) {
    --session.retriesLeft;
    sendProbe(suspect, session);
    return;
  }

  // Silence under probing: no AODV violation observed. The suspect behaved
  // legitimately (or evaded); BlackDP prevents the attack but does not
  // confirm it.
  Session done = std::move(session);
  active_.erase(suspect);
  finishSession(std::move(done), Verdict::kNotConfirmed);
}

void RsuDetector::handleProbeReply(const aodv::RouteReply& rrep,
                                   const net::Frame& frame) {
  // Match the reply against the current stage's probe generation (original
  // or any retransmission); replies to an earlier stage's probes no longer
  // match — their ids were cleared on the stage advance.
  Session* match = nullptr;
  active_.forEach([&](common::Address, Session& s) {
    if (match == nullptr && s.fakeDestination == rrep.destination &&
        std::find(s.stageRreqIds.begin(), s.stageRreqIds.end(),
                  rrep.rreqId.value()) != s.stageRreqIds.end()) {
      match = &s;
    }
  });
  if (match == nullptr) return;
  Session& session = *match;
  const common::Address suspectKey = session.suspect;
  session.packets += 1;
  ++session.timerGen;  // disarm the pending timeout
  session.timerKind = 0;
  traceDetector(simulator_, ch_, obs::DetectorOp::kProbeReply, session.id,
                session.suspect, frame.src,
                static_cast<std::uint64_t>(session.stage));

  if (session.hardened && session.stage == 0) {
    // Only the suspect can incriminate itself: a third party answering the
    // (unicast) probe — e.g. an accusation flooder trying to frame the
    // suspect — is ignored outright.
    if (frame.src != session.suspect) return;
    session.stageRreqIds.clear();  // duplicates of this round don't recount
    ++session.violations;
    ++stats_.probeViolations;
    traceDetector(simulator_, ch_, obs::DetectorOp::kProbeViolation,
                  session.id, session.suspect, frame.src,
                  static_cast<std::uint64_t>(session.round));
    if (rrep.claimedNextHop != common::kNullAddress &&
        rrep.claimedNextHop != session.suspect) {
      session.accomplice = rrep.claimedNextHop;
    }
    if (session.violations >= config_.hardening.violationQuorum) {
      ++stats_.confirmations;
      if (session.accomplice != common::kNullAddress) {
        // Teammate probe must use a destination that does not exist: with a
        // real one, an honest "teammate" holding a genuine route could be
        // framed by replying legitimately. It also gets its own disposable
        // identity — identities stay single-use even across the stage-2
        // escalation, so the accomplice can't link it to earlier rounds.
        ch_.node().removeAlias(session.disposable);
        session.disposable = allocProbeAddress();
        ch_.node().addAlias(session.disposable);
        session.fakeDestination = allocProbeAddress();
        session.stage = 2;
        session.stageRreqIds.clear();
        session.retriesLeft = config_.stageRetries;
        if (config_.recordProbeIdentities) {
          probeIdentityLog_.push_back(
              {session.disposable, session.fakeDestination});
        }
        sendProbe(session.accomplice, session);
        return;
      }
      Session done = std::move(session);
      active_.erase(suspectKey);
      finishSession(std::move(done), Verdict::kSingleBlackHole);
      return;
    }
    ++session.round;
    if (session.round < config_.hardening.probeRounds) {
      scheduleHardenedRound(session);
      return;
    }
    // Rounds exhausted below quorum: suspicious but unconfirmed. The
    // reporters are *not* demerited — the suspect did violate.
    Session done = std::move(session);
    active_.erase(suspectKey);
    finishSession(std::move(done), Verdict::kNotConfirmed);
    return;
  }

  switch (session.stage) {
    case 0: {
      // RREP₁ for a non-existent destination: first violation. Confirm with
      // RREQ₂ — unless the suspect has just left, in which case the next CH
      // completes the detection (paper's 8-packet scenario).
      session.rrep1Seq = rrep.destSeq;
      session.stage = 1;
      session.stageRreqIds.clear();
      session.retriesLeft = config_.stageRetries;
      if (!ch_.isMember(session.suspect) && !session.degraded) {
        Session moved = std::move(session);
        active_.erase(suspectKey);
        ch_.node().removeAlias(moved.disposable);
        if (moved.forwardCount < config_.maxForwards) {
          if (const auto next = guessNextCluster(moved.suspect)) {
            forwardSession(std::move(moved), *next);
            return;
          }
        }
        finishSession(std::move(moved), Verdict::kUnreachable);
        return;
      }
      sendProbe(session.suspect, session);
      return;
    }
    case 1: {
      // RREP₂: confirmed iff it claims a sequence number above RREQ₂'s —
      // an impossible claim ("a node must not send a RREP if it does not
      // have a higher SN than the received RREQ").
      const bool violation = aodv::seqNewer(rrep.destSeq, session.rreq2Seq);
      if (!violation) {
        Session done = std::move(session);
        active_.erase(suspectKey);
        finishSession(std::move(done), Verdict::kNotConfirmed);
        return;
      }
      ++stats_.confirmations;
      if (rrep.claimedNextHop != common::kNullAddress &&
          rrep.claimedNextHop != session.suspect) {
        // The suspect named a teammate: probe it the same way (§III-B1).
        session.accomplice = rrep.claimedNextHop;
        session.stage = 2;
        session.stageRreqIds.clear();
        session.retriesLeft = config_.stageRetries;
        sendProbe(session.accomplice, session);
        return;
      }
      Session done = std::move(session);
      active_.erase(suspectKey);
      finishSession(std::move(done), Verdict::kSingleBlackHole);
      return;
    }
    case 2: {
      // Teammate answered a route request for the fake destination: it
      // supports the primary attacker's claim — cooperative attack.
      if (frame.src != session.accomplice) return;
      Session done = std::move(session);
      active_.erase(suspectKey);
      finishSession(std::move(done), Verdict::kCooperativeBlackHole);
      return;
    }
    default:
      BDP_ASSERT_MSG(false, "invalid probe stage");
  }
}

// ---------------------------------------------------------------- verdicts

void RsuDetector::finishSession(Session session, Verdict verdict) {
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
      for (const Reporter& reporter : session.reporters) {
        ledger_.credit(reporter.address);
      }
    }
  }

  // Answer every reporter; account for the packets each answer costs.
  for (const Reporter& reporter : session.reporters) {
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
  if (config_.completedCap > 0 && completed_.size() > config_.completedCap) {
    const std::size_t excess = completed_.size() - config_.completedCap;
    completed_.erase(completed_.begin(),
                     completed_.begin() + static_cast<std::ptrdiff_t>(excess));
    stats_.completedEvicted += excess;
  }
}

void RsuDetector::isolate(const Session& session, Verdict verdict) {
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
  if (config_.sessionTtl.us() <= 0 || sweepArmed_ || active_.empty()) return;
  sweepArmed_ = true;
  sweepDeadline_ = simulator_.now() + config_.sessionTtl;
  sweepArmSeq_ = ++*armSeqCounter_;
  simulator_.schedule(config_.sessionTtl, [this] { onSweep(); });
}

void RsuDetector::onSweep() {
  sweepArmed_ = false;
  const sim::TimePoint now = simulator_.now();
  // The idle-ledger TTL rides the same timer: one sweep bounds both tables.
  stats_.ledgerEvictions += ledger_.evictIdle(now);
  std::vector<common::Address> stale;
  active_.forEach([&](common::Address suspect, const Session& session) {
    if (now - session.startedAt >= config_.sessionTtl) {
      stale.push_back(suspect);
    }
  });
  // Address order, not hash-map order: a restored world's table has a
  // different insertion history, and expiry processing must not depend on it.
  std::sort(stale.begin(), stale.end());
  for (const common::Address suspect : stale) {
    Session done = std::move(*active_.find(suspect));
    active_.erase(suspect);
    ++stats_.expiredSessions;
    traceTable(simulator_, ch_, obs::ChTableOp::kVerificationExpired, done.id,
               done.suspect);
    // The probe never concluded (suspect unreachable, timers lost to a
    // crash/recovery window, …): answer the reporters rather than leaking
    // the entry forever.
    finishSession(std::move(done), Verdict::kUnreachable);
  }
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

void writeOptionalTime(common::ByteWriter& w,
                       const std::optional<sim::TimePoint>& t) {
  w.writeBool(t.has_value());
  w.writeI64(t ? t->us() : 0);
}

std::optional<sim::TimePoint> readOptionalTime(common::ByteReader& r) {
  const bool has = r.readBool();
  const std::int64_t us = r.readI64();
  if (!has) return std::nullopt;
  return sim::TimePoint::fromUs(us);
}

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
  w.writeU64(stats_.dreqReceived);
  w.writeU64(stats_.dreqRejectedAuth);
  w.writeU64(stats_.dreqDeduplicated);
  w.writeU64(stats_.sessionsAdopted);
  w.writeU64(stats_.sessionsForwarded);
  w.writeU64(stats_.probesSent);
  w.writeU64(stats_.confirmations);
  w.writeU64(stats_.isolations);
  w.writeU64(stats_.forwardsFailed);
  w.writeU64(stats_.resultRelaysFailed);
  w.writeU64(stats_.dreqRateLimited);
  w.writeU64(stats_.dreqReplayed);
  w.writeU64(stats_.probeViolations);
  w.writeU64(stats_.exonerations);
  w.writeU64(stats_.reporterDemerits);
  w.writeU64(stats_.reportersQuarantined);
  w.writeU64(stats_.expiredSessions);
  w.writeU64(stats_.completedEvicted);
  w.writeU64(stats_.ledgerEvictions);

  w.writeU64(completedTotal_);
  w.writeU32(static_cast<std::uint32_t>(completed_.size()));
  for (const SessionRecord& rec : completed_) writeRecord(w, rec);

  w.writeU64(nextSessionLocal_);
  w.writeU64(nextProbeAddress_);
  w.writeU32(nextProbeRreqId_);
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

  std::vector<common::Address> order;
  order.reserve(active_.size());
  active_.forEach(
      [&](common::Address suspect, const Session&) { order.push_back(suspect); });
  std::sort(order.begin(), order.end());
  w.writeU32(static_cast<std::uint32_t>(order.size()));
  for (const common::Address suspect : order) {
    const Session& s = *active_.find(suspect);
    w.writeId(s.id);
    w.writeId(s.suspect);
    w.writeU32(static_cast<std::uint32_t>(s.reporters.size()));
    for (const Reporter& rep : s.reporters) {
      w.writeId(rep.address);
      w.writeId(rep.cluster);
    }
    w.writeU8(static_cast<std::uint8_t>(s.stage));
    w.writeU32(s.rrep1Seq);
    w.writeU32(s.rreq2Seq);
    w.writeId(s.disposable);
    w.writeId(s.fakeDestination);
    w.writeU32(static_cast<std::uint32_t>(s.stageRreqIds.size()));
    for (const std::uint32_t id : s.stageRreqIds) w.writeU32(id);
    w.writeI64(s.retriesLeft);
    w.writeU32(s.packets);
    w.writeU8(s.forwardCount);
    w.writeBool(s.degraded);
    w.writeId(s.accomplice);
    w.writeU32(s.timerGen);
    w.writeI64(s.startedAt.us());
    writeOptionalTime(w, s.probeStartedAt);
    w.writeBool(s.hardened);
    w.writeI64(s.round);
    w.writeI64(s.violations);
    w.writeI64(s.timerDeadline.us());
    w.writeU8(s.timerKind);
    w.writeU64(s.timerArmSeq);
  }

  w.writeU32(static_cast<std::uint32_t>(probeIdentityLog_.size()));
  for (const ProbeIdentity& pi : probeIdentityLog_) {
    w.writeId(pi.disposable);
    w.writeId(pi.destination);
  }
}

void RsuDetector::restoreState(common::ByteReader& r,
                               std::vector<PendingTimer>& rearm) {
  stats_.dreqReceived = r.readU64();
  stats_.dreqRejectedAuth = r.readU64();
  stats_.dreqDeduplicated = r.readU64();
  stats_.sessionsAdopted = r.readU64();
  stats_.sessionsForwarded = r.readU64();
  stats_.probesSent = r.readU64();
  stats_.confirmations = r.readU64();
  stats_.isolations = r.readU64();
  stats_.forwardsFailed = r.readU64();
  stats_.resultRelaysFailed = r.readU64();
  stats_.dreqRateLimited = r.readU64();
  stats_.dreqReplayed = r.readU64();
  stats_.probeViolations = r.readU64();
  stats_.exonerations = r.readU64();
  stats_.reporterDemerits = r.readU64();
  stats_.reportersQuarantined = r.readU64();
  stats_.expiredSessions = r.readU64();
  stats_.completedEvicted = r.readU64();
  stats_.ledgerEvictions = r.readU64();

  completedTotal_ = r.readU64();
  completed_.clear();
  // Every reserve sized by a wire count is capped by the bytes left: a
  // hostile count must fail on its first underrun, not allocate first.
  const std::uint32_t recordCount = r.readU32();
  completed_.reserve(std::min<std::size_t>(recordCount, r.remaining()));
  for (std::uint32_t i = 0; i < recordCount; ++i) {
    completed_.push_back(readRecord(r));
  }

  nextSessionLocal_ = r.readU64();
  nextProbeAddress_ = r.readU64();
  nextProbeRreqId_ = r.readU32();
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

  active_.clear();
  const std::uint32_t sessionCount = r.readU32();
  for (std::uint32_t i = 0; i < sessionCount; ++i) {
    Session s;
    s.id = r.readId<common::DetectionSessionId>();
    s.suspect = r.readId<common::Address>();
    const std::uint32_t reporterCount = r.readU32();
    for (std::uint32_t k = 0; k < reporterCount; ++k) {
      Reporter rep;
      rep.address = r.readId<common::Address>();
      rep.cluster = r.readId<common::ClusterId>();
      s.reporters.push_back(rep);
    }
    s.stage = r.readU8();
    s.rrep1Seq = r.readU32();
    s.rreq2Seq = r.readU32();
    s.disposable = r.readId<common::Address>();
    s.fakeDestination = r.readId<common::Address>();
    const std::uint32_t rreqIdCount = r.readU32();
    for (std::uint32_t k = 0; k < rreqIdCount; ++k) {
      s.stageRreqIds.push_back(r.readU32());
    }
    s.retriesLeft = static_cast<int>(r.readI64());
    s.packets = r.readU32();
    s.forwardCount = r.readU8();
    s.degraded = r.readBool();
    s.accomplice = r.readId<common::Address>();
    s.timerGen = r.readU32();
    s.startedAt = sim::TimePoint::fromUs(r.readI64());
    s.probeStartedAt = readOptionalTime(r);
    s.hardened = r.readBool();
    s.round = static_cast<int>(r.readI64());
    s.violations = static_cast<int>(r.readI64());
    s.timerDeadline = sim::TimePoint::fromUs(r.readI64());
    s.timerKind = r.readU8();
    s.timerArmSeq = r.readU64();

    // The fresh world's CH node has no probe aliases yet; rebind so the
    // suspect's replies still reach this detector.
    if (s.disposable != common::kNullAddress) {
      ch_.node().addAlias(s.disposable);
    }

    const common::Address suspect = s.suspect;
    const std::uint32_t gen = s.timerGen;
    if (s.timerKind == 1) {
      rearm.push_back({s.timerArmSeq, s.timerDeadline,
                       [this, suspect, gen] { onProbeTimeout(suspect, gen); }});
    } else if (s.timerKind == 2) {
      rearm.push_back({s.timerArmSeq, s.timerDeadline, [this, suspect, gen] {
                         Session* live = active_.find(suspect);
                         if (live == nullptr || live->timerGen != gen) return;
                         live->timerKind = 0;
                         sendHardenedProbe(*live);
                       }});
    }
    // timerKind 0: no live timer (a reply disarmed it; the TTL sweep is the
    // only way such a session ends — exactly as in the uninterrupted run).

    active_[suspect] = std::move(s);
  }

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
