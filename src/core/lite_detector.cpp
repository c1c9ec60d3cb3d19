#include "core/lite_detector.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/assert.hpp"

namespace blackdp::core {

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

std::shared_ptr<aodv::RouteRequest> probeRequest(const DetectionSession& s,
                                                 std::uint32_t rreqId) {
  auto rreq = net::makeMutablePayload<aodv::RouteRequest>();
  rreq->rreqId = common::RreqId{rreqId};
  rreq->origin = s.disposable;
  rreq->originSeq = 1;
  rreq->destination = s.fakeDestination;
  rreq->ttl = 1;  // probe must not propagate past the suspect
  if (s.stage == ProbeStage::kRreq2) {
    rreq->destSeq = s.rreq2Seq;
    rreq->unknownDestSeq = false;
    rreq->inquireNextHop = true;
  } else {
    rreq->destSeq = 0;
    rreq->unknownDestSeq = true;
  }
  return rreq;
}

void DetectionSession::serialize(common::ByteWriter& w) const {
  w.writeId(id);
  w.writeId(suspect);
  w.writeU32(static_cast<std::uint32_t>(reporters.size()));
  for (const SessionReporter& reporter : reporters) {
    w.writeId(reporter.address);
    w.writeId(reporter.cluster);
  }
  w.writeU8(static_cast<std::uint8_t>(stage));
  w.writeU32(rrep1Seq);
  w.writeU32(rreq2Seq);
  w.writeId(accomplice);
  w.writeI64(retriesLeft);
  w.writeU32(packets);
  w.writeU8(forwardCount);
  w.writeBool(degraded);
  w.writeBool(hardened);
  w.writeI64(round);
  w.writeI64(violations);
  w.writeI64(startedAt.us());
  writeOptionalTime(w, probeStartedAt);
  w.writeId(disposable);
  w.writeId(fakeDestination);
  w.writeU32(static_cast<std::uint32_t>(stageRreqIds.size()));
  for (const std::uint32_t rreqId : stageRreqIds) w.writeU32(rreqId);
  w.writeU8(static_cast<std::uint8_t>(deadlineKind));
  w.writeI64(deadline.us());
  w.writeU32(deadlineGen);
  w.writeU64(deadlineSeq);
}

DetectionSession DetectionSession::deserialize(common::ByteReader& r) {
  DetectionSession s;
  s.id = r.readId<common::DetectionSessionId>();
  s.suspect = r.readId<common::Address>();
  // Every reserve sized by a wire count is capped by the bytes left: a
  // hostile count must fail on its first underrun, not allocate first.
  const std::uint32_t reporterCount = r.readU32();
  s.reporters.reserve(std::min<std::size_t>(reporterCount, r.remaining()));
  for (std::uint32_t i = 0; i < reporterCount; ++i) {
    SessionReporter reporter;
    reporter.address = r.readId<common::Address>();
    reporter.cluster = r.readId<common::ClusterId>();
    s.reporters.push_back(reporter);
  }
  const std::uint8_t stage = r.readU8();
  if (stage > static_cast<std::uint8_t>(ProbeStage::kTeammate)) {
    throw std::out_of_range{"detection session: unknown probe stage"};
  }
  s.stage = static_cast<ProbeStage>(stage);
  s.rrep1Seq = r.readU32();
  s.rreq2Seq = r.readU32();
  s.accomplice = r.readId<common::Address>();
  s.retriesLeft = static_cast<int>(r.readI64());
  s.packets = r.readU32();
  s.forwardCount = r.readU8();
  s.degraded = r.readBool();
  s.hardened = r.readBool();
  s.round = static_cast<int>(r.readI64());
  s.violations = static_cast<int>(r.readI64());
  s.startedAt = sim::TimePoint::fromUs(r.readI64());
  s.probeStartedAt = readOptionalTime(r);
  s.disposable = r.readId<common::Address>();
  s.fakeDestination = r.readId<common::Address>();
  const std::uint32_t rreqIdCount = r.readU32();
  s.stageRreqIds.reserve(std::min<std::size_t>(rreqIdCount, r.remaining()));
  for (std::uint32_t i = 0; i < rreqIdCount; ++i) {
    s.stageRreqIds.push_back(r.readU32());
  }
  const std::uint8_t kind = r.readU8();
  if (kind > static_cast<std::uint8_t>(DeadlineKind::kRoundDelay)) {
    throw std::out_of_range{"detection session: unknown deadline kind"};
  }
  s.deadlineKind = static_cast<DeadlineKind>(kind);
  s.deadline = sim::TimePoint::fromUs(r.readI64());
  s.deadlineGen = r.readU32();
  s.deadlineSeq = r.readU64();
  return s;
}

LiteDetector::LiteDetector(DetectorConfig config, std::uint32_t idPrefix,
                           Hooks hooks)
    : config_{config}, idPrefix_{idPrefix}, hooks_{std::move(hooks)} {
  BDP_ASSERT_MSG(hooks_.present && hooks_.sendProbe && hooks_.forward &&
                     hooks_.onVerdict &&
                     (!config_.hardening.enabled || hooks_.roundDelay),
                 "missing detector hook");
}

// ------------------------------------------------------------------ intake

std::optional<DetectionSession> LiteDetector::report(common::Address suspect,
                                                     SessionReporter reporter,
                                                     sim::TimePoint now) {
  // Verification-table dedup: concurrent reports against one suspect merge.
  if (DetectionSession* live = sessions_.find(suspect)) {
    live->reporters.push_back(reporter);
    live->packets += 1;  // the received report
    emit(*live, SessionEvent::kReportMerged, reporter.address);
    return std::nullopt;
  }
  DetectionSession s;
  s.id = common::DetectionSessionId{
      (static_cast<std::uint64_t>(idPrefix_) << 32) | nextSessionLocal_++};
  s.suspect = suspect;
  s.reporters.push_back(reporter);
  s.packets = 1;  // the received report
  s.startedAt = now;
  return s;
}

void LiteDetector::adopt(DetectionSession session, sim::TimePoint now) {
  session.retriesLeft = stageBudget(session.stage);
  if (session.degraded || hooks_.present(session.suspect)) {
    beginProbing(std::move(session), now);
    return;
  }
  // Not (or no longer) here: chase it, bounded by the forward budget.
  handOff(std::move(session));
}

void LiteDetector::beginProbing(DetectionSession session, sim::TimePoint now) {
  // A session for this suspect may already be running here (e.g. a second
  // RSU forwarded its own report while ours is active): merge, don't
  // restart.
  if (DetectionSession* live = sessions_.find(session.suspect)) {
    live->reporters.insert(live->reporters.end(), session.reporters.begin(),
                           session.reporters.end());
    live->packets += session.packets;
    emit(*live, SessionEvent::kSessionMerged);
    return;
  }
  // Hardened campaigns only start from RREQ₁; a mid-probe hand-off (RREQ₂
  // next) continues with the naive ladder so the probe-state transfer
  // semantics stay exactly the paper's.
  session.hardened =
      config_.hardening.enabled && session.stage == ProbeStage::kRreq1;
  const common::Address suspect = session.suspect;
  DetectionSession& placed = sessions_[suspect];
  placed = std::move(session);
  emit(placed, SessionEvent::kOpened);
  if (placed.hardened) {
    scheduleRound(placed, now);
    return;
  }
  // A disposable identity makes the RSU look like a normal vehicle to the
  // suspect (§III-B1); a fresh fake destination guarantees no honest node
  // can have a route.
  probe(placed, suspect, /*freshIdentity=*/true, now);
}

// ----------------------------------------------------------------- probing

void LiteDetector::probe(DetectionSession& s, common::Address target,
                         bool freshIdentity, sim::TimePoint now) {
  // RREQ₂: one above RREP₁'s sequence number. An honest node cannot know a
  // fresher route to a destination that does not exist.
  if (s.stage == ProbeStage::kRreq2) s.rreq2Seq = s.rrep1Seq + 1;
  const std::uint32_t rreqId = nextProbeId_++;
  s.stageRreqIds.push_back(rreqId);
  s.packets += 1;
  if (!s.probeStartedAt) s.probeStartedAt = now;
  hooks_.sendProbe(s, target, rreqId, freshIdentity);
  arm(s, now + config_.probeTimeout, DeadlineKind::kProbeTimeout);
}

void LiteDetector::arm(DetectionSession& s, sim::TimePoint deadline,
                       DeadlineKind kind) {
  ++s.deadlineGen;
  s.deadlineKind = kind;
  s.deadline = deadline;
  if (hooks_.armDeadline) hooks_.armDeadline(s);
}

void LiteDetector::scheduleRound(DetectionSession& s, sim::TimePoint now) {
  arm(s, now + hooks_.roundDelay(), DeadlineKind::kRoundDelay);
}

void LiteDetector::onDeadline(common::Address suspect, std::uint32_t gen,
                              sim::TimePoint now) {
  DetectionSession* live = sessions_.find(suspect);
  if (live == nullptr || live->deadlineGen != gen) return;
  const DeadlineKind kind = live->deadlineKind;
  live->deadlineKind = DeadlineKind::kNone;  // this deadline is consumed
  if (kind == DeadlineKind::kRoundDelay) {
    // Fresh disposable identity and destination every round: the suspect
    // can never correlate rounds. One countable reply per round.
    live->stageRreqIds.clear();
    probe(*live, suspect, /*freshIdentity=*/true, now);
    return;
  }
  if (kind == DeadlineKind::kProbeTimeout) onTimeout(*live, now);
}

void LiteDetector::onTimeout(DetectionSession& s, sim::TimePoint now) {
  emit(s, SessionEvent::kProbeTimeout);

  if (s.stage == ProbeStage::kTeammate) {
    if (s.retriesLeft > 0) {
      --s.retriesLeft;
      probe(s, s.accomplice, false, now);
      return;
    }
    // Teammate stayed silent: the primary attacker is still confirmed.
    DetectionSession done = take(s);
    done.accomplice = common::kNullAddress;
    conclude(std::move(done), Verdict::kSingleBlackHole);
    return;
  }

  if (!s.degraded && !hooks_.present(s.suspect)) {
    // The suspect moved on mid-probe (flee scenario): hand the session,
    // including probe state, to the next RSU. Hardened campaigns forward
    // at RREQ₁ (the next RSU restarts its own campaign).
    handOff(take(s));
    return;
  }

  if (s.hardened) {
    // A silent round: no violation. Rounds are the redundancy mechanism, so
    // there are no per-round retries — move straight to the next round.
    ++s.round;
    if (s.round < config_.hardening.probeRounds) {
      scheduleRound(s, now);
      return;
    }
    DetectionSession done = take(s);
    // Full campaign, zero violations: the accusation was baseless.
    if (done.violations == 0) emit(done, SessionEvent::kExonerated);
    conclude(std::move(done), Verdict::kNotConfirmed);
    return;
  }

  if (s.retriesLeft > 0) {
    --s.retriesLeft;
    probe(s, s.suspect, false, now);
    return;
  }
  // Silence under probing: no AODV violation observed. The suspect behaved
  // legitimately (or evaded); BlackDP prevents the attack but does not
  // confirm it.
  conclude(take(s), Verdict::kNotConfirmed);
}

void LiteDetector::onProbeReply(const aodv::RouteReply& reply,
                                common::Address replier, sim::TimePoint now) {
  DetectionSession* matched = match(reply.destination, reply.rreqId);
  if (matched == nullptr) return;
  DetectionSession& s = *matched;
  s.packets += 1;
  ++s.deadlineGen;  // disarm the pending timeout
  s.deadlineKind = DeadlineKind::kNone;
  emit(s, SessionEvent::kProbeReply, replier);

  if (s.hardened && s.stage == ProbeStage::kRreq1) {
    judgeHardenedReply(s, reply, replier, now);
    return;
  }
  switch (s.stage) {
    case ProbeStage::kRreq1:
      // RREP₁ for a non-existent destination: first violation. Confirm
      // with RREQ₂ — unless the suspect has just left, in which case the
      // next RSU completes the detection (paper's 8-packet scenario).
      s.rrep1Seq = reply.destSeq;
      s.stage = ProbeStage::kRreq2;
      s.stageRreqIds.clear();
      s.retriesLeft = config_.stageRetries;
      if (!s.degraded && !hooks_.present(s.suspect)) {
        handOff(take(s));
        return;
      }
      probe(s, s.suspect, false, now);
      return;
    case ProbeStage::kRreq2:
      // RREP₂: confirmed iff it claims a sequence number above RREQ₂'s —
      // an impossible claim ("a node must not send a RREP if it does not
      // have a higher SN than the received RREQ").
      if (!aodv::seqNewer(reply.destSeq, s.rreq2Seq)) {
        conclude(take(s), Verdict::kNotConfirmed);
        return;
      }
      emit(s, SessionEvent::kConfirmed);
      if (reply.claimedNextHop != common::kNullAddress &&
          reply.claimedNextHop != s.suspect) {
        // The suspect named a teammate: probe it the same way (§III-B1).
        escalateToTeammate(s, reply.claimedNextHop, false, now);
        return;
      }
      conclude(take(s), Verdict::kSingleBlackHole);
      return;
    case ProbeStage::kTeammate:
      // The teammate answered a route request for the fake destination: it
      // supports the primary attacker's claim — cooperative attack.
      if (replier != s.accomplice) return;
      conclude(take(s), Verdict::kCooperativeBlackHole);
      return;
  }
}

void LiteDetector::judgeHardenedReply(DetectionSession& s,
                                      const aodv::RouteReply& reply,
                                      common::Address replier,
                                      sim::TimePoint now) {
  // Only the suspect can incriminate itself: a third party answering the
  // (unicast) probe — e.g. an accusation flooder trying to frame the
  // suspect — is ignored outright.
  if (replier != s.suspect) return;
  s.stageRreqIds.clear();  // duplicates of this round don't recount
  ++s.violations;
  emit(s, SessionEvent::kViolation, replier);
  if (reply.claimedNextHop != common::kNullAddress &&
      reply.claimedNextHop != s.suspect) {
    s.accomplice = reply.claimedNextHop;
  }
  if (s.violations >= config_.hardening.violationQuorum) {
    emit(s, SessionEvent::kConfirmed);
    if (s.accomplice != common::kNullAddress) {
      // The teammate probe must use a destination that does not exist: with
      // a real one, an honest "teammate" holding a genuine route could be
      // framed by replying legitimately. It also gets its own disposable
      // identity, so the accomplice can't link it to earlier rounds.
      escalateToTeammate(s, s.accomplice, true, now);
      return;
    }
    conclude(take(s), Verdict::kSingleBlackHole);
    return;
  }
  ++s.round;
  if (s.round < config_.hardening.probeRounds) {
    scheduleRound(s, now);
    return;
  }
  // Rounds exhausted below quorum: suspicious but unconfirmed. The
  // reporters are *not* demerited — the suspect did violate.
  conclude(take(s), Verdict::kNotConfirmed);
}

void LiteDetector::escalateToTeammate(DetectionSession& s,
                                      common::Address teammate,
                                      bool freshIdentity, sim::TimePoint now) {
  s.accomplice = teammate;
  s.stage = ProbeStage::kTeammate;
  s.stageRreqIds.clear();
  s.retriesLeft = config_.stageRetries;
  probe(s, teammate, freshIdentity, now);
}

void LiteDetector::onProbeUnreachable(const aodv::RouteRequest& probe) {
  DetectionSession* s = match(probe.destination, probe.rreqId);
  if (s == nullptr) return;
  s->retriesLeft = std::min(s->retriesLeft + 1, stageBudget(s->stage));
}

void LiteDetector::fireDeadlines(sim::TimePoint now) {
  std::vector<std::pair<common::Address, std::uint32_t>> due;
  sessions_.forEach([&](common::Address suspect, const DetectionSession& s) {
    if (s.deadlineKind != DeadlineKind::kNone && s.deadline <= now) {
      due.emplace_back(suspect, s.deadlineGen);
    }
  });
  // Suspect order, not table order: a restored table has a different slot
  // history, and the outcome must not depend on it.
  std::sort(due.begin(), due.end());
  for (const auto& [suspect, gen] : due) onDeadline(suspect, gen, now);
}

void LiteDetector::expire(sim::TimePoint now) {
  std::vector<common::Address> stale;
  sessions_.forEach([&](common::Address suspect, const DetectionSession& s) {
    if (now - s.startedAt >= config_.sessionTtl) stale.push_back(suspect);
  });
  std::sort(stale.begin(), stale.end());
  for (const common::Address suspect : stale) {
    DetectionSession done = take(*sessions_.find(suspect));
    // The probe never concluded (suspect unreachable, timers lost to a
    // crash/recovery window, …): answer the reporters rather than leaking
    // the entry forever.
    emit(done, SessionEvent::kExpired);
    conclude(std::move(done), Verdict::kUnreachable);
  }
}

// ---------------------------------------------------------------- verdicts

DetectionSession LiteDetector::take(DetectionSession& s) {
  DetectionSession out = std::move(s);
  sessions_.erase(out.suspect);
  return out;
}

void LiteDetector::handOff(DetectionSession s) {
  if (s.forwardCount < config_.maxForwards && hooks_.forward(s)) return;
  conclude(std::move(s), Verdict::kUnreachable);
}

void LiteDetector::conclude(DetectionSession s, Verdict verdict) {
  hooks_.onVerdict(s, verdict);
}

void LiteDetector::emit(const DetectionSession& s, SessionEvent event,
                        common::Address other) {
  if (hooks_.onEvent) hooks_.onEvent(s, event, other);
}

DetectionSession* LiteDetector::match(common::Address destination,
                                      common::RreqId rreqId) {
  DetectionSession* found = nullptr;
  sessions_.forEach([&](common::Address, DetectionSession& s) {
    if (found == nullptr && s.fakeDestination == destination &&
        std::find(s.stageRreqIds.begin(), s.stageRreqIds.end(),
                  rreqId.value()) != s.stageRreqIds.end()) {
      found = &s;
    }
  });
  return found;
}

int LiteDetector::stageBudget(ProbeStage stage) const {
  return stage == ProbeStage::kRreq1 ? config_.probeRetries
                                     : config_.stageRetries;
}

DetectionSession LiteDetector::extract(common::Address suspect) {
  DetectionSession* s = sessions_.find(suspect);
  BDP_ASSERT_MSG(s != nullptr, "extract of unknown suspect");
  return take(*s);
}

DetectionSession LiteDetector::handedOff(const DetectionSession& s) {
  BDP_ASSERT(!s.reporters.empty());
  DetectionSession out;
  out.id = s.id;
  out.suspect = s.suspect;
  out.reporters.push_back(s.reporters.front());
  out.stage = s.stage == ProbeStage::kRreq2 ? ProbeStage::kRreq2
                                            : ProbeStage::kRreq1;
  out.rrep1Seq = s.rrep1Seq;
  out.packets = s.packets + 1;  // the forward itself
  out.forwardCount = static_cast<std::uint8_t>(s.forwardCount + 1);
  out.startedAt = s.startedAt;
  return out;
}

// ----------------------------------------------------- checkpoint / restore

void LiteDetector::saveState(common::ByteWriter& w) const {
  w.writeU64(nextSessionLocal_);
  w.writeU32(nextProbeId_);
  std::vector<common::Address> order;
  order.reserve(sessions_.size());
  sessions_.forEach([&](common::Address suspect, const DetectionSession&) {
    order.push_back(suspect);
  });
  std::sort(order.begin(), order.end());
  w.writeU32(static_cast<std::uint32_t>(order.size()));
  for (const common::Address suspect : order) {
    sessions_.find(suspect)->serialize(w);
  }
}

void LiteDetector::restoreState(common::ByteReader& r) {
  BDP_ASSERT_MSG(sessions_.empty(), "restoreState into a non-empty detector");
  nextSessionLocal_ = r.readU64();
  nextProbeId_ = r.readU32();
  const std::uint32_t count = r.readU32();
  common::Address previous{};
  for (std::uint32_t i = 0; i < count; ++i) {
    DetectionSession s = DetectionSession::deserialize(r);
    // Range checks for what saveState never writes: tables are sorted by
    // suspect, hardened sessions need the campaign enabled, and an armed
    // probe deadline has a probe to answer.
    if (i > 0 && !(previous < s.suspect)) {
      throw std::out_of_range{"detector restore: sessions out of order"};
    }
    if (s.hardened && !config_.hardening.enabled) {
      throw std::out_of_range{"detector restore: hardened session while "
                              "hardening is off"};
    }
    if (s.deadlineKind == DeadlineKind::kProbeTimeout &&
        s.stageRreqIds.empty()) {
      throw std::out_of_range{"detector restore: armed probe without an id"};
    }
    previous = s.suspect;
    sessions_[s.suspect] = std::move(s);
  }
}

}  // namespace blackdp::core
