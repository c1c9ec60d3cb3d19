// The one BlackDP detector core: the RSU side of §III-B as a clock-less
// session state machine.
//
// Per suspect, the verification table holds one session that walks the
// paper's probe ladder:
//
//   RREQ₁    — fake, non-existent destination, unknown sequence number. An
//              honest node stays silent; a black hole answers (RREP₁).
//   RREQ₂    — same fake destination, sequence number one above RREP₁'s,
//              plus a next-hop inquiry. A reply claiming a yet higher
//              sequence number is AODV-impossible: the suspect is confirmed.
//   teammate — the same probe at the next hop RREP₂ named; a reply from it
//              makes the verdict cooperative.
//
// Silence is retried within the retry budget, an absent suspect's session is
// handed to the RSU it moved toward within the forward budget, and the
// opt-in hardened K-of-N campaign (DetectorHardening) replaces RREQ₁/RREQ₂
// with randomized rounds. Sessions expire after the verification-table TTL.
//
// The core owns no clock, timer, radio or RNG. Every input carries the
// current time; every session keeps its one live deadline as data
// (deadline, deadlineKind, deadlineGen); every side effect leaves through
// Hooks. That is what lets two very different worlds drive the same logic:
// RsuDetector turns deadlines into simulator timers and hooks into signed
// radio and backbone traffic, while the megacity corridor fires deadlines at
// epoch boundaries and ships handed-off sessions in shard envelopes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "aodv/seqnum.hpp"
#include "common/address_registry.hpp"
#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "core/messages.hpp"
#include "core/reporter_ledger.hpp"
#include "sim/time.hpp"

namespace blackdp::core {

/// Adversarially hardened probing (all off by default; the naive ladder
/// above replays the paper exactly).
///
/// The naive probe is evadable: its fake destination comes from a reserved
/// address range no vehicle has ever heard of, so a *selective* black hole
/// that only answers RREQs for destinations it has overheard stays silent
/// and passes. The hardened campaign randomizes K-of-N rounds:
///
///   type B (even rounds) — destination is a *real* member the suspect has
///     plausibly overheard (preferring the reporter, whose discovery the
///     suspect answered), with an absurdly inflated destination sequence
///     number. No honest node can have a route that fresh, so any reply
///     from the suspect is an AODV-impossible claim.
///   type A (odd rounds)  — an invented destination drawn from the plausible
///     vehicle address space (not the reserved probe range), unknown
///     sequence number: the classic non-existent-destination probe, but
///     indistinguishable from a genuine discovery.
///
/// Each round uses a fresh disposable identity and destination and a
/// jittered send time. Violations only count when the reply's link-layer
/// source is the suspect itself (nobody can be framed by third-party
/// replies). Reaching `violationQuorum` confirms; a full campaign with zero
/// violations exonerates the suspect and demerits every accuser.
struct DetectorHardening {
  bool enabled{false};
  /// N — probe rounds per campaign (alternating B,A,B,…).
  int probeRounds{3};
  /// K — violations that confirm the suspect.
  int violationQuorum{2};
  /// Uniform random delay added before each round's probe.
  sim::Duration probeJitterMax{sim::Duration::milliseconds(120)};
  /// Destination sequence number for type-B rounds; far above anything a
  /// vehicle can legitimately have cached.
  aodv::SeqNum inflatedSeq{0x20000000};
  /// Invented type-A destinations are drawn from this (inclusive) range of
  /// the plausible vehicle address space.
  std::uint64_t plausibleAddressLo{0x10000000};
  std::uint64_t plausibleAddressHi{0x1FFFFFFF};
  /// Reporter rate-limit / replay / demerit policy.
  ReporterLedgerConfig ledger{};
};

struct DetectorConfig {
  /// How long a probe waits for the suspect's RREP.
  sim::Duration probeTimeout{sim::Duration::milliseconds(400)};
  /// RREQ₁ resends after silence before concluding (paper Fig. 5's
  /// no-attacker case spends 2 probe packets).
  int probeRetries{1};
  /// Retry budget for the later probe stages (RREQ₂/RREQ₃) under lossy
  /// conditions. 0 (default) replays the seed behaviour: a lost stage-1/2
  /// probe ends the session on its first timeout.
  int stageRetries{0};
  /// Upper bound on CH→CH session forwards (chasing a moving suspect).
  std::uint8_t maxForwards{3};
  /// Anti-evasion probe campaign + accusation-channel defense (default off).
  DetectorHardening hardening{};
  /// Verification-table TTL: sessions older than this are expired as
  /// kUnreachable by a lazy sweep. 0 (default) disables the sweep entirely
  /// (seed behaviour; sessions always terminate via probe timeouts).
  sim::Duration sessionTtl{};
  /// Seed of the detector's private random stream (round jitter, type-A/B
  /// destination draws). Derive per-CH from the scenario seed.
  std::uint64_t probeSeed{0};
  /// Keep a log of every (disposable identity, probe destination) pair for
  /// invariant checking (soak harness); off by default to save memory.
  bool recordProbeIdentities{false};
  /// Bound on retained completed-session records (streaming service mode):
  /// the oldest records are dropped once the vector exceeds the cap.
  /// 0 (default, batch mode) keeps everything — short trials inspect the
  /// full history afterwards. completedTotal() stays exact either way.
  std::size_t completedCap{0};
};

/// One accuser of a session and the cluster its answer goes back to.
struct SessionReporter {
  common::Address address{};
  common::ClusterId cluster{};

  friend bool operator==(const SessionReporter&,
                         const SessionReporter&) = default;
};

/// Which probe of the ladder a session is waiting on.
enum class ProbeStage : std::uint8_t { kRreq1 = 0, kRreq2 = 1, kTeammate = 2 };

/// What a session's live deadline means when it passes.
enum class DeadlineKind : std::uint8_t {
  kNone = 0,     ///< disarmed (a reply consumed the probe)
  kProbeTimeout, ///< the outstanding probe went unanswered
  kRoundDelay,   ///< a hardened round's jitter elapsed: send its probe
};

/// One verification-table entry (§III-B1 "Suspicious Node Examination"):
/// the complete state of a detection session, its deadline included.
struct DetectionSession {
  common::DetectionSessionId id{};
  common::Address suspect{};
  std::vector<SessionReporter> reporters;
  ProbeStage stage{ProbeStage::kRreq1};
  aodv::SeqNum rrep1Seq{0};
  aodv::SeqNum rreq2Seq{0};
  common::Address accomplice{common::kNullAddress};
  /// Resends left at the current stage (probeRetries at RREQ₁,
  /// stageRetries later); reset on every stage advance.
  int retriesLeft{0};
  /// Detection packets spent so far (Fig. 5 accounting).
  std::uint32_t packets{0};
  std::uint8_t forwardCount{0};
  /// Adopted after a backbone forward failed: probe from here over the air
  /// and never hand the session on again.
  bool degraded{false};
  /// Hardened K-of-N campaign state (the stage stays kRreq1 while rounds
  /// run; kTeammate is reused for the teammate probe after quorum).
  bool hardened{false};
  int round{0};
  int violations{0};
  sim::TimePoint startedAt{};  ///< the first RSU accepted the report
  /// First probe out of the RSU holding the session (not carried by a
  /// hand-off, so it is the finishing RSU's).
  std::optional<sim::TimePoint> probeStartedAt{};
  /// Probe identity, written by the sendProbe hook: the disposable source
  /// and the probed destination. A reply matches the session iff it names
  /// `fakeDestination` and one of `stageRreqIds` — the ids of the current
  /// stage's probes (original and resends); earlier stages' no longer match.
  common::Address disposable{};
  common::Address fakeDestination{};
  std::vector<std::uint32_t> stageRreqIds;
  DeadlineKind deadlineKind{DeadlineKind::kNone};
  sim::TimePoint deadline{};
  /// Bumped on every arm and disarm: a timer carrying an older generation
  /// is stale.
  std::uint32_t deadlineGen{0};
  /// The owner's arm-order stamp for the live deadline. A world whose
  /// detectors share one simulator records it so a restore can re-arm the
  /// deadlines of all its detectors in their original order.
  std::uint64_t deadlineSeq{0};

  void serialize(common::ByteWriter& w) const;
  /// Throws std::out_of_range on truncated input or an unknown stage or
  /// deadline kind.
  [[nodiscard]] static DetectionSession deserialize(common::ByteReader& r);

  friend bool operator==(const DetectionSession&,
                         const DetectionSession&) = default;
};

/// The RREQ a probe of the ladder puts on the air: TTL 1, from the
/// session's disposable identity to its fake destination; RREQ₂ asks for
/// sn + 1 with a next-hop inquiry, every other probe for an unknown
/// sequence number.
[[nodiscard]] std::shared_ptr<aodv::RouteRequest> probeRequest(
    const DetectionSession& s, std::uint32_t rreqId);

/// Checkpoint encoding of an optional time: a presence flag, then µs.
void writeOptionalTime(common::ByteWriter& w,
                       const std::optional<sim::TimePoint>& t);
[[nodiscard]] std::optional<sim::TimePoint> readOptionalTime(
    common::ByteReader& r);

/// Session milestones the owner traces and counts (Hooks::onEvent).
enum class SessionEvent : std::uint8_t {
  kOpened,         ///< inserted into the verification table
  kReportMerged,   ///< a report joined the live session (other: reporter)
  kSessionMerged,  ///< an adopted session joined the live one
  kProbeReply,     ///< a reply matched, before judging (other: replier)
  kViolation,      ///< hardened: the suspect's own reply counted
  kConfirmed,      ///< black hole; a teammate probe may precede the verdict
  kProbeTimeout,   ///< the outstanding probe went unanswered
  kExonerated,     ///< a hardened campaign ended with zero violations
  kExpired,        ///< the TTL removed the session (kUnreachable follows)
};

class LiteDetector {
 public:
  /// Every side effect. `armDeadline` and `onEvent` may be empty;
  /// `roundDelay` is needed only with hardening on.
  struct Hooks {
    /// Whether the suspect is within this RSU's probing range.
    std::function<bool(common::Address)> present;
    /// Puts one probe on the air at `target` (see probeRequest; hardened
    /// sessions at kRreq1 send a round's probe). With `freshIdentity` the
    /// owner first assigns a new disposable identity and fake destination.
    std::function<void(DetectionSession&, common::Address target,
                       std::uint32_t rreqId, bool freshIdentity)>
        sendProbe;
    /// The session's deadline was (re)armed; fire onDeadline(suspect,
    /// deadlineGen) once `deadline` passes.
    std::function<void(DetectionSession&)> armDeadline;
    /// The delay before the next hardened round's probe.
    std::function<sim::Duration()> roundDelay;
    /// Ships an absent suspect's session (already out of the table) toward
    /// where it went, as handedOff() shapes it; false when there is nowhere
    /// to go. Only called within the forward budget.
    std::function<bool(const DetectionSession&)> forward;
    std::function<void(const DetectionSession&, SessionEvent,
                       common::Address other)>
        onEvent;
    /// Fires exactly once per session, after it left the table.
    std::function<void(DetectionSession&, Verdict)> onVerdict;
  };

  /// Session ids are (idPrefix << 32) | a local counter.
  LiteDetector(DetectorConfig config, std::uint32_t idPrefix, Hooks hooks);

  /// Verification-table intake. A report against a suspect with a live
  /// session merges into it (nullopt); otherwise the new session is
  /// returned unplaced, for the caller to adopt() or hand on.
  [[nodiscard]] std::optional<DetectionSession> report(
      common::Address suspect, SessionReporter reporter, sim::TimePoint now);

  /// Takes in a fresh report's, a handed-off or a degraded session. It
  /// merges into a live session for the suspect (reporters and packets
  /// join, probing goes on), probes if the suspect is present (or the
  /// session is degraded), and otherwise hands it on.
  void adopt(DetectionSession session, sim::TimePoint now);

  /// An RREP from `replier` (its link-layer source); ignored unless it
  /// answers a probe of a session's current stage.
  void onProbeReply(const aodv::RouteReply& reply, common::Address replier,
                    sim::TimePoint now);

  /// The probe never reached its target. No evidence either way: the
  /// resend it cost is refunded, up to the stage budget.
  void onProbeUnreachable(const aodv::RouteRequest& probe);

  /// The deadline armed with generation `gen` passed. Stale generations
  /// are ignored.
  void onDeadline(common::Address suspect, std::uint32_t gen,
                  sim::TimePoint now);

  /// Fires every armed deadline at or before `now`, in suspect order — for
  /// owners that only look at the clock at epoch boundaries.
  void fireDeadlines(sim::TimePoint now);

  /// TTL expiry: every session at least sessionTtl old ends as
  /// kUnreachable, in suspect order.
  void expire(sim::TimePoint now);

  /// Removes and returns the session for `suspect` (asserted to exist)
  /// without any verdict — the test seam for migration plumbing.
  [[nodiscard]] DetectionSession extract(common::Address suspect);

  /// What a hand-off carries to the next RSU: id, suspect, first reporter,
  /// start time, the RREP₁ sequence number if RREQ₂ is next (any other stage
  /// restarts at RREQ₁), and the packet and forward counts including the
  /// forward itself.
  [[nodiscard]] static DetectionSession handedOff(const DetectionSession& s);

  /// Serializes the id and probe-id counters and every live session,
  /// suspect-ascending.
  void saveState(common::ByteWriter& w) const;

  /// Inverse of saveState into an empty detector. Throws std::out_of_range
  /// on truncated input or a session no saveState of this configuration
  /// writes.
  void restoreState(common::ByteReader& r);

  /// Read-only walk over live sessions in table order.
  void forEachSession(
      const std::function<void(const DetectionSession&)>& fn) const {
    sessions_.forEach(
        [&](common::Address, const DetectionSession& s) { fn(s); });
  }

  [[nodiscard]] std::size_t activeSessions() const { return sessions_.size(); }
  [[nodiscard]] const DetectionSession* find(common::Address suspect) const {
    return sessions_.find(suspect);
  }
  [[nodiscard]] const DetectorConfig& config() const { return config_; }

 private:
  void beginProbing(DetectionSession session, sim::TimePoint now);
  void probe(DetectionSession& s, common::Address target, bool freshIdentity,
             sim::TimePoint now);
  void arm(DetectionSession& s, sim::TimePoint deadline, DeadlineKind kind);
  void scheduleRound(DetectionSession& s, sim::TimePoint now);
  void onTimeout(DetectionSession& s, sim::TimePoint now);
  void judgeHardenedReply(DetectionSession& s, const aodv::RouteReply& reply,
                          common::Address replier, sim::TimePoint now);
  void escalateToTeammate(DetectionSession& s, common::Address teammate,
                          bool freshIdentity, sim::TimePoint now);
  /// Removes `s` from the table and returns it.
  DetectionSession take(DetectionSession& s);
  /// An absent suspect's session (already out of the table): forward it
  /// within the budget, else conclude kUnreachable.
  void handOff(DetectionSession s);
  void conclude(DetectionSession s, Verdict verdict);
  void emit(const DetectionSession& s, SessionEvent event,
            common::Address other = {});
  [[nodiscard]] DetectionSession* match(common::Address destination,
                                        common::RreqId rreqId);
  [[nodiscard]] int stageBudget(ProbeStage stage) const;

  DetectorConfig config_;
  std::uint32_t idPrefix_;
  Hooks hooks_;
  /// Verification table, keyed by suspect (dense slots; one probe + array
  /// read per reply match, slots recycled as sessions close).
  common::DenseAddressMap<DetectionSession> sessions_;
  std::uint64_t nextSessionLocal_{1};
  std::uint32_t nextProbeId_{1};
};

}  // namespace blackdp::core
