// RSU-side BlackDP: suspicious node examination and isolation (§III-B).
//
// Each cluster head runs a detector: the radio, timer and backbone adapter
// around the one session core, core::LiteDetector (lite_detector.hpp), which
// owns the verification table and the RREQ₁ → RREQ₂ → teammate probe ladder.
// The adapter does everything that needs the world:
//
//   - authenticates d_reqs and applies the ReporterLedger's admission
//     policy before a report reaches the table;
//   - puts probes on the air as AODV RREQs from disposable identities (an
//     honest node stays silent; TTL 1 forbids rebroadcast);
//   - forwards a fleeing suspect's session to the adjacent cluster head over
//     the backbone (the paper's 8/9-packet scenarios) and relays verdicts to
//     reporters in other clusters;
//   - on confirmation triggers certificate revocation at the TA and answers
//     every reporter;
//   - keeps session records, trace sites, and the simulator timers that fire
//     the core's deadlines.
//
// Every packet a CH sends or receives for a session is counted; the counts
// are what the fig5 campaign reports.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "cluster/cluster_head.hpp"
#include "core/lite_detector.hpp"
#include "core/messages.hpp"
#include "core/reporter_ledger.hpp"
#include "core/secure.hpp"
#include "sim/rng.hpp"

namespace blackdp::core {

/// Completed-session record (the finishing CH keeps it; packetsUsed includes
/// the relay packets it can account for deterministically).
struct SessionRecord {
  common::DetectionSessionId id{};
  common::Address suspect{};
  common::Address reporter{};
  Verdict verdict{Verdict::kNotConfirmed};
  common::Address accomplice{common::kNullAddress};
  std::uint32_t packetsUsed{0};
  sim::TimePoint startedAt{};  ///< first CH accepted the d_req
  sim::TimePoint endedAt{};    ///< verdict reached
  /// First probe out of the *finishing* CH; unset when no probe was sent
  /// (e.g. the session terminated as kUnreachable before probing).
  std::optional<sim::TimePoint> probeStartedAt{};
  /// Revocation requested at the TA; unset for unconfirmed verdicts.
  std::optional<sim::TimePoint> isolatedAt{};

  [[nodiscard]] sim::Duration latency() const { return endedAt - startedAt; }
};

struct DetectorStats {
  std::uint64_t dreqReceived{0};
  std::uint64_t dreqRejectedAuth{0};  ///< reporter failed authentication
  std::uint64_t dreqDeduplicated{0};  ///< merged into an existing session
  std::uint64_t sessionsAdopted{0};   ///< received via backbone forward
  std::uint64_t sessionsForwarded{0};
  std::uint64_t probesSent{0};
  std::uint64_t confirmations{0};
  std::uint64_t isolations{0};
  std::uint64_t forwardsFailed{0};      ///< backbone forward undeliverable
  std::uint64_t resultRelaysFailed{0};  ///< backbone result undeliverable
  // --- hardening (all zero when DetectorHardening is off) ---
  std::uint64_t dreqRateLimited{0};  ///< over reporter budget / quarantined
  std::uint64_t dreqReplayed{0};     ///< nonce seen before
  std::uint64_t probeViolations{0};  ///< per-round AODV-impossible replies
  std::uint64_t exonerations{0};     ///< campaigns with zero violations
  std::uint64_t reporterDemerits{0};
  std::uint64_t reportersQuarantined{0};
  std::uint64_t expiredSessions{0};  ///< TTL-swept verification entries
  std::uint64_t completedEvicted{0};  ///< records dropped by completedCap
  std::uint64_t ledgerEvictions{0};   ///< idle ledger entries TTL-evicted
};

/// One probe identity the detector has put on the air (for invariant
/// checking: disposable identities must never be reused).
struct ProbeIdentity {
  common::Address disposable{};
  common::Address destination{};
};

/// A detector timer that was pending at checkpoint time, handed back from
/// restoreState() so the restoring world can reschedule *all* detectors'
/// timers in their original global arm order (armSeq ascending). Rescheduling
/// per detector would break FIFO tie-breaks between detectors whose timers
/// share a deadline.
struct PendingTimer {
  std::uint64_t armSeq{0};
  sim::TimePoint deadline{};
  std::function<void()> fire;
};

class RsuDetector {
 public:
  RsuDetector(sim::Simulator& simulator, cluster::ClusterHead& clusterHead,
              crypto::TaNetwork& taNetwork, const crypto::CryptoEngine& engine,
              DetectorConfig config = {});

  RsuDetector(const RsuDetector&) = delete;
  RsuDetector& operator=(const RsuDetector&) = delete;

  [[nodiscard]] const std::vector<SessionRecord>& completedSessions() const {
    return completed_;
  }
  [[nodiscard]] const DetectorStats& stats() const { return stats_; }
  /// Verification-table size (active sessions).
  [[nodiscard]] std::size_t activeSessions() const {
    return core_.activeSessions();
  }
  [[nodiscard]] const DetectorConfig& config() const { return core_.config(); }
  /// Reporter reputation state (rate limits, replay cache, demerits).
  [[nodiscard]] const ReporterLedger& reporterLedger() const { return ledger_; }
  /// Every (disposable, destination) pair sent, when
  /// `recordProbeIdentities` is on; empty otherwise.
  [[nodiscard]] const std::vector<ProbeIdentity>& probeIdentities() const {
    return probeIdentityLog_;
  }
  /// Exact number of sessions ever finished, independent of completedCap
  /// eviction (completedSessions().size() may be smaller).
  [[nodiscard]] std::uint64_t completedTotal() const { return completedTotal_; }
  /// Mutable ledger access for checkpoint/restore and TTL-eviction tests.
  [[nodiscard]] ReporterLedger& reporterLedger() { return ledger_; }

  /// Points every timer arm at a world-shared sequence counter (pass nullptr
  /// to fall back to the private one). Timers armed by *different* detectors
  /// at the same deadline tie-break by scheduling order; a world that
  /// checkpoints must record that global order, which a per-detector counter
  /// cannot express. Call before any session is opened.
  void shareArmSequence(std::uint64_t* counter);

  /// Checkpoint support. saveState writes every dynamic field (completed
  /// records, stats, allocators, ledger, probe RNG, sweep timer, the core's
  /// verification table). restoreState replaces them and appends one
  /// PendingTimer per live timer to `rearm` WITHOUT scheduling anything —
  /// the caller sorts timers from all detectors by armSeq and schedules
  /// them, reproducing the interrupted run's event order exactly.
  void saveState(common::ByteWriter& w) const;
  void restoreState(common::ByteReader& r, std::vector<PendingTimer>& rearm);

 private:
  bool onFrame(const net::Frame& frame);
  void onBackbone(common::ClusterId from, const net::PayloadPtr& payload);
  void onBackboneSendFailed(common::ClusterId to, const net::PayloadPtr& payload);

  void handleDreq(const DetectionRequest& dreq);
  /// Takes over a session another CH forwarded; `degraded` when our own
  /// forward bounced (the target CH is dead) and it comes back here.
  void adoptForwarded(const ForwardedDetection& fwd, bool degraded);
  void relayResult(const DetectionResult& result);

  // Core hooks.
  void sendProbe(DetectionSession& session, common::Address target,
                 std::uint32_t rreqId, bool freshIdentity);
  void armDeadline(DetectionSession& session);
  [[nodiscard]] sim::Duration roundDelay();
  [[nodiscard]] bool forward(const DetectionSession& session);
  void onEvent(const DetectionSession& session, SessionEvent event,
               common::Address other);
  void finishSession(DetectionSession& session, Verdict verdict);

  /// A type-B destination the suspect has plausibly overheard (reporter
  /// first, then a random member ≠ suspect); null → fall back to type A.
  [[nodiscard]] common::Address pickRealDestination(
      const DetectionSession& session);
  /// Campaign ended with zero violations: demerit (and possibly quarantine)
  /// every accuser.
  void exonerateReporters(const DetectionSession& session);
  void isolate(const DetectionSession& session, Verdict verdict);

  // Verification-table TTL sweep (lazy: armed only while sessions exist,
  // so an idle detector never keeps the simulator alive).
  void armSweep();
  void onSweep();

  /// Hands the session to the CH of an adjacent / reported cluster.
  void forwardSession(const DetectionSession& session,
                      common::ClusterId target);
  /// Picks where a vanished member likely went (direction of travel).
  [[nodiscard]] std::optional<common::ClusterId> guessNextCluster(
      common::Address suspect) const;

  common::Address allocProbeAddress();

  sim::Simulator& simulator_;
  cluster::ClusterHead& ch_;
  crypto::TaNetwork& taNetwork_;
  const crypto::CryptoEngine& engine_;
  DetectorStats stats_;
  std::vector<SessionRecord> completed_;
  std::uint64_t completedTotal_{0};
  std::uint64_t nextProbeAddress_{1};
  ReporterLedger ledger_;
  sim::Rng probeRng_;
  std::vector<ProbeIdentity> probeIdentityLog_;
  bool sweepArmed_{false};
  sim::TimePoint sweepDeadline_{};
  std::uint64_t sweepArmSeq_{0};
  /// Timer arm-order counter; points at armSeqLocal_ unless the world
  /// shares one across detectors (see shareArmSequence).
  std::uint64_t armSeqLocal_{0};
  std::uint64_t* armSeqCounter_{&armSeqLocal_};
  LiteDetector core_;
};

}  // namespace blackdp::core
