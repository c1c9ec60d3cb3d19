// Structured trace events.
//
// One flat, POD-ish record type covers every instrumented subsystem: the
// medium and backbone (packet tx/rx/drop with cause), the AODV agent (route
// discovery lifecycle), the BlackDP verifier and detector (per-stage
// protocol transitions), the cluster head (membership / verification-table /
// revocation operations), the fault injector (activations), and the
// simulator (run windows). A per-kind sub-operation enum rides in `op`; the
// remaining fields are generic slots whose meaning the emitting site
// documents (a/b are addresses, session a detection-session id, value a
// count or byte size).
//
// Events carry their simulated timestamp explicitly (microseconds), so the
// obs layer needs nothing from the simulator and sits at the very bottom of
// the dependency order — every other subsystem may emit events.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace blackdp::obs {

/// Which subsystem emitted the event. The per-kind sub-operation lives in
/// TraceEvent::op.
enum class EventKind : std::uint8_t {
  kFrameTx,          ///< medium: transmission initiated (op unused)
  kFrameRx,          ///< medium: per-receiver delivery (op unused)
  kFrameDrop,        ///< medium: per-receiver loss; op = DropCause
  kFrameSendFailed,  ///< medium: unicast MAC ACK failure; op = DropCause
  kBackboneTx,       ///< backbone: message sent (op unused)
  kBackboneRx,       ///< backbone: message delivered (op unused)
  kBackboneDrop,     ///< backbone: message lost; op = DropCause
  kAodv,             ///< AODV agent; op = AodvOp
  kVerifier,         ///< source verifier; op = VerifierOp
  kDetector,         ///< RSU detector; op = DetectorOp
  kChTable,          ///< cluster-head table operation; op = ChTableOp
  kFault,            ///< fault injector activation; op = FaultOp
  kSimRun,           ///< simulator run window; op = SimRunOp
  kParallel,         ///< worker-pool host event; op = ParallelOp
  kShard,            ///< sharded-simulation host event; op = ShardOp
};

/// Why a frame or backbone message was not delivered. Also used as the
/// return value of the medium's fault hook (kNone = deliver).
enum class DropCause : std::uint8_t {
  kNone = 0,       ///< not dropped
  kRandomLoss,     ///< the medium's own i.i.d. loss draw (collision model)
  kBurstLoss,      ///< fault layer: Gilbert–Elliott burst fade
  kJam,            ///< fault layer: jam zone
  kLinkCut,        ///< backbone: fault-layer link filter
  kDeadEndpoint,   ///< backbone: target CH detached/crashed at delivery
  kSenderCrashed,  ///< backbone: send() from a detached/crashed CH
  kUnreachable,    ///< medium: unicast addressee unknown or out of range
};

enum class AodvOp : std::uint8_t {
  kDiscoveryStart,      ///< findRoute with no active route; a = destination
  kRreqFlood,           ///< one discovery round flooded; value = ttl
  kRrepReceived,        ///< RREP accepted as originator; b = replier
  kDiscoverySucceeded,  ///< route installed; a = destination
  kDiscoveryFailed,     ///< all retries exhausted; a = destination
};

enum class VerifierOp : std::uint8_t {
  kRoundStarted,     ///< discovery round begins; value = round number
  kRrepChosen,       ///< freshest cached RREP picked; b = replier
  kHelloSent,        ///< secure Hello probe out; value = hello id
  kHelloTimeout,     ///< Hello went unanswered; value = round number
  kSuspected,        ///< replier now formally suspicious; a = suspect
  kDreqSent,         ///< d_req transmitted to the CH; a = suspect
  kDreqSendFailed,   ///< d_req MAC ACK failure; a = suspect
  kLocalQuarantine,  ///< degraded vehicle-local blacklist; a = suspect
  kVerdictReceived,  ///< CH verdict arrived; value = Verdict
  kFinished,         ///< verification over; value = Outcome
};

enum class DetectorOp : std::uint8_t {
  kDreqReceived,      ///< authenticated d_req accepted; a = suspect
  kDreqRejected,      ///< reporter failed authentication; b = reporter
  kDreqDeduplicated,  ///< merged into the active session for a suspect
  kSessionOpened,     ///< verification-table entry created; a = suspect
  kSessionForwarded,  ///< handed to a peer CH; value = target cluster
  kSessionAdopted,    ///< received via backbone forward
  kAdoptedDegraded,   ///< re-adopted after a failed forward (dead peer)
  kProbeSent,         ///< RREQ probe out; value = probe stage (0/1/2)
  kProbeReply,        ///< RREP matched the probe; value = probe stage
  kProbeTimeout,      ///< probe window expired; value = probe stage
  kVerdict,           ///< session concluded; value = Verdict
  kIsolated,          ///< revocation requested at the TA; a = suspect
  kResultRelayed,     ///< verdict relayed to the reporter over the air
  kDreqRateLimited,   ///< reporter over its accusation budget; b = reporter
  kDreqReplayed,      ///< nonce already seen for reporter; b = reporter
  kProbeViolation,    ///< hardened probe round violated; value = round
  kExonerated,        ///< suspect passed the probe campaign; a = suspect
  kReporterDemerited,  ///< accuser charged a demerit; b = reporter
  kReporterQuarantined,  ///< accuser crossed liar threshold; b = reporter
};

enum class ChTableOp : std::uint8_t {
  kMemberJoined,        ///< JREQ accepted; a = vehicle
  kMemberLeft,          ///< LEAVE processed; a = vehicle
  kRevocationApplied,   ///< TA notice applied + announced; a = vehicle
  kCrashed,             ///< RSU failure (member table lost)
  kRecovered,           ///< RSU back on the air
  kVerificationInsert,  ///< detector opened a table entry; a = suspect
  kVerificationMerge,   ///< concurrent report merged; a = suspect
  kVerificationErase,   ///< entry closed; a = suspect
  kVerificationExpired,  ///< entry TTL-swept; a = suspect
};

enum class FaultOp : std::uint8_t {
  kRsuCrash,     ///< scheduled RSU failure fired; cluster set
  kRsuRecovery,  ///< scheduled RSU recovery fired; cluster set
};

enum class SimRunOp : std::uint8_t {
  kRunBegin,  ///< Simulator::run() entered; value = pending events
  kRunEnd,    ///< Simulator::run() returned; value = events executed
};

/// Host-side worker-pool events. Emitted on the calling thread after the
/// worker pool joins (workers themselves never touch the thread-local
/// recorder), so they carry wall-clock-free atUs = 0.
enum class ParallelOp : std::uint8_t {
  kWorkerFailure,  ///< task exception not rethrown; value = task index
};

/// Sharded-simulation host events. Like ParallelOp, these are emitted on the
/// coordinating thread (shard workers never touch the thread-local recorder);
/// the shard id rides in `node`, the epoch in `value`.
enum class ShardOp : std::uint8_t {
  kEpochRun,  ///< one shard ran one epoch; node = shard, value = epoch
  kExchange,  ///< epoch barrier merge; value = envelopes exchanged
};

[[nodiscard]] std::string_view toString(EventKind kind);
[[nodiscard]] std::string_view toString(DropCause cause);
[[nodiscard]] std::string_view toString(AodvOp op);
[[nodiscard]] std::string_view toString(VerifierOp op);
[[nodiscard]] std::string_view toString(DetectorOp op);
[[nodiscard]] std::string_view toString(ChTableOp op);
[[nodiscard]] std::string_view toString(FaultOp op);
[[nodiscard]] std::string_view toString(SimRunOp op);
[[nodiscard]] std::string_view toString(ParallelOp op);
[[nodiscard]] std::string_view toString(ShardOp op);

/// Human/exporter label for the sub-operation of `kind` stored in `op`.
[[nodiscard]] std::string_view opName(EventKind kind, std::uint8_t op);

/// One structured event. Generic slots keep recording allocation-free in
/// the common case (`detail` is usually empty). The constructor's trailing
/// defaults let emission sites spell out only the slots they use.
struct TraceEvent {
  TraceEvent() = default;
  TraceEvent(std::int64_t at, EventKind eventKind, std::uint8_t subOp = 0,
             std::uint32_t nodeId = 0, std::uint32_t clusterId = 0,
             std::uint64_t slotA = 0, std::uint64_t slotB = 0,
             std::uint64_t sessionId = 0, std::uint64_t slotValue = 0,
             std::string detailText = {})
      : atUs{at},
        kind{eventKind},
        op{subOp},
        node{nodeId},
        cluster{clusterId},
        a{slotA},
        b{slotB},
        session{sessionId},
        value{slotValue},
        detail{std::move(detailText)} {}

  std::int64_t atUs{0};           ///< simulated time, microseconds
  EventKind kind{EventKind::kSimRun};
  std::uint8_t op{0};             ///< per-kind sub-operation / DropCause
  std::uint32_t node{0};          ///< physical NodeId (0 = n/a)
  std::uint32_t cluster{0};       ///< ClusterId (0 = n/a)
  std::uint64_t a{0};             ///< primary address / entity
  std::uint64_t b{0};             ///< secondary address / entity
  std::uint64_t session{0};       ///< DetectionSessionId (0 = n/a)
  std::uint64_t value{0};         ///< count, byte size, stage, ttl, ...
  std::string detail;             ///< payload type name etc. (often empty)

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

}  // namespace blackdp::obs
