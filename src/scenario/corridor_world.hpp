// The megacity national corridor: a 100+ km, 10k-vehicle sharded world.
//
// The corridor is a chain of 1 km SEGMENTS, one RSU each. Segments are the
// unit of locality: every radio interaction is intra-segment by
// construction (segment j's radios sit at y = j * 3000 m, three times the
// 1000 m transmission range, so cross-segment delivery is physically
// impossible), and every INTER-segment effect — a vehicle crossing a
// segment boundary, a detection session chasing a migrating suspect, a
// revocation gossiping outward — travels as a shard::Envelope applied at
// the next epoch boundary, even between segments of the same shard. Because
// segment boundaries and shard boundaries are handled identically, grouping
// segments into 1 shard or N is unobservable: metrics and the canonical
// per-segment log are byte-identical (pinned by tests/shard_test and CI).
//
// Epoch safety: epochs last 1 s and vehicles drive at most 90 km/h = 25 m/s,
// so a vehicle bound to its segment at an epoch boundary drifts <= 25 m
// before the next one — it stays within RSU range (<= 525 m < 1000 m) all
// epoch and can cross at most into an ADJACENT segment per epoch, which is
// exactly the shard layer's kMaxSegmentHops = 1 envelope bound.
//
// Determinism without RNG: every per-vehicle property (speed, direction,
// entry point, entry/departure epoch, attacker role) and every per-epoch
// offset (beacon time, data-chain send time, relay pick, probe time) is a
// pure hash of (seed, vehicle, epoch, purpose). No stateful generator
// exists anywhere in the corridor, and the medium is configured jitter- and
// loss-free, so it draws no RNG either — the whole world is a pure function
// of (config, epoch count), independently of partitioning and thread count.
//
// Protocol per epoch, per segment (all offsets from the epoch start):
//   +200 us  RSU broadcasts the member digest (sorted, isolated excluded)
//   1-5 ms   every vehicle broadcasts a beacon
//   10-300 ms ~half the vehicles start a data chain: origin -> relay ->
//             destination -> ack, relay and destination hash-picked from
//             the digest. A black-hole relay silently drops; the origin's
//             200 ms ack timeout then files a REPORT with the RSU.
//   detection: each RSU drives core::LiteDetector, the same §III-B session
//             core RsuDetector runs, with probe deadlines of one epoch. A
//             report opens a session at once; at each epoch start the RSU
//             fires the deadlines that passed (resends, hand-offs of absent
//             suspects, verdicts), then puts every session's one pending
//             probe on the air at 400-500 ms as an aodv::RouteRequest: RREQ₁
//             for a fake destination, RREQ₂ with sn + 1 and a next-hop
//             inquiry, then RREQ₁ at the named teammate. A reply is judged
//             when it arrives; the probe it triggers waits for the next
//             epoch, so a session sends at most one probe per epoch.
//   attackers: a black hole answers every probe with a sequence number
//             above the one asked for, and names as next hop the lowest-id
//             other attacker in its segment's digest. That teammate answers
//             too, so the pair is confirmed cooperative.
//   verdict: confirmed suspects (and a cooperative teammate) are dropped
//             from future digests, announced in-segment, and revoked outward
//             via ttl-2 directional gossip.
//
// Crash recovery has one path, the whole-world checkpoint: a fresh world
// restores it and resumes byte-identically, and a restore accepts only what
// a save writes (restoreCheckpoint; DESIGN.md §13 lists the checks).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "core/lite_detector.hpp"
#include "net/frame.hpp"
#include "net/medium.hpp"
#include "net/node.hpp"
#include "obs/registry.hpp"
#include "shard/envelope.hpp"
#include "shard/sharded_sim.hpp"
#include "sim/simulator.hpp"

namespace blackdp::scenario {

// ---------------------------------------------------------------- payloads

class CorridorBeacon final : public net::Payload {
 public:
  static constexpr net::PayloadKind kKind = net::PayloadKind::kCorridorBeacon;
  CorridorBeacon() : Payload{kKind} {}
  [[nodiscard]] std::string_view typeName() const override { return "cbeacon"; }
  [[nodiscard]] std::uint32_t sizeBytes() const override { return 32; }
};

class CorridorDigest final : public net::Payload {
 public:
  static constexpr net::PayloadKind kKind = net::PayloadKind::kCorridorDigest;
  CorridorDigest(std::uint32_t segmentIn, std::uint32_t epochIn,
                 common::Address rsuIn,
                 std::vector<common::Address> membersIn)
      : Payload{kKind},
        segment{segmentIn},
        epoch{epochIn},
        rsu{rsuIn},
        members{std::move(membersIn)} {}
  [[nodiscard]] std::string_view typeName() const override { return "cdigest"; }
  [[nodiscard]] std::uint32_t sizeBytes() const override {
    return 20 + 8 * static_cast<std::uint32_t>(members.size());
  }
  std::uint32_t segment;
  std::uint32_t epoch;  ///< issue epoch; chains refuse a stale digest
  common::Address rsu;
  std::vector<common::Address> members;  ///< sorted, isolated excluded
};

class CorridorData final : public net::Payload {
 public:
  static constexpr net::PayloadKind kKind = net::PayloadKind::kCorridorData;
  CorridorData(std::uint64_t chainIdIn, common::Address originIn,
               common::Address relayIn, common::Address finalDstIn,
               std::uint8_t hopIn)
      : Payload{kKind},
        chainId{chainIdIn},
        origin{originIn},
        relay{relayIn},
        finalDst{finalDstIn},
        hop{hopIn} {}
  [[nodiscard]] std::string_view typeName() const override { return "cdata"; }
  [[nodiscard]] std::uint32_t sizeBytes() const override { return 512; }
  std::uint64_t chainId;
  common::Address origin;
  common::Address relay;
  common::Address finalDst;
  std::uint8_t hop;  ///< 0 = origin -> relay, 1 = relay -> finalDst
};

class CorridorAck final : public net::Payload {
 public:
  static constexpr net::PayloadKind kKind = net::PayloadKind::kCorridorAck;
  explicit CorridorAck(std::uint64_t chainIdIn)
      : Payload{kKind}, chainId{chainIdIn} {}
  [[nodiscard]] std::string_view typeName() const override { return "cack"; }
  [[nodiscard]] std::uint32_t sizeBytes() const override { return 32; }
  std::uint64_t chainId;
};

class CorridorReport final : public net::Payload {
 public:
  static constexpr net::PayloadKind kKind = net::PayloadKind::kCorridorReport;
  CorridorReport(common::Address suspectIn, std::uint64_t chainIdIn)
      : Payload{kKind}, suspect{suspectIn}, chainId{chainIdIn} {}
  [[nodiscard]] std::string_view typeName() const override { return "creport"; }
  [[nodiscard]] std::uint32_t sizeBytes() const override { return 48; }
  common::Address suspect;
  std::uint64_t chainId;
};

class CorridorIsolation final : public net::Payload {
 public:
  static constexpr net::PayloadKind kKind =
      net::PayloadKind::kCorridorIsolation;
  explicit CorridorIsolation(common::Address suspectIn)
      : Payload{kKind}, suspect{suspectIn} {}
  [[nodiscard]] std::string_view typeName() const override { return "ciso"; }
  [[nodiscard]] std::uint32_t sizeBytes() const override { return 40; }
  common::Address suspect;
};

// ------------------------------------------------------------------ config

/// A corridor segment's RSU goes dark during epochs [fromEpoch, untilEpoch):
/// no digest broadcasts, no detector rounds, all received frames ignored.
/// Cross-segment envelopes (revocation gossip, migrations, handoffs) still
/// apply — the degraded-mode guarantee that neighbors keep isolating
/// confirmed black holes inside the dark segment.
struct SegmentRsuOutageEvent {
  std::uint32_t segment{0};
  std::uint32_t fromEpoch{0};
  std::uint32_t untilEpoch{0};
};

struct CorridorConfig {
  std::uint64_t seed{42};
  std::uint32_t segments{100};  ///< 1 km each -> corridor length in km
  std::uint32_t vehicles{10000};
  std::uint32_t attackerPermille{10};  ///< ~1% black holes
  std::uint32_t departPermille{20};    ///< ~2% leave mid-run (epochs 6-9)
  /// Scripted dark RSUs. Epoch-indexed and part of the config hash, so a
  /// checkpoint can only resume under the same outages.
  std::vector<SegmentRsuOutageEvent> rsuOutages;
};

/// Everything there is to know about one vehicle, as a pure hash of
/// (config.seed, id) — shards recompute specs instead of shipping them.
struct VehicleSpec {
  double speedMps{0.0};
  bool eastbound{true};
  double entryX{0.0};         ///< position at entry time, metres
  std::uint32_t entryEpoch{0};
  std::uint32_t departEpoch{0xffff'ffffu};  ///< scripted leave (churn)
  bool attacker{false};
};

[[nodiscard]] VehicleSpec vehicleSpec(const CorridorConfig& config,
                                      std::uint32_t id);

/// Vehicle x at simulated time `atUs` (entry position + constant velocity).
[[nodiscard]] double vehicleX(const VehicleSpec& spec, std::int64_t atUs);

inline constexpr double kSegmentLengthM = 1000.0;
inline constexpr double kSegmentYSpacingM = 3000.0;
inline constexpr std::int64_t kEpochUs = 1'000'000;

inline constexpr std::uint64_t kVehicleAddressBase = 0x1'0000'0000ull;
inline constexpr std::uint64_t kRsuAddressBase = 0x2'0000'0000ull;
inline constexpr std::uint64_t kFakeAddressBase = 0x3'0000'0000ull;

[[nodiscard]] inline common::Address vehicleAddress(std::uint32_t id) {
  return common::Address{kVehicleAddressBase + id};
}
[[nodiscard]] inline common::Address rsuAddress(std::uint32_t segment) {
  return common::Address{kRsuAddressBase + segment};
}

/// Cross-segment envelope kinds (shard::Envelope::kind).
enum class CorridorEnvelopeKind : std::uint8_t {
  kMigration = 1,      ///< vehicle crossed a boundary: id + blacklist
  kSessionHandoff,     ///< a handed-off DetectionSession chasing its suspect
  kRevocation,         ///< directional isolation gossip: suspect + dir + ttl
};

// ----------------------------------------------------------- canonical log

/// One compact control-plane record. The per-segment streams of these,
/// concatenated segment-ascending, form the partition-invariant canonical
/// trace the byte-identity tests compare.
struct CorridorLogRecord {
  std::uint32_t epoch{0};
  std::uint8_t kind{0};  ///< CorridorLogKind
  std::uint64_t a{0};
  std::uint64_t b{0};
  std::uint64_t value{0};

  friend bool operator==(const CorridorLogRecord&,
                         const CorridorLogRecord&) = default;
};

enum class CorridorLogKind : std::uint8_t {
  kJoin = 1,
  kLeave,
  kMigrateOut,
  kMigrateIn,
  kReport,
  kProbe,
  kViolation,
  kVerdict,
  kIsolation,
  kHandoffOut,
  kHandoffIn,
  kRevocationApplied,
};

[[nodiscard]] std::string_view toString(CorridorLogKind kind);

// ------------------------------------------------------------ shard world

/// One region of the corridor: a private Simulator + WirelessMedium + RSUs
/// + currently-resident vehicles for a contiguous span of segments.
class CorridorShard final : public shard::ShardWorld {
 public:
  CorridorShard(const CorridorConfig& config, std::uint32_t firstSegment,
                std::uint32_t segmentCount);
  ~CorridorShard() override;

  void runEpoch(std::uint32_t epoch, std::span<const shard::Envelope> inbox,
                std::vector<shard::Envelope>& outbox) override;

  /// Serializes the shard's complete epoch-boundary state: per-segment
  /// isolation lists, detector tables, resident vehicles (id,
  /// motion anchor, blacklist), the full canonical log, the metrics
  /// registry, and the effective medium stats. Everything transient
  /// (digests, chains, ack timers) is dead at a boundary by construction,
  /// so it is not saved.
  void saveState(common::ByteWriter& writer) const;

  /// Inverse of saveState into a freshly constructed shard. Restored
  /// vehicles re-anchor their LinearMotion at the ORIGINAL anchor time, so
  /// positions stay bit-identical to the uninterrupted run. A resident
  /// vehicle must have entered, not departed, and sit inside its segment at
  /// the restored boundary — which also keeps every id in one shard only.
  void restoreState(common::ByteReader& reader);

  /// Checks a restored inbox of this shard: every body decodes as runEpoch
  /// applies it, and a migrating vehicle is in the fleet, resident nowhere,
  /// and where the uninterrupted run has it. Throws otherwise.
  void checkInbox(std::span<const shard::Envelope> inbox) const;

  /// Folds medium stats into the registry; call once, after the final
  /// epoch. gridRebuilds is deliberately NOT folded — it depends
  /// on per-shard attach patterns and is the one non-invariant medium stat.
  void foldFinalStats();

  [[nodiscard]] const obs::MetricsRegistry& metrics() const { return metrics_; }
  /// Effective medium stats: live counters plus the restored baseline of
  /// every pre-checkpoint epoch.
  [[nodiscard]] net::MediumStats mediumStats() const;
  [[nodiscard]] std::uint32_t firstSegment() const { return firstSegment_; }
  /// The epoch the shard's clock stands at (the next one it runs).
  [[nodiscard]] std::uint32_t clockEpoch() const {
    return static_cast<std::uint32_t>(sim_.now().us() / kEpochUs);
  }
  [[nodiscard]] std::uint32_t segmentCount() const {
    return static_cast<std::uint32_t>(segments_.size());
  }
  /// Canonical log of global segment `segment` (owned by this shard).
  [[nodiscard]] const std::vector<CorridorLogRecord>& segmentLog(
      std::uint32_t segment) const;

  /// Read-only walk over owned segments ascending: global index, isolation
  /// list, detector — the soak invariants' inspection surface.
  void forEachSegment(
      const std::function<void(std::uint32_t segment,
                               const std::vector<common::Address>& isolated,
                               const core::LiteDetector& detector)>& fn) const;

 private:
  struct Vehicle;
  struct Segment;

  Segment& segmentAt(std::uint32_t globalSegment);
  void applyEnvelope(const shard::Envelope& envelope);
  void beginEpoch(Segment& segment, std::uint32_t epoch);
  void endEpoch(Segment& segment, std::uint32_t epoch);
  void spawnVehicle(Segment& segment, std::uint32_t id,
                    std::vector<common::Address> blacklist,
                    CorridorLogKind logKind, std::uint32_t epoch);
  void buildVehicle(Segment& segment, std::uint32_t id,
                    std::vector<common::Address> blacklist,
                    std::int64_t anchorUs);
  void emit(Segment& from, std::uint32_t dstSegment, CorridorEnvelopeKind kind,
            common::Bytes body);
  void installRsuHandlers(Segment& segment);
  void installVehicleHandlers(Segment& segment, Vehicle& vehicle);
  [[nodiscard]] core::LiteDetector::Hooks detectorHooks(Segment& segment);
  /// Puts every probe armed since the last epoch start on the air.
  void transmitProbes(Segment& segment, std::uint32_t epoch);
  /// Drops `suspect` from future digests, announces it in-segment, and
  /// gossips its revocation two segments each way.
  void isolate(Segment& segment, common::Address suspect);
  void gossipRevocation(Segment& from, common::Address suspect,
                        std::uint8_t direction, std::uint8_t ttl);
  /// The adjacent segment that way, unless the corridor ends there.
  [[nodiscard]] std::optional<std::uint32_t> neighbour(const Segment& segment,
                                                       bool eastward) const;
  void startDataChain(Segment& segment, Vehicle& vehicle, std::uint32_t epoch);
  /// True while `segment`'s RSU is scripted dark for `epoch`.
  [[nodiscard]] bool rsuDark(std::uint32_t segment, std::uint32_t epoch) const;

  CorridorConfig config_;
  std::uint32_t firstSegment_;
  sim::Simulator sim_;
  net::WirelessMedium medium_;
  obs::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<Segment>> segments_;
  /// entrants_[epoch] = vehicle ids entering an owned segment, sorted;
  /// precomputed so beginEpoch never scans the whole fleet.
  std::vector<std::vector<std::uint32_t>> entrants_;
  std::vector<shard::Envelope>* outbox_{nullptr};
  std::uint32_t currentEpoch_{0};
  bool folded_{false};
  bool epochsRun_{false};  ///< guards restoreState into a used shard
  /// Medium stats accumulated before the restore point (restoreState sets
  /// it; the live medium counts only post-restore traffic).
  net::MediumStats mediumBaseline_{};
};

// ------------------------------------------------------------------ world

/// The whole corridor: builds the plan, the shards, and the
/// ShardedSimulation on a borrowed thread pool, and exposes the two
/// partition-invariant surfaces (metrics JSON, canonical log) plus the
/// machine-dependent shard stats for the bench sidecar.
class CorridorWorld {
 public:
  CorridorWorld(CorridorConfig config, std::uint32_t shards,
                sim::ThreadPool& pool);
  ~CorridorWorld();

  /// Runs up to the ABSOLUTE epoch target (so a restored world continues
  /// from its checkpoint), then folds final stats. Equivalent to
  /// `while (nextEpoch() < epochs) step(); finish();`.
  void run(std::uint32_t epochs);

  /// Advances one epoch across all shards and exchanges its envelopes.
  void step();

  /// Folds final stats into the per-shard registries; idempotent. The
  /// metrics surfaces are meaningful only after this.
  void finish();

  /// The next epoch step() would run (== epochs completed so far).
  [[nodiscard]] std::uint32_t nextEpoch() const;

  /// Serializes the whole world at the current epoch boundary as a BDPC
  /// checkpoint envelope: config hash + per-shard state + the in-flight
  /// cross-shard inboxes.
  [[nodiscard]] common::Bytes saveCheckpoint() const;

  /// Restores a saveCheckpoint blob into this FRESHLY CONSTRUCTED world
  /// (same config, same shard count — both enforced via the config hash).
  /// Returns the typed decode error ("bad-magic", "bad-crc", ...),
  /// "config-mismatch", or "malformed" (also for bytes a save would not
  /// write) on failure; the world must be discarded after a failed restore.
  [[nodiscard]] common::Status restoreCheckpoint(
      std::span<const std::uint8_t> blob);

  /// Read-only walk over ALL segments ascending (soak invariants).
  void forEachSegment(
      const std::function<void(std::uint32_t segment,
                               const std::vector<common::Address>& isolated,
                               const core::LiteDetector& detector)>& fn) const;

  /// Hard invariants at an epoch boundary (empty = healthy):
  ///   honest-isolation  every isolated address belongs to a scripted
  ///                     attacker (vehicleSpec(seed, id).attacker): the
  ///                     detector never convicts an honest vehicle;
  ///   tables-drained    every live detection session respects its budgets
  ///                     (resends left <= the stage's retry budget,
  ///                     forwards <= maxForwards) and the total session
  ///                     count never exceeds the fleet.
  [[nodiscard]] std::vector<std::string> checkInvariants() const;

  /// Deterministic, partition-invariant: merged per-shard registries
  /// (segment-ascending) rendered as a metrics snapshot JSON document.
  [[nodiscard]] std::string metricsJson() const;

  /// Same merged registry as metricsJson, as a snapshot (for bench JSON).
  [[nodiscard]] obs::Snapshot metricsSnapshot() const;

  /// Deterministic, partition-invariant: per-segment control-plane records,
  /// segments ascending, one line each.
  [[nodiscard]] std::string canonicalLog() const;

  /// Deterministic: total medium deliveries (for bench fps).
  [[nodiscard]] std::uint64_t framesDelivered() const;

  /// Machine-dependent: per-shard busy seconds + envelope counts.
  [[nodiscard]] const shard::ShardStats& shardStats() const;

  [[nodiscard]] std::uint32_t shards() const;

 private:
  /// Pure hash over every behavior-determining config field (seed, sizes,
  /// permilles, shard count, RSU outages) —
  /// the resume guard in the checkpoint meta section.
  [[nodiscard]] std::uint64_t configHash() const;

  CorridorConfig config_;
  shard::ShardPlan plan_;
  std::vector<std::unique_ptr<CorridorShard>> shards_;
  std::optional<shard::ShardedSimulation> sharded_;
  bool finished_{false};
};

}  // namespace blackdp::scenario
