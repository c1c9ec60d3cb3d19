#include "scenario/corridor_world.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/assert.hpp"
#include "common/address_registry.hpp"
#include "common/bytes.hpp"
#include "codec/checkpoint.hpp"
#include "mobility/motion.hpp"
#include "sim/rng.hpp"

namespace blackdp::scenario {
namespace {

/// The corridor's only "randomness": a pure stateless hash of
/// (seed, entity, epoch-or-zero, purpose). Pure functions are what make the
/// world partition-invariant — no shard ever consumes another's draws.
std::uint64_t corridorHash(std::uint64_t seed, std::uint64_t entity,
                           std::uint64_t epoch, std::uint64_t purpose) {
  std::uint64_t h = common::mixAddress(seed + (purpose + 1) *
                                                  0x9e3779b97f4a7c15ull);
  h = common::mixAddress(h ^ (entity + 0x9e3779b97f4a7c15ull));
  h = common::mixAddress(h ^ (epoch + 0xbf58476d1ce4e5b9ull));
  return h;
}

void insertSorted(std::vector<common::Address>& sorted,
                  common::Address value) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), value);
  if (it == sorted.end() || *it != value) sorted.insert(it, value);
}

[[nodiscard]] bool containsSorted(const std::vector<common::Address>& sorted,
                                  common::Address value) {
  return std::binary_search(sorted.begin(), sorted.end(), value);
}

constexpr std::uint32_t kNeverDeparts = 0xffff'ffffu;

/// Effective supervisor snapshot interval: explicit setting wins; otherwise
/// supervision turns on (every 2 epochs) iff shard crashes are scripted.
std::uint32_t effectiveSupervisionEvery(const CorridorConfig& config) {
  if (config.supervisionEvery != 0) return config.supervisionEvery;
  return config.faults.shardCrashes.empty() ? 0u : 2u;
}

net::MediumConfig corridorMediumConfig() {
  net::MediumConfig config;
  config.transmissionRangeM = 1000.0;
  // Jitter and loss OFF: with both zero the medium draws no RNG at all, so
  // delivery timing is a pure function of the send sequence — required for
  // the shards=1 == shards=N byte-identity guarantee.
  config.maxJitter = sim::Duration{};
  config.lossProbability = 0.0;
  config.spatialGrid = true;
  return config;
}

}  // namespace

VehicleSpec vehicleSpec(const CorridorConfig& config, std::uint32_t id) {
  VehicleSpec spec;
  const std::uint64_t h1 = corridorHash(config.seed, id, 0, 1);
  spec.speedMps = mobility::kmhToMps(50.0 + static_cast<double>(h1 % 41));
  spec.eastbound = ((h1 >> 8) & 1) == 0;
  const double lengthM = config.segments * kSegmentLengthM;
  const std::uint64_t h2 = corridorHash(config.seed, id, 0, 2);
  // Integral metres + 0.5 so an entry point never sits exactly on a
  // segment boundary.
  spec.entryX =
      0.5 + static_cast<double>(h2 % static_cast<std::uint64_t>(lengthM - 1.0));
  const std::uint64_t h3 = corridorHash(config.seed, id, 0, 3);
  spec.entryEpoch = (h3 % 10) < 8 ? 0 : 1 + static_cast<std::uint32_t>(
                                                (h3 >> 8) % 5);
  const std::uint64_t h4 = corridorHash(config.seed, id, 0, 4);
  spec.departEpoch = (h4 % 1000) < config.departPermille
                         ? 6 + static_cast<std::uint32_t>((h4 >> 10) % 4)
                         : kNeverDeparts;
  const std::uint64_t h5 = corridorHash(config.seed, id, 0, 5);
  spec.attacker = (h5 % 1000) < config.attackerPermille;
  return spec;
}

double vehicleX(const VehicleSpec& spec, std::int64_t atUs) {
  const std::int64_t entryUs =
      static_cast<std::int64_t>(spec.entryEpoch) * kEpochUs;
  const double dx =
      spec.speedMps * (static_cast<double>(atUs - entryUs) / 1e6);
  return spec.entryX + (spec.eastbound ? dx : -dx);
}

std::string_view toString(CorridorLogKind kind) {
  switch (kind) {
    case CorridorLogKind::kJoin: return "join";
    case CorridorLogKind::kLeave: return "leave";
    case CorridorLogKind::kMigrateOut: return "migrate-out";
    case CorridorLogKind::kMigrateIn: return "migrate-in";
    case CorridorLogKind::kReport: return "report";
    case CorridorLogKind::kProbe: return "probe";
    case CorridorLogKind::kViolation: return "violation";
    case CorridorLogKind::kVerdict: return "verdict";
    case CorridorLogKind::kIsolation: return "isolation";
    case CorridorLogKind::kHandoffOut: return "handoff-out";
    case CorridorLogKind::kHandoffIn: return "handoff-in";
    case CorridorLogKind::kRevocationApplied: return "revocation";
  }
  return "?";
}

// ----------------------------------------------------------- CorridorShard

struct CorridorShard::Vehicle {
  std::uint32_t id{0};
  VehicleSpec spec;
  /// Time the current LinearMotion was anchored (spawn or migrate-in).
  /// Checkpointed: a restored vehicle MUST re-anchor at this original
  /// instant — anchoring at restore time would split one x = x0 + v*dt
  /// into two float additions and break bit-identity.
  std::int64_t anchorUs{0};
  std::unique_ptr<net::BasicNode> node;
  std::shared_ptr<const CorridorDigest> digest;
  std::vector<common::Address> blacklist;  ///< sorted; migrates with vehicle
  std::uint64_t pendingChain{0};
  common::Address pendingRelay{};
  sim::EventHandle ackTimer{};
};

struct CorridorShard::Segment {
  std::uint32_t index{0};  ///< global segment id
  std::unique_ptr<net::BasicNode> rsu;
  std::unique_ptr<core::LiteDetector> detector;
  /// Resident vehicles, keyed (and scanned) by id — deterministic order.
  std::map<std::uint32_t, std::unique_ptr<Vehicle>> vehicles;
  std::vector<common::Address> isolated;  ///< sorted; excluded from digests
  std::vector<CorridorLogRecord> log;
  std::uint32_t seq{0};  ///< envelope emission counter, reset each epoch
};

CorridorShard::CorridorShard(const CorridorConfig& config,
                             std::uint32_t firstSegment,
                             std::uint32_t segmentCount)
    : config_{config},
      firstSegment_{firstSegment},
      medium_{sim_, sim::Rng{config.seed ^ 0xC0441D04ull},
              corridorMediumConfig()} {
  // Satellite contract: pre-size the medium's interning tables for the
  // whole fleet before the attach storm (bench/micro_substrates measures
  // what this saves). Over-reserving for a small shard costs a few KB.
  medium_.reserve(config_.vehicles + segmentCount + 1,
                  config_.vehicles + segmentCount + 1);

  segments_.reserve(segmentCount);
  for (std::uint32_t s = 0; s < segmentCount; ++s) {
    const std::uint32_t index = firstSegment_ + s;
    auto segment = std::make_unique<Segment>();
    segment->index = index;
    const mobility::Position rsuPos{index * kSegmentLengthM +
                                        kSegmentLengthM / 2,
                                    index * kSegmentYSpacingM};
    segment->rsu = std::make_unique<net::BasicNode>(
        sim_, medium_, common::NodeId{1'000'000 + index},
        mobility::LinearMotion::stationary(rsuPos));
    segment->rsu->setLocalAddress(rsuAddress(index));

    Segment* seg = segment.get();
    core::LiteDetector::Hooks hooks;
    hooks.sendProbe = [this, seg](const core::LiteSessionState& state) {
      const common::Address suspect = state.suspect;
      const std::uint64_t h =
          corridorHash(config_.seed, suspect.value(), currentEpoch_, 13);
      const std::uint64_t probeId =
          corridorHash(config_.seed, suspect.value(), currentEpoch_, 14);
      seg->log.push_back({currentEpoch_,
                          static_cast<std::uint8_t>(CorridorLogKind::kProbe),
                          suspect.value(), 0, state.probesSent});
      sim_.schedule(
          sim::Duration::microseconds(400'000 +
                                      static_cast<std::int64_t>(h % 100'000)),
          [seg, suspect, probeId] {
            seg->rsu->sendTo(suspect,
                             net::makePayload<CorridorProbe>(
                                 probeId, common::Address{kFakeAddressBase +
                                                          (probeId & 0xffff)}));
          });
    };
    hooks.onVerdict = [this, seg](const core::LiteSessionState& state,
                                  core::LiteVerdict verdict) {
      const std::int64_t latencyUs =
          sim_.now().us() - state.firstReportAtUs;
      seg->log.push_back(
          {currentEpoch_,
           static_cast<std::uint8_t>(CorridorLogKind::kVerdict),
           state.suspect.value(), static_cast<std::uint64_t>(verdict),
           static_cast<std::uint64_t>(latencyUs)});
      if (verdict != core::LiteVerdict::kConfirmed) return;
      // Whole milliseconds: integer-valued doubles sum exactly, so the
      // merged histogram sum is independent of observation order — fractional
      // latencies would make shards=1 vs shards=N differ in the last ulp.
      metrics_
          .histogram("corridor.detection_latency_ms", obs::latencyBucketsMs())
          .observe(static_cast<double>(latencyUs / 1000));
      insertSorted(seg->isolated, state.suspect);
      seg->rsu->broadcast(net::makePayload<CorridorIsolation>(state.suspect));
      metrics_.counter("corridor.isolation_broadcasts").add(1);
      seg->log.push_back(
          {currentEpoch_,
           static_cast<std::uint8_t>(CorridorLogKind::kIsolation),
           state.suspect.value(), 0, 0});
      for (const std::uint8_t dir : {std::uint8_t{0}, std::uint8_t{1}}) {
        const std::int64_t next = dir == 0
                                      ? static_cast<std::int64_t>(seg->index) + 1
                                      : static_cast<std::int64_t>(seg->index) - 1;
        if (next < 0 || next >= static_cast<std::int64_t>(config_.segments)) {
          continue;
        }
        common::ByteWriter w;
        w.writeId(state.suspect);
        w.writeU8(dir);
        w.writeU8(2);  // ttl: isolation gossips two segments each way
        emit(*seg, static_cast<std::uint32_t>(next),
             CorridorEnvelopeKind::kRevocation, std::move(w).take());
      }
    };
    hooks.onHandoff = [this, seg](const core::LiteSessionState& state) {
      const std::int64_t next =
          state.travelDirection == 0
              ? static_cast<std::int64_t>(seg->index) + 1
              : static_cast<std::int64_t>(seg->index) - 1;
      if (next < 0 || next >= static_cast<std::int64_t>(config_.segments)) {
        metrics_.counter("corridor.handoffs_dropped").add(1);
        return;
      }
      seg->log.push_back(
          {currentEpoch_,
           static_cast<std::uint8_t>(CorridorLogKind::kHandoffOut),
           state.suspect.value(), static_cast<std::uint64_t>(next),
           state.forwards});
      common::ByteWriter w;
      state.serialize(w);
      emit(*seg, static_cast<std::uint32_t>(next),
           CorridorEnvelopeKind::kSessionHandoff, std::move(w).take());
    };
    segment->detector = std::make_unique<core::LiteDetector>(config_.detector,
                                                             std::move(hooks));
    installRsuHandlers(*segment);
    segments_.push_back(std::move(segment));
  }

  // Precompute entrants per entry epoch (0..5) for the owned segments, in
  // ascending id order, so beginEpoch never rescans the fleet.
  entrants_.resize(6);
  for (std::uint32_t id = 0; id < config_.vehicles; ++id) {
    const VehicleSpec spec = vehicleSpec(config_, id);
    const auto entrySegment =
        static_cast<std::uint32_t>(spec.entryX / kSegmentLengthM);
    if (entrySegment < firstSegment_ ||
        entrySegment >= firstSegment_ + segmentCount) {
      continue;
    }
    entrants_[spec.entryEpoch].push_back(id);
  }
}

CorridorShard::~CorridorShard() = default;

CorridorShard::Segment& CorridorShard::segmentAt(std::uint32_t globalSegment) {
  BDP_ASSERT_MSG(globalSegment >= firstSegment_ &&
                     globalSegment < firstSegment_ + segments_.size(),
                 "segment not owned by this shard");
  return *segments_[globalSegment - firstSegment_];
}

const std::vector<CorridorLogRecord>& CorridorShard::segmentLog(
    std::uint32_t segment) const {
  BDP_ASSERT(segment >= firstSegment_ &&
             segment < firstSegment_ + segments_.size());
  return segments_[segment - firstSegment_]->log;
}

net::MediumStats CorridorShard::mediumStats() const {
  const net::MediumStats& live = medium_.stats();
  net::MediumStats total = mediumBaseline_;
  total.framesSent += live.framesSent;
  total.framesDelivered += live.framesDelivered;
  total.framesLost += live.framesLost;
  total.framesFaultDropped += live.framesFaultDropped;
  total.framesBurstDropped += live.framesBurstDropped;
  total.framesJamDropped += live.framesJamDropped;
  total.sendFailures += live.sendFailures;
  total.bytesSent += live.bytesSent;
  total.gridRebuilds += live.gridRebuilds;
  return total;
}

bool CorridorShard::rsuDark(std::uint32_t segment, std::uint32_t epoch) const {
  for (const fault::SegmentRsuOutageEvent& outage : config_.faults.rsuOutages) {
    if (outage.segment == segment && epoch >= outage.fromEpoch &&
        epoch < outage.untilEpoch) {
      return true;
    }
  }
  return false;
}

void CorridorShard::forEachSegment(
    const std::function<void(std::uint32_t segment,
                             const std::vector<common::Address>& isolated,
                             const core::LiteDetector& detector)>& fn) const {
  for (const auto& segment : segments_) {
    fn(segment->index, segment->isolated, *segment->detector);
  }
}

void CorridorShard::installRsuHandlers(Segment& segment) {
  Segment* seg = &segment;
  segment.rsu->addHandler([this, seg](const net::Frame& frame) {
    // A dark RSU is off the air: frames are consumed but never observed, so
    // no reports, no probes, no verdicts originate here during an outage.
    if (rsuDark(seg->index, currentEpoch_)) return true;
    switch (frame.payload->kind()) {
      case net::PayloadKind::kCorridorBeacon:
        metrics_.counter("corridor.beacons").add(1);
        return true;
      case net::PayloadKind::kCorridorReport: {
        const auto* report =
            static_cast<const CorridorReport*>(frame.payload.get());
        metrics_.counter("corridor.reports").add(1);
        seg->log.push_back(
            {currentEpoch_,
             static_cast<std::uint8_t>(CorridorLogKind::kReport),
             report->suspect.value(), frame.src.value(), report->chainId});
        if (containsSorted(seg->isolated, report->suspect)) return true;
        const auto suspectId = static_cast<std::uint32_t>(
            report->suspect.value() - kVehicleAddressBase);
        const VehicleSpec spec = vehicleSpec(config_, suspectId);
        seg->detector->report(report->suspect, frame.src, sim_.now().us(),
                              spec.eastbound ? 0 : 1);
        return true;
      }
      case net::PayloadKind::kCorridorProbeReply: {
        const auto* reply =
            static_cast<const CorridorProbeReply*>(frame.payload.get());
        seg->log.push_back(
            {currentEpoch_,
             static_cast<std::uint8_t>(CorridorLogKind::kViolation),
             frame.src.value(), 0, reply->probeId});
        seg->detector->onProbeReply(frame.src);
        return true;
      }
      default:
        return false;
    }
  });
  segment.rsu->addFailureHandler([this, seg](const net::Frame& frame) {
    if (rsuDark(seg->index, currentEpoch_)) return;
    if (frame.payload->kind() == net::PayloadKind::kCorridorProbe) {
      seg->detector->onProbeUnreachable(frame.dst);
    }
  });
}

void CorridorShard::buildVehicle(Segment& segment, std::uint32_t id,
                                 std::vector<common::Address> blacklist,
                                 std::int64_t anchorUs) {
  auto vehicle = std::make_unique<Vehicle>();
  vehicle->id = id;
  vehicle->spec = vehicleSpec(config_, id);
  vehicle->anchorUs = anchorUs;
  vehicle->blacklist = std::move(blacklist);
  const double x = vehicleX(vehicle->spec, anchorUs);
  const double vx = vehicle->spec.eastbound ? vehicle->spec.speedMps
                                            : -vehicle->spec.speedMps;
  vehicle->node = std::make_unique<net::BasicNode>(
      sim_, medium_, common::NodeId{1 + id},
      mobility::LinearMotion::withVelocity(
          {x, segment.index * kSegmentYSpacingM}, vx, 0.0,
          sim::TimePoint::fromUs(anchorUs)));
  vehicle->node->setLocalAddress(vehicleAddress(id));
  installVehicleHandlers(segment, *vehicle);
  segment.vehicles.emplace(id, std::move(vehicle));
}

void CorridorShard::spawnVehicle(Segment& segment, std::uint32_t id,
                                 std::vector<common::Address> blacklist,
                                 CorridorLogKind logKind, std::uint32_t epoch) {
  buildVehicle(segment, id, std::move(blacklist), sim_.now().us());
  segment.log.push_back({epoch, static_cast<std::uint8_t>(logKind),
                         vehicleAddress(id).value(), 0, 0});
  if (logKind == CorridorLogKind::kJoin) {
    metrics_.counter("corridor.joins").add(1);
  }
}

void CorridorShard::installVehicleHandlers(Segment& /*segment*/,
                                           Vehicle& vehicle) {
  Vehicle* v = &vehicle;
  vehicle.node->addHandler([this, v](const net::Frame& frame) {
    switch (frame.payload->kind()) {
      case net::PayloadKind::kCorridorDigest:
        v->digest =
            std::static_pointer_cast<const CorridorDigest>(frame.payload);
        return true;
      case net::PayloadKind::kCorridorBeacon:
        return true;
      case net::PayloadKind::kCorridorData: {
        const auto* data =
            static_cast<const CorridorData*>(frame.payload.get());
        const common::Address self = v->node->localAddress();
        if (data->hop == 0 && data->relay == self) {
          if (v->spec.attacker) {
            // The black hole: accept the packet, forward nothing.
            metrics_.counter("corridor.blackhole_drops").add(1);
            return true;
          }
          v->node->sendTo(data->finalDst,
                          net::makePayload<CorridorData>(
                              data->chainId, data->origin, data->relay,
                              data->finalDst, 1));
          return true;
        }
        if (data->hop == 1 && data->finalDst == self) {
          v->node->sendTo(data->origin,
                          net::makePayload<CorridorAck>(data->chainId));
          return true;
        }
        return true;
      }
      case net::PayloadKind::kCorridorAck: {
        const auto* ack = static_cast<const CorridorAck*>(frame.payload.get());
        if (ack->chainId == v->pendingChain && v->pendingChain != 0) {
          v->pendingChain = 0;
          v->node->simulator().cancel(v->ackTimer);
          metrics_.counter("corridor.data_acked").add(1);
        }
        return true;
      }
      case net::PayloadKind::kCorridorProbe: {
        if (v->spec.attacker) {
          // Claims it delivered to the nonexistent destination — the
          // fingerprint the probe exists to elicit.
          const auto* probe =
              static_cast<const CorridorProbe*>(frame.payload.get());
          v->node->sendTo(frame.src,
                          net::makePayload<CorridorProbeReply>(probe->probeId));
        }
        return true;
      }
      case net::PayloadKind::kCorridorIsolation: {
        const auto* iso =
            static_cast<const CorridorIsolation*>(frame.payload.get());
        insertSorted(v->blacklist, iso->suspect);
        return true;
      }
      default:
        return false;
    }
  });
  vehicle.node->addFailureHandler([this, v](const net::Frame& frame) {
    // Origin-to-relay MAC failure: the relay never got the packet, so an
    // accusation would be baseless — the chain is abandoned instead.
    if (frame.payload->kind() != net::PayloadKind::kCorridorData) return;
    const auto* data = static_cast<const CorridorData*>(frame.payload.get());
    if (data->hop == 0 && data->chainId == v->pendingChain &&
        v->pendingChain != 0) {
      v->pendingChain = 0;
      v->node->simulator().cancel(v->ackTimer);
      metrics_.counter("corridor.chain_send_failed").add(1);
    }
  });
}

void CorridorShard::startDataChain(Segment& /*segment*/, Vehicle& vehicle,
                                   std::uint32_t epoch) {
  // A stale digest (previous epoch, or restored-from-checkpoint null) must
  // not seed a chain: membership may have changed, and a dark RSU issues no
  // digest at all — both cases correctly suppress this epoch's traffic.
  if (vehicle.digest == nullptr || vehicle.digest->epoch != epoch ||
      vehicle.digest->members.size() < 3) {
    return;
  }
  const common::Address self = vehicle.node->localAddress();
  const auto& members = vehicle.digest->members;
  const auto pick = [&](std::uint64_t h, common::Address avoid) {
    const std::size_t n = members.size();
    std::size_t i = static_cast<std::size_t>(h % n);
    for (std::size_t step = 0; step < n; ++step, i = (i + 1) % n) {
      const common::Address candidate = members[i];
      if (candidate == self || candidate == avoid) continue;
      if (containsSorted(vehicle.blacklist, candidate)) continue;
      return candidate;
    }
    return common::kNullAddress;
  };
  const std::uint64_t h = corridorHash(config_.seed, vehicle.id, epoch, 12);
  const common::Address relay =
      pick(h, common::kNullAddress);
  if (relay == common::kNullAddress) return;
  const common::Address finalDst = pick(h >> 16, relay);
  if (finalDst == common::kNullAddress) return;

  const std::uint64_t chainId =
      (static_cast<std::uint64_t>(vehicle.id) << 20) | epoch;
  vehicle.pendingChain = chainId;
  vehicle.pendingRelay = relay;
  metrics_.counter("corridor.data_chains").add(1);
  vehicle.node->sendTo(
      relay, net::makePayload<CorridorData>(chainId, self, relay, finalDst, 0));
  Vehicle* v = &vehicle;
  vehicle.ackTimer =
      sim_.schedule(sim::Duration::milliseconds(200), [this, v, chainId] {
        if (v->pendingChain != chainId) return;
        v->pendingChain = 0;
        metrics_.counter("corridor.data_dropped").add(1);
        if (v->digest != nullptr) {
          v->node->sendTo(v->digest->rsu, net::makePayload<CorridorReport>(
                                              v->pendingRelay, chainId));
        }
      });
}

void CorridorShard::beginEpoch(Segment& segment, std::uint32_t epoch) {
  // A dark RSU issues no digest and runs no detector round. Vehicles still
  // beacon and try to chain, but the digest-epoch gate suppresses chains, so
  // the dark segment generates no reports — only envelope-borne effects
  // (revocation gossip, migrations, handoffs) advance its state.
  if (!rsuDark(segment.index, epoch)) {
    // Member digest at +200 us: membership is fixed for the whole epoch, so
    // the payload is built now and shared by every receiver.
    std::vector<common::Address> members;
    members.reserve(segment.vehicles.size());
    for (const auto& [id, vehicle] : segment.vehicles) {
      const common::Address address = vehicleAddress(id);
      if (!containsSorted(segment.isolated, address)) {
        members.push_back(address);
      }
    }
    const net::PayloadPtr digest = net::makePayload<CorridorDigest>(
        segment.index, epoch, rsuAddress(segment.index), std::move(members));
    net::BasicNode* rsu = segment.rsu.get();
    sim_.schedule(sim::Duration::microseconds(200),
                  [rsu, digest] { rsu->broadcast(digest); });

    // One probe round per live session; absent suspects hand off.
    segment.detector->beginEpoch([&segment](common::Address suspect) {
      if (suspect.value() < kVehicleAddressBase) return false;
      const auto id =
          static_cast<std::uint32_t>(suspect.value() - kVehicleAddressBase);
      return segment.vehicles.find(id) != segment.vehicles.end();
    });
  }

  // Per-vehicle traffic: a beacon each, a data chain for roughly half.
  for (const auto& [id, vehiclePtr] : segment.vehicles) {
    Vehicle* vehicle = vehiclePtr.get();
    const std::uint64_t hb = corridorHash(config_.seed, id, epoch, 10);
    sim_.schedule(sim::Duration::microseconds(
                      1000 + static_cast<std::int64_t>(hb % 4000)),
                  [vehicle] {
                    vehicle->node->broadcast(
                        net::makePayload<CorridorBeacon>());
                  });
    const std::uint64_t hd = corridorHash(config_.seed, id, epoch, 11);
    if (hd % 100 < 50) {
      Segment* seg = &segment;
      sim_.schedule(
          sim::Duration::microseconds(
              10'000 + static_cast<std::int64_t>((hd >> 8) % 290'000)),
          [this, seg, vehicle, epoch] {
            startDataChain(*seg, *vehicle, epoch);
          });
    }
  }
}

void CorridorShard::endEpoch(Segment& segment, std::uint32_t epoch) {
  const std::int64_t nowUs = sim_.now().us();
  const double lengthM = config_.segments * kSegmentLengthM;
  std::vector<std::uint32_t> leaving;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> migrating;
  for (const auto& [id, vehicle] : segment.vehicles) {
    const double x = vehicleX(vehicle->spec, nowUs);
    if (vehicle->spec.departEpoch == epoch || x < 0.0 || x >= lengthM) {
      leaving.push_back(id);
      continue;
    }
    const auto newSegment = static_cast<std::uint32_t>(x / kSegmentLengthM);
    if (newSegment != segment.index) migrating.push_back({id, newSegment});
  }
  for (const std::uint32_t id : leaving) {
    segment.log.push_back({epoch,
                           static_cast<std::uint8_t>(CorridorLogKind::kLeave),
                           vehicleAddress(id).value(), 0, 0});
    metrics_.counter("corridor.leaves").add(1);
    segment.vehicles.erase(id);  // ~BasicNode detaches from the medium
  }
  for (const auto& [id, newSegment] : migrating) {
    Vehicle& vehicle = *segment.vehicles.at(id);
    segment.log.push_back(
        {epoch, static_cast<std::uint8_t>(CorridorLogKind::kMigrateOut),
         vehicleAddress(id).value(), newSegment, 0});
    metrics_.counter("corridor.migrations").add(1);
    common::ByteWriter w;
    w.writeU32(id);
    w.writeU32(static_cast<std::uint32_t>(vehicle.blacklist.size()));
    for (const common::Address address : vehicle.blacklist) {
      w.writeId(address);
    }
    emit(segment, newSegment, CorridorEnvelopeKind::kMigration,
         std::move(w).take());
    segment.vehicles.erase(id);
  }
}

void CorridorShard::emit(Segment& from, std::uint32_t dstSegment,
                         CorridorEnvelopeKind kind, common::Bytes body) {
  BDP_ASSERT_MSG(outbox_ != nullptr, "emit outside runEpoch");
  outbox_->push_back({from.index, dstSegment, from.seq++,
                      static_cast<std::uint8_t>(kind), std::move(body)});
}

void CorridorShard::applyEnvelope(const shard::Envelope& envelope) {
  Segment& segment = segmentAt(envelope.dstSegment);
  common::ByteReader reader{envelope.body};
  switch (static_cast<CorridorEnvelopeKind>(envelope.kind)) {
    case CorridorEnvelopeKind::kMigration: {
      const std::uint32_t id = reader.readU32();
      const std::uint32_t count = reader.readU32();
      std::vector<common::Address> blacklist;
      blacklist.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        blacklist.push_back(reader.readId<common::Address>());
      }
      spawnVehicle(segment, id, std::move(blacklist),
                   CorridorLogKind::kMigrateIn, currentEpoch_);
      break;
    }
    case CorridorEnvelopeKind::kSessionHandoff: {
      const core::LiteSessionState state =
          core::LiteSessionState::deserialize(reader);
      if (containsSorted(segment.isolated, state.suspect)) {
        metrics_.counter("corridor.handoffs_dropped").add(1);
        break;
      }
      segment.log.push_back(
          {currentEpoch_,
           static_cast<std::uint8_t>(CorridorLogKind::kHandoffIn),
           state.suspect.value(), envelope.srcSegment, state.forwards});
      segment.detector->adopt(state);
      break;
    }
    case CorridorEnvelopeKind::kRevocation: {
      const auto suspect = reader.readId<common::Address>();
      const std::uint8_t direction = reader.readU8();
      const std::uint8_t ttl = reader.readU8();
      if (!containsSorted(segment.isolated, suspect)) {
        insertSorted(segment.isolated, suspect);
        metrics_.counter("corridor.revocations_applied").add(1);
        segment.log.push_back(
            {currentEpoch_,
             static_cast<std::uint8_t>(CorridorLogKind::kRevocationApplied),
             suspect.value(), direction, ttl});
      }
      if (ttl > 1) {
        const std::int64_t next =
            direction == 0 ? static_cast<std::int64_t>(segment.index) + 1
                           : static_cast<std::int64_t>(segment.index) - 1;
        if (next >= 0 && next < static_cast<std::int64_t>(config_.segments)) {
          common::ByteWriter w;
          w.writeId(suspect);
          w.writeU8(direction);
          w.writeU8(static_cast<std::uint8_t>(ttl - 1));
          emit(segment, static_cast<std::uint32_t>(next),
               CorridorEnvelopeKind::kRevocation, std::move(w).take());
        }
      }
      break;
    }
  }
}

void CorridorShard::runEpoch(std::uint32_t epoch,
                             std::span<const shard::Envelope> inbox,
                             std::vector<shard::Envelope>& outbox) {
  const sim::TimePoint start =
      sim::TimePoint::fromUs(static_cast<std::int64_t>(epoch) * kEpochUs);
  const sim::TimePoint end =
      sim::TimePoint::fromUs(static_cast<std::int64_t>(epoch + 1) * kEpochUs);
  BDP_ASSERT_MSG(sim_.now() == start, "epochs must run in order");

  epochsRun_ = true;
  outbox_ = &outbox;
  currentEpoch_ = epoch;
  for (auto& segment : segments_) segment->seq = 0;

  // 1. Cross-boundary arrivals from the last epoch, in canonical order.
  for (const shard::Envelope& envelope : inbox) applyEnvelope(envelope);

  // 2. Scripted entrants (ascending id; each into its entry segment).
  if (epoch < entrants_.size()) {
    for (const std::uint32_t id : entrants_[epoch]) {
      const VehicleSpec spec = vehicleSpec(config_, id);
      const auto entrySegment =
          static_cast<std::uint32_t>(spec.entryX / kSegmentLengthM);
      spawnVehicle(segmentAt(entrySegment), id, {}, CorridorLogKind::kJoin,
                   epoch);
    }
  }

  // 3. Kick off the epoch's protocol work, segments ascending.
  for (auto& segment : segments_) beginEpoch(*segment, epoch);

  // 4. Run the epoch. Every scheduled chain resolves well before the
  //    boundary (max offset ~501 ms), so the queue must drain — a pending
  //    event here would mean protocol state about to leak across the
  //    barrier outside an envelope.
  sim_.run(end);
  BDP_ASSERT_MSG(sim_.pendingEvents() == 0,
                 "events may not cross an epoch boundary");
  sim_.fastForward(end);

  // 5. Departures and boundary crossings, segments ascending.
  for (auto& segment : segments_) endEpoch(*segment, epoch);

  outbox_ = nullptr;
}

void CorridorShard::foldFinalStats() {
  if (folded_) return;
  folded_ = true;
  for (const auto& segment : segments_) {
    const core::LiteDetector::Stats& stats = segment->detector->stats();
    metrics_.counter("corridor.sessions_opened").add(stats.sessionsOpened);
    metrics_.counter("corridor.duplicate_reports").add(stats.duplicateReports);
    metrics_.counter("corridor.probe_rounds").add(stats.probeRounds);
    metrics_.counter("corridor.violations").add(stats.violations);
    metrics_.counter("corridor.probes_unreachable")
        .add(stats.probesUnreachable);
    metrics_.counter("corridor.confirmed").add(stats.confirmed);
    metrics_.counter("corridor.exonerated").add(stats.exonerated);
    metrics_.counter("corridor.session_unreachable").add(stats.unreachable);
    metrics_.counter("corridor.handoffs_out").add(stats.handoffsOut);
    metrics_.counter("corridor.handoffs_adopted").add(stats.adopted);
  }
  // Medium stats minus gridRebuilds: rebuild cadence depends on per-shard
  // attach/invalidate patterns, so it is the one non-invariant stat.
  const net::MediumStats m = mediumStats();
  metrics_.counter("medium.frames_sent").add(m.framesSent);
  metrics_.counter("medium.frames_delivered").add(m.framesDelivered);
  metrics_.counter("medium.send_failures").add(m.sendFailures);
  metrics_.counter("medium.bytes_sent").add(m.bytesSent);
}

void CorridorShard::saveState(common::ByteWriter& writer) const {
  BDP_ASSERT_MSG(outbox_ == nullptr, "saveState mid-epoch");
  writer.writeI64(sim_.now().us());
  writer.writeU32(static_cast<std::uint32_t>(segments_.size()));
  for (const auto& segment : segments_) {
    writer.writeU32(segment->index);
    writer.writeU32(static_cast<std::uint32_t>(segment->isolated.size()));
    for (const common::Address address : segment->isolated) {
      writer.writeId(address);
    }
    segment->detector->saveState(writer);
    writer.writeU32(static_cast<std::uint32_t>(segment->vehicles.size()));
    for (const auto& [id, vehicle] : segment->vehicles) {
      writer.writeU32(id);
      writer.writeI64(vehicle->anchorUs);
      writer.writeU32(static_cast<std::uint32_t>(vehicle->blacklist.size()));
      for (const common::Address address : vehicle->blacklist) {
        writer.writeId(address);
      }
    }
    writer.writeU32(static_cast<std::uint32_t>(segment->log.size()));
    for (const CorridorLogRecord& record : segment->log) {
      writer.writeU32(record.epoch);
      writer.writeU8(record.kind);
      writer.writeU64(record.a);
      writer.writeU64(record.b);
      writer.writeU64(record.value);
    }
  }
  obs::serializeSnapshot(metrics_.snapshot(), writer);
  // Effective medium stats become the restored shard's baseline; the live
  // medium then counts only post-restore traffic. gridRebuilds is excluded
  // on purpose (non-invariant, never folded).
  const net::MediumStats m = mediumStats();
  writer.writeU64(m.framesSent);
  writer.writeU64(m.framesDelivered);
  writer.writeU64(m.framesLost);
  writer.writeU64(m.framesFaultDropped);
  writer.writeU64(m.framesBurstDropped);
  writer.writeU64(m.framesJamDropped);
  writer.writeU64(m.sendFailures);
  writer.writeU64(m.bytesSent);
}

void CorridorShard::restoreState(common::ByteReader& reader) {
  BDP_ASSERT_MSG(!epochsRun_ && !folded_,
                 "restoreState requires a freshly constructed shard");
  const std::int64_t nowUs = reader.readI64();
  if (nowUs < 0 || nowUs % kEpochUs != 0) {
    throw std::out_of_range{"corridor restore: clock not an epoch boundary"};
  }
  sim_.fastForward(sim::TimePoint::fromUs(nowUs));
  currentEpoch_ = static_cast<std::uint32_t>(nowUs / kEpochUs);
  const std::uint32_t segmentCount = reader.readU32();
  if (segmentCount != segments_.size()) {
    throw std::out_of_range{"corridor restore: segment count mismatch"};
  }
  for (auto& segment : segments_) {
    const std::uint32_t index = reader.readU32();
    if (index != segment->index) {
      throw std::out_of_range{"corridor restore: segment index mismatch"};
    }
    const std::uint32_t isolatedCount = reader.readU32();
    for (std::uint32_t i = 0; i < isolatedCount; ++i) {
      segment->isolated.push_back(reader.readId<common::Address>());
    }
    if (!std::is_sorted(segment->isolated.begin(), segment->isolated.end())) {
      throw std::out_of_range{"corridor restore: isolation list not sorted"};
    }
    segment->detector->restoreState(reader);
    const std::uint32_t vehicleCount = reader.readU32();
    for (std::uint32_t i = 0; i < vehicleCount; ++i) {
      const std::uint32_t id = reader.readU32();
      const std::int64_t anchorUs = reader.readI64();
      const std::uint32_t blacklistCount = reader.readU32();
      std::vector<common::Address> blacklist;
      for (std::uint32_t j = 0; j < blacklistCount; ++j) {
        blacklist.push_back(reader.readId<common::Address>());
      }
      if (id >= config_.vehicles || anchorUs < 0 || anchorUs > nowUs) {
        throw std::out_of_range{"corridor restore: implausible vehicle"};
      }
      buildVehicle(*segment, id, std::move(blacklist), anchorUs);
    }
    const std::uint32_t logCount = reader.readU32();
    segment->log.reserve(logCount < 4096 ? logCount : 4096);
    for (std::uint32_t i = 0; i < logCount; ++i) {
      CorridorLogRecord record;
      record.epoch = reader.readU32();
      record.kind = reader.readU8();
      record.a = reader.readU64();
      record.b = reader.readU64();
      record.value = reader.readU64();
      segment->log.push_back(record);
    }
  }
  metrics_.merge(obs::deserializeSnapshot(reader));
  mediumBaseline_ = net::MediumStats{};
  mediumBaseline_.framesSent = reader.readU64();
  mediumBaseline_.framesDelivered = reader.readU64();
  mediumBaseline_.framesLost = reader.readU64();
  mediumBaseline_.framesFaultDropped = reader.readU64();
  mediumBaseline_.framesBurstDropped = reader.readU64();
  mediumBaseline_.framesJamDropped = reader.readU64();
  mediumBaseline_.sendFailures = reader.readU64();
  mediumBaseline_.bytesSent = reader.readU64();
}

// ----------------------------------------------------------- CorridorWorld

CorridorWorld::CorridorWorld(CorridorConfig config, std::uint32_t shards,
                             sim::ThreadPool& pool)
    : config_{config},
      plan_{shard::ShardPlan::contiguous(config.segments, shards)} {
  shards_.reserve(shards);
  std::vector<shard::ShardWorld*> worlds;
  worlds.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<CorridorShard>(
        config_, plan_.firstSegment(s), plan_.segmentCount(s)));
    worlds.push_back(shards_.back().get());
  }
  shard::ShardedSimulation::Config shardConfig;
  shardConfig.snapshotEvery = effectiveSupervisionEvery(config_);
  sharded_.emplace(plan_, std::move(worlds), pool, shardConfig);
}

CorridorWorld::~CorridorWorld() = default;

void CorridorWorld::run(std::uint32_t epochs) {
  while (nextEpoch() < epochs) step();
  finish();
}

void CorridorWorld::step() {
  BDP_ASSERT_MSG(!finished_, "step after finish");
  const std::uint32_t epoch = sharded_->epoch();
  for (const fault::ShardCrashEvent& crash : config_.faults.shardCrashes) {
    if (crash.epoch != epoch) continue;
    BDP_ASSERT_MSG(crash.shard < plan_.shards(),
                   "scripted crash for a nonexistent shard");
    auto fresh = std::make_unique<CorridorShard>(
        config_, plan_.firstSegment(crash.shard),
        plan_.segmentCount(crash.shard));
    sharded_->restartShard(crash.shard, fresh.get());
    shards_[crash.shard] = std::move(fresh);
  }
  sharded_->runEpoch();
}

void CorridorWorld::finish() {
  if (finished_) return;
  finished_ = true;
  for (auto& shard : shards_) shard->foldFinalStats();
}

std::uint32_t CorridorWorld::nextEpoch() const { return sharded_->epoch(); }

common::Bytes CorridorWorld::saveCheckpoint() const {
  codec::CheckpointBuilder builder;
  {
    common::ByteWriter w;
    w.writeU64(configHash());
    w.writeU64(config_.seed);
    w.writeU32(sharded_->epoch());
    w.writeU32(plan_.shards());
    w.writeU32(config_.segments);
    w.writeU32(config_.vehicles);
    builder.add(codec::CheckpointTag::kCorridorMeta, std::move(w).take());
  }
  for (const auto& shard : shards_) {
    common::ByteWriter w;
    shard->saveState(w);
    builder.add(codec::CheckpointTag::kCorridorShard, std::move(w).take());
  }
  {
    common::ByteWriter w;
    const auto& inboxes = sharded_->inboxes();
    w.writeU32(static_cast<std::uint32_t>(inboxes.size()));
    for (const auto& inbox : inboxes) {
      w.writeU32(static_cast<std::uint32_t>(inbox.size()));
      for (const shard::Envelope& envelope : inbox) {
        shard::serializeEnvelope(envelope, w);
      }
    }
    builder.add(codec::CheckpointTag::kCorridorExchange, std::move(w).take());
  }
  return builder.finish();
}

common::Status CorridorWorld::restoreCheckpoint(
    std::span<const std::uint8_t> blob) {
  BDP_ASSERT_MSG(sharded_->epoch() == 0 && !finished_,
                 "restore requires a freshly constructed world");
  return codec::restoreGuarded(
      blob, codec::CheckpointTag::kCorridorMeta, configHash(), config_.seed,
      [this](const codec::Checkpoint& checkpoint,
             common::ByteReader& meta) -> common::Status {
        const std::uint32_t epoch = meta.readU32();
        const std::uint32_t shardCount = meta.readU32();
        const std::uint32_t segments = meta.readU32();
        const std::uint32_t vehicles = meta.readU32();
        codec::expectConsumed(meta, "corridor meta");
        if (shardCount != plan_.shards() || segments != config_.segments ||
            vehicles != config_.vehicles) {
          return common::Error{
              "config-mismatch",
              "checkpoint was written under a different corridor config"};
        }

        const std::vector<const common::Bytes*> shardSections =
            checkpoint.findAll(codec::CheckpointTag::kCorridorShard);
        if (shardSections.size() != plan_.shards()) {
          return common::Error{"malformed",
                               "shard section count does not match the plan"};
        }
        for (std::uint32_t s = 0; s < plan_.shards(); ++s) {
          common::ByteReader reader{*shardSections[s]};
          shards_[s]->restoreState(reader);
          codec::expectConsumed(reader, "shard");
        }
        common::ByteReader exchange =
            checkpoint.section(codec::CheckpointTag::kCorridorExchange);
        const std::uint32_t count = exchange.readU32();
        if (count != plan_.shards()) {
          return common::Error{
              "malformed", "exchange inbox count does not match the plan"};
        }
        std::vector<std::vector<shard::Envelope>> inboxes(count);
        for (std::uint32_t s = 0; s < count; ++s) {
          const std::uint32_t envelopes = exchange.readU32();
          for (std::uint32_t i = 0; i < envelopes; ++i) {
            inboxes[s].push_back(shard::deserializeEnvelope(exchange));
          }
        }
        codec::expectConsumed(exchange, "exchange");
        sharded_->restoreExchange(epoch, std::move(inboxes));
        return common::Status::success();
      });
}

std::uint64_t CorridorWorld::configHash() const {
  std::uint64_t h = corridorHash(config_.seed, config_.segments,
                                 config_.vehicles, 90);
  h = corridorHash(h, config_.attackerPermille, config_.departPermille, 91);
  h = corridorHash(h, config_.detector.probesToConfirm,
                   config_.detector.maxProbes, 92);
  h = corridorHash(h, config_.detector.maxForwards, plan_.shards(), 93);
  h = corridorHash(h, effectiveSupervisionEvery(config_), 0, 94);
  for (const fault::ShardCrashEvent& crash : config_.faults.shardCrashes) {
    h = corridorHash(h, crash.epoch, crash.shard, 95);
  }
  for (const fault::SegmentRsuOutageEvent& outage : config_.faults.rsuOutages) {
    h = corridorHash(h, outage.segment, outage.fromEpoch, 96);
    h = corridorHash(h, outage.untilEpoch, 0, 97);
  }
  return h;
}

void CorridorWorld::forEachSegment(
    const std::function<void(std::uint32_t segment,
                             const std::vector<common::Address>& isolated,
                             const core::LiteDetector& detector)>& fn) const {
  // Shards hold contiguous ascending regions, so walking shards in order
  // visits segments 0..segments-1 ascending.
  for (const auto& shard : shards_) shard->forEachSegment(fn);
}

std::vector<std::string> CorridorWorld::checkInvariants() const {
  std::vector<std::string> broken;
  std::size_t totalSessions = 0;
  forEachSegment([&](std::uint32_t segment,
                     const std::vector<common::Address>& isolated,
                     const core::LiteDetector& detector) {
    for (const common::Address address : isolated) {
      const bool isVehicle =
          address.value() >= kVehicleAddressBase &&
          address.value() < kVehicleAddressBase + config_.vehicles;
      const auto id =
          static_cast<std::uint32_t>(address.value() - kVehicleAddressBase);
      if (!isVehicle || !vehicleSpec(config_, id).attacker) {
        broken.push_back("honest-isolation: segment " +
                         std::to_string(segment) + " isolated " +
                         std::to_string(address.value()) +
                         " which is not a scripted attacker");
      }
    }
    totalSessions += detector.activeSessions();
    detector.forEachSession([&](const core::LiteSessionState& session) {
      if (session.probesSent > config_.detector.maxProbes ||
          session.forwards > config_.detector.maxForwards ||
          session.violations >= config_.detector.probesToConfirm) {
        broken.push_back(
            "tables-drained: segment " + std::to_string(segment) +
            " session for " + std::to_string(session.suspect.value()) +
            " exceeds its budgets (probes " +
            std::to_string(session.probesSent) + ", forwards " +
            std::to_string(session.forwards) + ", violations " +
            std::to_string(session.violations) + ")");
      }
    });
  });
  if (totalSessions > config_.vehicles) {
    broken.push_back("tables-drained: " + std::to_string(totalSessions) +
                     " live sessions exceed the fleet of " +
                     std::to_string(config_.vehicles));
  }
  return broken;
}

obs::Snapshot CorridorWorld::metricsSnapshot() const {
  obs::MetricsRegistry merged;
  for (const auto& shard : shards_) merged.merge(shard->metrics().snapshot());
  // Deterministic integrity counters (zero on every healthy run, regardless
  // of partition) join the invariant surface; the machine-dependent and
  // recovery-path counters stay in the bench sidecar only.
  const shard::ShardStats& stats = sharded_->stats();
  merged.counter("shard.epoch_violations").add(stats.epochViolations);
  merged.counter("shard.seq_violations").add(stats.seqViolations);
  merged.counter("shard.crc_rejects").add(stats.crcRejects);
  return merged.snapshot();
}

std::string CorridorWorld::metricsJson() const {
  return metricsSnapshot().toJson();
}

std::string CorridorWorld::canonicalLog() const {
  std::string out;
  for (std::uint32_t segment = 0; segment < config_.segments; ++segment) {
    const CorridorShard& shard = *shards_[plan_.shardOf(segment)];
    for (const CorridorLogRecord& record : shard.segmentLog(segment)) {
      out += "seg=";
      out += std::to_string(segment);
      out += " epoch=";
      out += std::to_string(record.epoch);
      out += " ";
      out += toString(static_cast<CorridorLogKind>(record.kind));
      out += " a=";
      out += std::to_string(record.a);
      out += " b=";
      out += std::to_string(record.b);
      out += " v=";
      out += std::to_string(record.value);
      out += "\n";
    }
  }
  return out;
}

std::uint64_t CorridorWorld::framesDelivered() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->mediumStats().framesDelivered;
  }
  return total;
}

const shard::ShardStats& CorridorWorld::shardStats() const {
  return sharded_->stats();
}

std::uint32_t CorridorWorld::shards() const { return plan_.shards(); }

}  // namespace blackdp::scenario
