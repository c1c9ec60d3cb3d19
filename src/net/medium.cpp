#include "net/medium.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace blackdp::net {
namespace {

void traceFrame(sim::Simulator& simulator, obs::EventKind kind,
                std::uint8_t op, common::NodeId node, const Frame& frame) {
  if (auto* tr = obs::Trace::active()) {
    tr->record({simulator.now().us(), kind, op, node.value(), 0,
                frame.src.value(), frame.dst.value(), 0,
                frame.payload->sizeBytes(),
                std::string{frame.payload->typeName()}});
  }
}

/// Packs a signed 2-D cell coordinate into one hash key.
std::uint64_t cellKey(std::int64_t cx, std::int64_t cy) {
  const auto ux = static_cast<std::uint32_t>(static_cast<std::int32_t>(cx));
  const auto uy = static_cast<std::uint32_t>(static_cast<std::int32_t>(cy));
  return (static_cast<std::uint64_t>(ux) << 32) | uy;
}

}  // namespace

WirelessMedium::WirelessMedium(sim::Simulator& simulator, sim::Rng rng,
                               MediumConfig config)
    : simulator_{simulator}, rng_{rng}, config_{config} {
  BDP_ASSERT_MSG(config_.transmissionRangeM > 0.0,
                 "transmission range must be positive");
}

void WirelessMedium::reserve(std::size_t nodes, std::size_t addresses) {
  radios_.reserve(nodes);
  receivers_.reserve(nodes);
  addressIds_.reserve(addresses);
  ownerOf_.reserve(addresses);
}

void WirelessMedium::attach(common::NodeId node, Radio& radio) {
  BDP_ASSERT_MSG(!radios_.contains(node), "node attached twice");
  BDP_ASSERT_MSG(node.value() != kSendFailureTag, "node id reserved");
  radios_[node] = &radio;
  const auto pos = std::lower_bound(
      receivers_.begin(), receivers_.end(), node,
      [](const auto& entry, common::NodeId id) { return entry.first < id; });
  receivers_.insert(pos, {node, &radio});
  gridValid_ = false;  // indices into receivers_ shifted
}

void WirelessMedium::detach(common::NodeId node) {
  radios_.erase(node);
  const auto pos = std::lower_bound(
      receivers_.begin(), receivers_.end(), node,
      [](const auto& entry, common::NodeId id) { return entry.first < id; });
  if (pos != receivers_.end() && pos->first == node) receivers_.erase(pos);
  // A detached node must not keep ownership of any receive address: a later
  // re-use of the address binds it to its new owner, and until then unicasts
  // to it fail the MAC ACK as unreachable rather than consulting a ghost.
  for (std::uint32_t& owner : ownerOf_) {
    if (owner == node.value()) owner = kUnbound;
  }
  gridValid_ = false;
}

void WirelessMedium::bindAddress(common::Address address,
                                 common::NodeId owner) {
  if (address == common::kNullAddress || address == common::kBroadcastAddress) {
    return;
  }
  const std::uint32_t id = addressIds_.intern(address);
  if (id >= ownerOf_.size()) ownerOf_.resize(id + 1, kUnbound);
  ownerOf_[id] = owner.value();
}

void WirelessMedium::unbindAddress(common::Address address) {
  const std::uint32_t id = addressIds_.find(address);
  if (id != common::AddressRegistry::kNoId) ownerOf_[id] = kUnbound;
}

std::int64_t WirelessMedium::cellOf(double coordinate) const {
  return static_cast<std::int64_t>(
      std::floor(coordinate / config_.transmissionRangeM));
}

void WirelessMedium::maybeRefreshGrid() {
  const sim::TimePoint now = simulator_.now();
  if (gridValid_) {
    // A node may have drifted at most maxNodeSpeedMps * age metres since the
    // build. As long as that stays within one cell (= one transmission
    // range), the 5×5 neighborhood scan below still covers every node that
    // can possibly be in range, so the grid stays exact.
    const double driftM =
        (now - gridBuiltAt_).toSeconds() * config_.maxNodeSpeedMps;
    if (driftM <= config_.transmissionRangeM) return;
  }
  cells_.clear();
  for (std::uint32_t i = 0; i < receivers_.size(); ++i) {
    const mobility::Position p = receivers_[i].second->radioPosition();
    cells_[cellKey(cellOf(p.x), cellOf(p.y))].push_back(i);
  }
  gridBuiltAt_ = now;
  gridValid_ = true;
  ++stats_.gridRebuilds;
}

void WirelessMedium::collectCandidates(const mobility::Position& origin) {
  gridCandidates_.clear();
  const std::int64_t ocx = cellOf(origin.x);
  const std::int64_t ocy = cellOf(origin.y);
  // ±2 cells: ±1 because an in-range node's true cell is at most one cell
  // away, plus ±1 of permitted drift since the grid was built.
  for (std::int64_t cx = ocx - 2; cx <= ocx + 2; ++cx) {
    for (std::int64_t cy = ocy - 2; cy <= ocy + 2; ++cy) {
      const auto it = cells_.find(cellKey(cx, cy));
      if (it == cells_.end()) continue;
      gridCandidates_.insert(gridCandidates_.end(), it->second.begin(),
                             it->second.end());
    }
  }
  // Indices ascend within each cell; sorting the handful of candidates
  // restores the global ascending-node-id visiting order the RNG contract
  // requires.
  std::sort(gridCandidates_.begin(), gridCandidates_.end());
}

void WirelessMedium::send(common::NodeId sender, Frame frame) {
  Radio* const* senderRadio = radios_.find(sender);
  BDP_ASSERT_MSG(senderRadio != nullptr, "send from unattached node");
  BDP_ASSERT_MSG(frame.payload != nullptr, "frame without payload");

  ++stats_.framesSent;
  stats_.bytesSent += frame.payload->sizeBytes();
  traceFrame(simulator_, obs::EventKind::kFrameTx, 0, sender, frame);

  const mobility::Position origin = (*senderRadio)->radioPosition();
  fanOut_.clear();

  // MAC ACK model for unicast frames: unreachable addressee → sender gets
  // a transmission-failure callback after the (ACK-timeout-like) latency.
  // A reachable addressee whose delivery the fault layer eats below fails
  // the same way (no ACK came back through the burst/jam).
  std::optional<common::NodeId> addressee;
  if (!frame.isBroadcast()) {
    const std::uint32_t dstId = addressIds_.find(frame.dst);
    const std::uint32_t ownerValue =
        dstId != common::AddressRegistry::kNoId ? ownerOf_[dstId] : kUnbound;
    const common::NodeId owner{ownerValue};
    const bool reachable =
        ownerValue != kUnbound && [&] {
          Radio* const* radio = radios_.find(owner);
          return radio != nullptr &&
                 withinRange(origin, (*radio)->radioPosition());
        }();
    if (reachable) {
      addressee = owner;
    } else {
      ++stats_.sendFailures;
      traceFrame(simulator_, obs::EventKind::kFrameSendFailed,
                 static_cast<std::uint8_t>(obs::DropCause::kUnreachable),
                 sender, frame);
      fanOut_.push_back({config_.perHopLatency, kSendFailureTag});
    }
  }

  // One delivery decision per candidate receiver. Out-of-range candidates
  // are skipped before any RNG draw, so the grid path (which merely proposes
  // a superset of the in-range nodes) and the linear scan consume the RNG
  // stream identically.
  const auto visit = [&](common::NodeId nodeId, Radio* radio) {
    if (nodeId == sender) return;
    const mobility::Position receiverPos = radio->radioPosition();
    if (!withinRange(origin, receiverPos)) return;
    if (faultHook_ != nullptr) {
      const obs::DropCause cause =
          faultHook_->dropDelivery(sender, nodeId, origin, receiverPos);
      if (cause != obs::DropCause::kNone) {
        ++stats_.framesFaultDropped;
        if (cause == obs::DropCause::kBurstLoss) ++stats_.framesBurstDropped;
        if (cause == obs::DropCause::kJam) ++stats_.framesJamDropped;
        traceFrame(simulator_, obs::EventKind::kFrameDrop,
                   static_cast<std::uint8_t>(cause), nodeId, frame);
        if (addressee && nodeId == *addressee) {
          ++stats_.sendFailures;
          traceFrame(simulator_, obs::EventKind::kFrameSendFailed,
                     static_cast<std::uint8_t>(cause), sender, frame);
          fanOut_.push_back({config_.perHopLatency, kSendFailureTag});
        }
        return;
      }
    }
    if (config_.lossProbability > 0.0 &&
        rng_.bernoulli(config_.lossProbability)) {
      ++stats_.framesLost;
      traceFrame(simulator_, obs::EventKind::kFrameDrop,
                 static_cast<std::uint8_t>(obs::DropCause::kRandomLoss),
                 nodeId, frame);
      return;
    }
    sim::Duration latency = config_.perHopLatency;
    if (config_.maxJitter > sim::Duration{}) {
      latency = latency + sim::Duration::microseconds(
                              rng_.uniformInt(0, config_.maxJitter.us()));
    }
    fanOut_.push_back({latency, nodeId.value()});
  };

  if (config_.spatialGrid) {
    maybeRefreshGrid();
    collectCandidates(origin);
    for (const std::uint32_t index : gridCandidates_) {
      visit(receivers_[index].first, receivers_[index].second);
    }
  } else {
    for (const auto& [nodeId, radio] : receivers_) visit(nodeId, radio);
  }

  // One fan-out holds the frame for every reception and send failure.
  // Deliver only if the receiver is still attached at delivery time (a
  // vehicle may leave the highway while the frame is in flight).
  auto deliver = [this, sender, frame = std::move(frame)](std::uint32_t tag) {
    if (tag == kSendFailureTag) {
      if (Radio** radio = radios_.find(sender)) (*radio)->onSendFailed(frame);
      return;
    }
    const common::NodeId nodeId{tag};
    Radio** live = radios_.find(nodeId);
    if (live == nullptr) return;
    ++stats_.framesDelivered;
    traceFrame(simulator_, obs::EventKind::kFrameRx, 0, nodeId, frame);
    (*live)->onFrame(frame);
  };
  static_assert(sizeof(deliver) <= sim::FanOutFn::kInlineBytes,
                "the fan-out context must stay inline");
  simulator_.scheduleFanOut(fanOut_, std::move(deliver));
}

bool WirelessMedium::inRange(common::NodeId a, common::NodeId b) const {
  Radio* const* ra = radios_.find(a);
  Radio* const* rb = radios_.find(b);
  if (ra == nullptr || rb == nullptr) return false;
  return withinRange((*ra)->radioPosition(), (*rb)->radioPosition());
}

}  // namespace blackdp::net
