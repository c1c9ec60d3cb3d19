// Unit-disk wireless medium.
//
// Models DSRC at the connectivity level the paper assumes (§III-A): an
// identical, bidirectional transmission range for all nodes (Table I: 1000 m).
// A transmitted frame reaches every attached node within range of the sender
// at transmission time, after a deterministic per-hop latency plus seeded
// jitter (the jitter provides the tie-breaking the paper's "replies as fast
// as it can" behaviour races against). Optional i.i.d. frame loss supports
// failure-injection tests.
//
// Hot path: receivers live in a node-id-ordered array maintained on
// attach/detach (rare), and a uniform spatial grid keyed by
// cell = ⌊pos / transmissionRange⌋ narrows each send to the sender's cell
// neighborhood instead of the whole fleet. Both the grid and the plain
// linear scan visit in-range receivers in strictly ascending node-id order
// and draw from the RNG for exactly the same receiver sequence, so a run
// replays byte-identically whichever path is active (pinned by
// medium_grid_test). A transmission's receptions and MAC send failures
// reach the simulator as one fan-out that holds the frame once
// (Simulator::scheduleFanOut).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/address_registry.hpp"
#include "mobility/motion.hpp"
#include "net/frame.hpp"
#include "obs/trace_event.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace blackdp::net {

/// What the medium needs from an attached node.
class Radio {
 public:
  virtual ~Radio() = default;

  /// Current physical position (queried at transmission time).
  [[nodiscard]] virtual mobility::Position radioPosition() const = 0;

  /// Frame arrival. Every in-range node hears every frame; address filtering
  /// happens in the node, as on a real shared channel.
  virtual void onFrame(const Frame& frame) = 0;

  /// 802.11-style transmission feedback: a *unicast* frame's addressee was
  /// unreachable (out of range, detached, or unknown) — no ACK came back.
  /// Broadcasts never generate this. Default: ignore.
  virtual void onSendFailed(const Frame& frame) { (void)frame; }
};

struct MediumConfig {
  double transmissionRangeM{1000.0};              ///< Table I / DSRC [12]
  sim::Duration perHopLatency{sim::Duration::microseconds(500)};
  sim::Duration maxJitter{sim::Duration::microseconds(100)};
  double lossProbability{0.0};
  /// Spatial-grid receiver index (cell size = transmission range). Off =
  /// plain linear scan over the id-ordered receiver array. Both paths are
  /// byte-identical; the grid only changes how candidates are found.
  bool spatialGrid{true};
  /// Upper bound on how fast any attached node moves. The grid is rebuilt
  /// before a node could have drifted more than one cell since the last
  /// build, which keeps the 5×5-cell candidate neighborhood exact. Table I
  /// tops out at 90 km/h = 25 m/s; the default leaves headroom.
  double maxNodeSpeedMps{50.0};
};

/// Channel-impairment hook (the fault-injection layer implements it).
/// Consulted once per (frame, receiver) delivery decision, *before* the
/// medium's own i.i.d. loss draw, so an uninstalled or never-dropping hook
/// leaves the medium's RNG stream — and thus the whole simulation — exactly
/// as without it.
class MediumFaultHook {
 public:
  virtual ~MediumFaultHook() = default;

  /// Anything but kNone ⇒ this delivery is lost to an injected fault, and
  /// the returned cause attributes the drop (kBurstLoss, kJam, ...).
  virtual obs::DropCause dropDelivery(
      common::NodeId sender, common::NodeId receiver,
      const mobility::Position& senderPos,
      const mobility::Position& receiverPos) = 0;
};

struct MediumStats {
  std::uint64_t framesSent{0};        ///< transmissions initiated
  std::uint64_t framesDelivered{0};   ///< per-receiver deliveries
  std::uint64_t framesLost{0};        ///< per-receiver random losses
  std::uint64_t framesFaultDropped{0};  ///< per-receiver fault-layer drops
  std::uint64_t framesBurstDropped{0};  ///< ... of which burst fades
  std::uint64_t framesJamDropped{0};    ///< ... of which jam-zone losses
  std::uint64_t sendFailures{0};      ///< unicast frames with no reachable owner
  std::uint64_t bytesSent{0};
  std::uint64_t gridRebuilds{0};      ///< spatial-grid refreshes
};

class WirelessMedium {
 public:
  WirelessMedium(sim::Simulator& simulator, sim::Rng rng,
                 MediumConfig config = {});

  WirelessMedium(const WirelessMedium&) = delete;
  WirelessMedium& operator=(const WirelessMedium&) = delete;

  /// Attaches a node's radio. The radio must outlive the medium or detach.
  void attach(common::NodeId node, Radio& radio);

  /// Detaches (e.g. vehicle left the highway). Pending deliveries to the
  /// node are suppressed, and every address bound to the node is unbound —
  /// a re-used address routes to its new owner, never to a ghost.
  void detach(common::NodeId node);

  [[nodiscard]] bool isAttached(common::NodeId node) const {
    return radios_.contains(node);
  }

  /// Dense ids handed out for bound addresses (monotone over the run).
  [[nodiscard]] std::size_t internedAddresses() const {
    return addressIds_.size();
  }

  /// Pre-sizes the radio tables and the address interner for a fleet of
  /// `nodes` radios binding `addresses` distinct receive addresses. Scenario
  /// setup calls this before its attach storm so a 10k-vehicle corridor
  /// never rehashes or reallocates mid-attach; steady state is untouched.
  void reserve(std::size_t nodes, std::size_t addresses);

  /// Transmits a frame from `sender`. Receivers are all other attached nodes
  /// within range of the sender's position now. For unicast frames the
  /// medium additionally models the MAC-level ACK: if the bound owner of
  /// `frame.dst` is unreachable, the sender's onSendFailed() fires after the
  /// per-hop latency.
  void send(common::NodeId sender, Frame frame);

  /// Binds a receive address to a node (its pseudonym or an alias). The MAC
  /// ACK model needs to know who should have acknowledged a unicast frame.
  void bindAddress(common::Address address, common::NodeId owner);
  void unbindAddress(common::Address address);

  /// Installs (or, with nullptr, removes) the fault-layer hook. The hook
  /// must outlive the medium or be removed first. A fault-dropped *unicast*
  /// frame additionally fails the MAC ACK: the sender's onSendFailed() fires,
  /// unlike for the medium's own i.i.d. losses, which stay silent — a real
  /// MAC retries through short fades, but a burst/jam outlives the retry
  /// window, so only the fault layer surfaces as transmission failure.
  void setFaultHook(MediumFaultHook* hook) { faultHook_ = hook; }

  /// True iff a and b are currently within transmission range.
  [[nodiscard]] bool inRange(common::NodeId a, common::NodeId b) const;

  /// Drops the cached spatial grid. Must be called whenever a node's
  /// position changes discontinuously (teleport-style setMotion) or faster
  /// than MediumConfig::maxNodeSpeedMps; BasicNode::setMotion does this
  /// automatically. Cheap — the grid rebuilds lazily on the next send.
  void invalidateGrid() { gridValid_ = false; }

  [[nodiscard]] const MediumStats& stats() const { return stats_; }
  [[nodiscard]] const MediumConfig& config() const { return config_; }

  /// The medium's private jitter/loss stream. Exposed mutably for
  /// checkpoint/restore only: the stream advances once per delivery, so a
  /// restored world must resume it mid-sequence or every post-restore
  /// tie-break would diverge from the uninterrupted run.
  [[nodiscard]] sim::Rng& rng() { return rng_; }

 private:
  /// The one distance-vs-transmissionRange predicate: send's receiver scan,
  /// the unicast MAC ACK model, and inRange() all funnel through it so the
  /// grid path cannot drift from the ACK model.
  [[nodiscard]] bool withinRange(const mobility::Position& a,
                                 const mobility::Position& b) const {
    // Squared-distance compare: sqrt is monotone, so the accept set is the
    // same as `distance(a, b) <= range`, minus one sqrt per candidate —
    // the hottest arithmetic in the broadcast fan-out.
    const double dx = a.x - b.x;
    const double dy = a.y - b.y;
    return dx * dx + dy * dy <=
           config_.transmissionRangeM * config_.transmissionRangeM;
  }

  [[nodiscard]] std::int64_t cellOf(double coordinate) const;
  /// Rebuilds the grid unless it is still fresh (drift bounded by one cell).
  void maybeRefreshGrid();
  /// Fills `gridCandidates_` with indices into `receivers_` (ascending, and
  /// therefore ascending node-id) for the 5×5-cell neighborhood of `origin`.
  void collectCandidates(const mobility::Position& origin);

  /// ownerOf_ slot value meaning "this address is not currently bound".
  static constexpr std::uint32_t kUnbound = 0xffff'ffffu;
  /// Fan-out tag of a MAC send failure; every other tag is the NodeId value
  /// of a receiver.
  static constexpr std::uint32_t kSendFailureTag = 0xffff'ffffu;

  sim::Simulator& simulator_;
  sim::Rng rng_;
  MediumConfig config_;
  MediumStats stats_;
  /// One open-addressing probe + array access per delivery-liveness check.
  common::DenseKeyMap<common::NodeId, Radio*> radios_;
  /// Same radios, kept in ascending node-id order (updated on attach/detach,
  /// which are rare) so sends never copy + sort the whole fleet.
  std::vector<std::pair<common::NodeId, Radio*>> receivers_;
  /// Address → owner, split map-array style: bindAddress interns the sparse
  /// pseudonym into a dense id once, and the owner lives in a flat vector
  /// indexed by that id. The unicast ACK lookup in send() is then a probe
  /// over interned addresses plus one array read; unbinding just writes the
  /// kUnbound sentinel (dense ids are never recycled — pseudonym churn is
  /// bounded per run, so the vector tracks total distinct addresses).
  common::AddressRegistry addressIds_;
  std::vector<std::uint32_t> ownerOf_;  ///< dense address id -> NodeId value
  MediumFaultHook* faultHook_{nullptr};

  /// Spatial grid: packed (cellX, cellY) → indices into receivers_,
  /// ascending within each cell by construction.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> cells_;
  std::vector<std::uint32_t> gridCandidates_;  ///< per-send scratch
  /// Per-send scratch: the transmission's receptions and send failures in
  /// scheduling order, handed to Simulator::scheduleFanOut.
  std::vector<sim::FanOutItem> fanOut_;
  sim::TimePoint gridBuiltAt_{};
  bool gridValid_{false};
};

}  // namespace blackdp::net
