// Scriptable fault plan.
//
// The paper's evaluation treats the infrastructure as perfect: RSUs never
// crash, the wired backbone never partitions, and the medium's only
// impairment is i.i.d. frame loss. A FaultPlan is a deterministic schedule of
// infrastructure faults — RSU crashes with optional recovery, backbone link
// cuts and range partitions, Gilbert–Elliott burst loss and jammed highway
// stretches — that a FaultInjector replays on the simulator clock. Plans are
// plain data so benches and tests can script identical fault sequences across
// treatments; an empty plan means the fault layer is not installed at all and
// every component behaves exactly as in the unfaulted build. The megacity
// corridor does not use it (see scenario::CorridorConfig::rsuOutages).
#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "sim/time.hpp"

namespace blackdp::fault {

/// Latest representable instant; events "until forever" use it.
[[nodiscard]] constexpr sim::TimePoint endOfTime() {
  return sim::TimePoint::fromUs(std::numeric_limits<std::int64_t>::max());
}

/// Two-state Gilbert–Elliott channel. The chain advances one step per
/// delivery decision; `lossGood`/`lossBad` are the per-delivery loss
/// probabilities in each state. With pGoodToBad = 0 this degenerates to the
/// medium's i.i.d. model at rate `lossGood`.
struct GilbertElliott {
  double pGoodToBad{0.01};
  double pBadToGood{0.25};
  double lossGood{0.0};
  double lossBad{0.9};

  /// Stationary mean loss rate (sanity metric for sweeps).
  [[nodiscard]] double meanLoss() const {
    const double denom = pGoodToBad + pBadToGood;
    if (denom <= 0.0) return lossGood;
    const double pBad = pGoodToBad / denom;
    return (1.0 - pBad) * lossGood + pBad * lossBad;
  }
};

/// RSU goes dark at `at`: off the air, off the backbone, soft state lost.
/// With `recoverAt` set it re-attaches (with an empty member table) there.
struct RsuCrashEvent {
  common::ClusterId cluster{};
  sim::TimePoint at{};
  std::optional<sim::TimePoint> recoverAt{};
};

/// One backbone link is cut (bidirectionally) during [from, until).
struct BackboneLinkDownEvent {
  common::ClusterId a{};
  common::ClusterId b{};
  sim::TimePoint from{};
  sim::TimePoint until{endOfTime()};
};

/// The backbone splits between cluster ranges during [from, until): clusters
/// with id <= boundary cannot exchange messages with clusters above it.
struct BackbonePartitionEvent {
  common::ClusterId boundary{};
  sim::TimePoint from{};
  sim::TimePoint until{endOfTime()};
};

/// Burst loss on the wireless medium during [from, until), driven by a
/// Gilbert–Elliott chain with its own deterministic state.
struct BurstLossEvent {
  GilbertElliott channel{};
  sim::TimePoint from{};
  sim::TimePoint until{endOfTime()};
};

/// A jammed stretch of road during [from, until): every frame whose sender
/// or receiver sits inside [xMin, xMax] at transmission time is lost.
struct JamZoneEvent {
  double xMin{0.0};
  double xMax{0.0};
  sim::TimePoint from{};
  sim::TimePoint until{endOfTime()};
};

struct FaultPlan {
  std::vector<RsuCrashEvent> rsuCrashes;
  std::vector<BackboneLinkDownEvent> backboneLinksDown;
  std::vector<BackbonePartitionEvent> backbonePartitions;
  std::vector<BurstLossEvent> burstLoss;
  std::vector<JamZoneEvent> jamZones;

  [[nodiscard]] bool empty() const {
    return rsuCrashes.empty() && backboneLinksDown.empty() &&
           backbonePartitions.empty() && burstLoss.empty() &&
           jamZones.empty();
  }
};

}  // namespace blackdp::fault
