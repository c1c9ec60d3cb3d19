#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <vector>

#include "common/assert.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace blackdp::sim {
namespace {

// -------------------------------------------------------------------- time

TEST(TimeTest, DurationConstructors) {
  EXPECT_EQ(Duration::microseconds(5).us(), 5);
  EXPECT_EQ(Duration::milliseconds(2).us(), 2'000);
  EXPECT_EQ(Duration::seconds(3).us(), 3'000'000);
}

TEST(TimeTest, FromSecondsRoundsToNearestMicrosecond) {
  EXPECT_EQ(Duration::fromSeconds(0.0000014).us(), 1);
  EXPECT_EQ(Duration::fromSeconds(0.0000016).us(), 2);
  EXPECT_EQ(Duration::fromSeconds(-0.0000014).us(), -1);
}

TEST(TimeTest, DurationArithmetic) {
  const Duration a = Duration::milliseconds(3);
  const Duration b = Duration::milliseconds(2);
  EXPECT_EQ((a + b).us(), 5'000);
  EXPECT_EQ((a - b).us(), 1'000);
  EXPECT_EQ((b * 4).us(), 8'000);
}

TEST(TimeTest, DurationComparison) {
  EXPECT_LT(Duration::microseconds(1), Duration::microseconds(2));
  EXPECT_EQ(Duration::seconds(1), Duration::milliseconds(1000));
}

TEST(TimeTest, TimePointArithmetic) {
  const TimePoint t = TimePoint::fromUs(100);
  EXPECT_EQ((t + Duration::microseconds(50)).us(), 150);
  EXPECT_EQ((TimePoint::fromUs(150) - t).us(), 50);
}

TEST(TimeTest, ToSeconds) {
  EXPECT_DOUBLE_EQ(Duration::milliseconds(1500).toSeconds(), 1.5);
  EXPECT_DOUBLE_EQ(TimePoint::fromUs(2'000'000).toSeconds(), 2.0);
}

// --------------------------------------------------------------- simulator

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator simulator;
  EXPECT_EQ(simulator.now().us(), 0);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule(Duration::microseconds(30), [&] { order.push_back(3); });
  simulator.schedule(Duration::microseconds(10), [&] { order.push_back(1); });
  simulator.schedule(Duration::microseconds(20), [&] { order.push_back(2); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, EqualTimestampsRunFifo) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulator.schedule(Duration::microseconds(5),
                       [&order, i] { order.push_back(i); });
  }
  simulator.run();
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator simulator;
  TimePoint seen;
  simulator.schedule(Duration::milliseconds(7), [&] { seen = simulator.now(); });
  simulator.run();
  EXPECT_EQ(seen.us(), 7'000);
  EXPECT_EQ(simulator.now().us(), 7'000);
}

TEST(SimulatorTest, NestedSchedulingWorks) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule(Duration::microseconds(1), [&] {
    order.push_back(1);
    simulator.schedule(Duration::microseconds(1), [&] { order.push_back(2); });
  });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorTest, RunUntilStopsAtBound) {
  Simulator simulator;
  int ran = 0;
  simulator.schedule(Duration::microseconds(10), [&] { ++ran; });
  simulator.schedule(Duration::microseconds(20), [&] { ++ran; });
  simulator.schedule(Duration::microseconds(30), [&] { ++ran; });
  simulator.run(TimePoint::fromUs(20));
  EXPECT_EQ(ran, 2);  // the event exactly at the bound still runs
  simulator.run();
  EXPECT_EQ(ran, 3);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator simulator;
  bool ran = false;
  const EventHandle handle =
      simulator.schedule(Duration::microseconds(5), [&] { ran = true; });
  simulator.cancel(handle);
  simulator.run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, CancelAfterExecutionIsNoOp) {
  Simulator simulator;
  int ran = 0;
  const EventHandle handle =
      simulator.schedule(Duration::microseconds(5), [&] { ++ran; });
  simulator.run();
  EXPECT_EQ(ran, 1);
  EXPECT_NO_THROW(simulator.cancel(handle));
  EXPECT_EQ(simulator.pendingEvents(), 0u);
  simulator.schedule(Duration::microseconds(1), [&] { ++ran; });
  simulator.schedule(Duration::microseconds(2), [&] { ++ran; });
  EXPECT_EQ(simulator.pendingEvents(), 2u);
  EXPECT_EQ(simulator.run(), 2u);
  EXPECT_EQ(ran, 3);
}

TEST(SimulatorTest, CancelDefaultHandleIsNoOp) {
  Simulator simulator;
  EXPECT_NO_THROW(simulator.cancel(EventHandle{}));
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator simulator;
  bool ran = false;
  simulator.schedule(Duration::microseconds(-10), [&] { ran = true; });
  simulator.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(simulator.now().us(), 0);
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator simulator;
  int ran = 0;
  simulator.schedule(Duration::microseconds(1), [&] { ++ran; });
  simulator.schedule(Duration::microseconds(2), [&] { ++ran; });
  EXPECT_TRUE(simulator.step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(simulator.step());
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(simulator.step());
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator simulator;
  for (int i = 0; i < 5; ++i) {
    simulator.schedule(Duration::microseconds(i), [] {});
  }
  simulator.run();
  EXPECT_EQ(simulator.executedEvents(), 5u);
}

TEST(SimulatorTest, RunReturnsExecutedCount) {
  Simulator simulator;
  for (int i = 0; i < 3; ++i) {
    simulator.schedule(Duration::microseconds(i), [] {});
  }
  EXPECT_EQ(simulator.run(), 3u);
}

TEST(SimulatorTest, NullCallbackIsRejected) {
  Simulator simulator;
  EXPECT_THROW(simulator.schedule(Duration{}, nullptr),
               common::AssertionError);
}

// Property: for any random set of schedule times, execution is sorted.
class SimulatorOrderProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SimulatorOrderProperty, ExecutionOrderIsSortedByTime) {
  Rng rng{GetParam()};
  Simulator simulator;
  std::vector<std::int64_t> executed;
  for (int i = 0; i < 200; ++i) {
    const auto when = rng.uniformInt(0, 1000);
    simulator.schedule(Duration::microseconds(when), [&executed, &simulator] {
      executed.push_back(simulator.now().us());
    });
  }
  simulator.run();
  ASSERT_EQ(executed.size(), 200u);
  EXPECT_TRUE(std::is_sorted(executed.begin(), executed.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorOrderProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------------------------------------------- cancellation

TEST(SimulatorCancelTest, StaleCancelSparesTheEventReusingItsSlot) {
  Simulator simulator;
  bool laterRan = false;
  EventHandle self;
  // A timeout that cancels its own handle after arming a successor (the
  // verifier's response timer does this): the successor takes the slot the
  // running event just freed, and the cancel must not hit it.
  self = simulator.schedule(Duration::microseconds(1), [&] {
    simulator.schedule(Duration::microseconds(1), [&] { laterRan = true; });
    simulator.cancel(self);
  });
  simulator.run();
  EXPECT_TRUE(laterRan);

  // The same from outside a callback.
  laterRan = false;
  const EventHandle done = simulator.schedule(Duration{}, [] {});
  simulator.run();
  simulator.schedule(Duration::microseconds(5), [&] { laterRan = true; });
  simulator.cancel(done);
  EXPECT_EQ(simulator.pendingEvents(), 1u);
  simulator.run();
  EXPECT_TRUE(laterRan);
}

TEST(SimulatorCancelTest, TombstonesCountAsPendingUntilPopped) {
  Simulator simulator;
  const EventHandle a = simulator.schedule(Duration::microseconds(1), [] {});
  simulator.schedule(Duration::microseconds(2), [] {});
  simulator.cancel(a);
  simulator.cancel(a);  // twice is once
  EXPECT_EQ(simulator.pendingEvents(), 2u);
  EXPECT_TRUE(simulator.step());  // skips the tombstone, runs the second
  EXPECT_EQ(simulator.pendingEvents(), 0u);
  EXPECT_EQ(simulator.executedEvents(), 1u);
}

// ------------------------------------------------------------------ fan-out

TEST(SimulatorFanOutTest, EmptyFanOutSchedulesNothing) {
  Simulator simulator;
  bool ran = false;
  simulator.scheduleFanOut({}, [&](std::uint32_t) { ran = true; });
  EXPECT_EQ(simulator.pendingEvents(), 0u);
  EXPECT_FALSE(simulator.step());
  EXPECT_EQ(simulator.run(), 0u);
  EXPECT_FALSE(ran);
}

TEST(SimulatorFanOutTest, RunUntilStopsInsideAFanOut) {
  Simulator simulator;
  std::vector<std::uint32_t> order;
  const std::vector<FanOutItem> items{{Duration::microseconds(30), 0},
                                      {Duration::microseconds(10), 1},
                                      {Duration::microseconds(20), 2},
                                      {Duration::microseconds(10), 3}};
  simulator.scheduleFanOut(items,
                           [&](std::uint32_t tag) { order.push_back(tag); });
  EXPECT_EQ(simulator.pendingEvents(), 4u);
  EXPECT_EQ(simulator.run(TimePoint::fromUs(20)), 3u);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 3, 2}));
  EXPECT_EQ(simulator.now().us(), 20);
  EXPECT_EQ(simulator.pendingEvents(), 1u);
  EXPECT_EQ(simulator.executedEvents(), 3u);
  simulator.run();
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 3, 2, 0}));
}

/// A seeded random program over one simulator. With `fanOut` it schedules
/// each batch of items through scheduleFanOut; without, through one plain
/// schedule() per item in index order. Everything else is identical:
/// interleaved plain events, cancels (some stale), equal-time ties, negative
/// delays, and batches scheduled from inside batch callbacks.
class RandomProgram {
 public:
  struct Run {
    std::uint32_t id;
    std::int64_t atUs;
    bool operator==(const Run&) const = default;
  };

  RandomProgram(std::uint64_t seed, bool fanOut) : rng_{seed}, fanOut_{fanOut} {
    for (int i = 0; i < 8; ++i) act();
  }

  Simulator& simulator() { return simulator_; }
  [[nodiscard]] const std::vector<Run>& runs() const { return runs_; }

 private:
  void act() {
    const auto choice = rng_.uniformInt(0, 9);
    if (choice < 4) {
      schedulePlain();
    } else if (choice < 8) {
      scheduleBatch();
    } else if (!handles_.empty()) {
      simulator_.cancel(handles_[rng_.index(handles_.size())]);
    }
  }

  Duration delay() { return Duration::microseconds(rng_.uniformInt(-2, 12)); }

  void schedulePlain() {
    const std::uint32_t id = nextId_++;
    handles_.push_back(simulator_.schedule(delay(), [this, id] { onRun(id); }));
  }

  void scheduleBatch() {
    items_.clear();
    const auto k = rng_.uniformInt(0, 9);
    for (std::int64_t i = 0; i < k; ++i) items_.push_back({delay(), nextId_++});
    if (fanOut_) {
      simulator_.scheduleFanOut(items_,
                                [this](std::uint32_t id) { onRun(id); });
      return;
    }
    for (const FanOutItem& item : items_) {
      simulator_.schedule(item.delay, [this, id = item.tag] { onRun(id); });
    }
  }

  void onRun(std::uint32_t id) {
    runs_.push_back({id, simulator_.now().us()});
    if (budget_ == 0) return;
    --budget_;
    act();
    if (rng_.bernoulli(0.5)) act();
  }

  Rng rng_;
  bool fanOut_;
  Simulator simulator_;
  std::uint32_t nextId_{0};
  int budget_{400};
  std::vector<EventHandle> handles_;
  std::vector<FanOutItem> items_;
  std::vector<Run> runs_;
};

class FanOutEquivalenceProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FanOutEquivalenceProperty, StepByStepMatchesPlainScheduling) {
  RandomProgram fanned{GetParam(), true};
  RandomProgram plain{GetParam(), false};
  std::size_t steps = 0;
  while (true) {
    const bool a = fanned.simulator().step();
    const bool b = plain.simulator().step();
    ASSERT_EQ(a, b) << "step " << steps;
    if (!a) break;
    ++steps;
    ASSERT_EQ(fanned.simulator().executedEvents(),
              plain.simulator().executedEvents());
    ASSERT_EQ(fanned.simulator().pendingEvents(),
              plain.simulator().pendingEvents())
        << "step " << steps;
    ASSERT_EQ(fanned.simulator().now(), plain.simulator().now());
  }
  EXPECT_GT(steps, 100u);
  EXPECT_EQ(fanned.runs(), plain.runs());
}

TEST_P(FanOutEquivalenceProperty, RunUntilStopsWherePlainSchedulingStops) {
  RandomProgram fanned{GetParam(), true};
  RandomProgram plain{GetParam(), false};
  Rng bounds{GetParam() ^ 0x9e3779b97f4a7c15ull};
  std::int64_t until = 0;
  for (int leg = 0; leg < 60; ++leg) {
    until += bounds.uniformInt(0, 6);
    const TimePoint bound = TimePoint::fromUs(until);
    ASSERT_EQ(fanned.simulator().run(bound), plain.simulator().run(bound))
        << "leg " << leg;
    ASSERT_EQ(fanned.simulator().now(), plain.simulator().now());
    ASSERT_EQ(fanned.simulator().executedEvents(),
              plain.simulator().executedEvents());
    ASSERT_EQ(fanned.simulator().pendingEvents(),
              plain.simulator().pendingEvents());
    ASSERT_EQ(fanned.runs(), plain.runs());
  }
  EXPECT_EQ(fanned.simulator().run(), plain.simulator().run());
  EXPECT_EQ(fanned.runs(), plain.runs());
  EXPECT_EQ(fanned.simulator().pendingEvents(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FanOutEquivalenceProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --------------------------------------------------------------------- rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.nextU64(), b.nextU64());
  }
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformRealStaysInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniformReal(1.0, 2.0);
    EXPECT_GE(v, 1.0);
    EXPECT_LT(v, 2.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng{7};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyFair) {
  Rng rng{7};
  int heads = 0;
  for (int i = 0; i < 10'000; ++i) {
    if (rng.bernoulli(0.5)) ++heads;
  }
  EXPECT_GT(heads, 4'500);
  EXPECT_LT(heads, 5'500);
}

TEST(RngTest, IndexCoversRange) {
  Rng rng{7};
  std::vector<bool> hit(10, false);
  for (int i = 0; i < 1000; ++i) hit[rng.index(10)] = true;
  EXPECT_TRUE(std::all_of(hit.begin(), hit.end(), [](bool b) { return b; }));
}

TEST(SeedSequenceTest, NamedStreamsAreIndependent) {
  const SeedSequence seeds{99};
  EXPECT_NE(seeds.deriveSeed("medium"), seeds.deriveSeed("crypto"));
  EXPECT_NE(seeds.deriveSeed("a"), seeds.deriveSeed("b"));
}

TEST(SeedSequenceTest, SameNameSameSeed) {
  const SeedSequence seeds{99};
  EXPECT_EQ(seeds.deriveSeed("medium"), seeds.deriveSeed("medium"));
}

TEST(SeedSequenceTest, DifferentMastersDiverge) {
  EXPECT_NE(SeedSequence{1}.deriveSeed("x"), SeedSequence{2}.deriveSeed("x"));
}

TEST(SeedSequenceTest, StreamsReproduce) {
  const SeedSequence seeds{5};
  Rng a = seeds.stream("s");
  Rng b = seeds.stream("s");
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(DeriveTrialSeedTest, AdjacentTrialsGetDistinctUncorrelatedSeeds) {
  // Adjacent indices must not produce near-identical seeds (the campaign
  // engine derives every trial's master seed from its index).
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 256; ++i) {
    seeds.push_back(deriveTrialSeed(42, i));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  // Avalanche: consecutive indices flip roughly half the output bits.
  for (std::uint64_t i = 0; i < 64; ++i) {
    const int flipped = std::popcount(deriveTrialSeed(42, i) ^
                                      deriveTrialSeed(42, i + 1));
    EXPECT_GT(flipped, 16);
    EXPECT_LT(flipped, 48);
  }
}

TEST(DeriveTrialSeedTest, IndependentOfEvaluationOrder) {
  // A pure function of (campaignSeed, index): querying indices in any order
  // or in isolation yields the same values.
  const std::uint64_t late = deriveTrialSeed(7, 1000);
  const std::uint64_t early = deriveTrialSeed(7, 3);
  EXPECT_EQ(deriveTrialSeed(7, 1000), late);
  EXPECT_EQ(deriveTrialSeed(7, 3), early);
}

TEST(DeriveTrialSeedTest, PinnedValuesAreStableAcrossRuns) {
  // SplitMix64 golden values: resumed campaigns and cross-machine reruns
  // depend on these never changing.
  EXPECT_EQ(deriveTrialSeed(0, 0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(deriveTrialSeed(0, 1), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(deriveTrialSeed(20170605, 0), 0x8fca87c02bfbe5cdull);
  EXPECT_NE(deriveTrialSeed(1, 0), deriveTrialSeed(2, 0));
}

}  // namespace
}  // namespace blackdp::sim
