// Zero-allocation steady-state guard.
//
// Links common/alloc_hook (counting operator new/delete) and asserts that a
// steady-state Medium::send → deliver → AODV-forward cycle performs zero
// heap allocations once the pools are warm: payloads come from the arena,
// simulator slots, fan-out records and heap entries recycle, and the
// dense-id tables stop rehashing. A negative control verifies the hook
// actually counts, so a silently-unlinked hook cannot fake a pass.
//
// Under ASan/UBSan the sanitizer runtime owns the allocator and adds its
// own bookkeeping allocations, so the zero-delta assertion is skipped there
// (the cycle still runs; the negative control still must count).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "aodv/agent.hpp"
#include "common/alloc_hook.hpp"
#include "net/node.hpp"

namespace blackdp {
namespace {

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// Five stationary nodes on a line, 800 m apart (range 1000 m): every data
/// packet from node 0 to node 4 crosses four AODV forwarding hops.
class SteadyLine {
 public:
  static constexpr std::size_t kNodes = 5;

  SteadyLine() : medium_{simulator_, sim::Rng{7}, mediumConfig()} {
    for (std::size_t i = 0; i < kNodes; ++i) {
      auto node = std::make_unique<net::BasicNode>(
          simulator_, medium_,
          common::NodeId{static_cast<std::uint32_t>(i + 1)},
          mobility::LinearMotion::stationary(
              {800.0 * static_cast<double>(i), 0.0}));
      node->setLocalAddress(common::Address{100 + i});
      auto agent = std::make_unique<aodv::AodvAgent>(simulator_, *node);
      nodes_.push_back(std::move(node));
      agents_.push_back(std::move(agent));
    }
  }

  bool establishRoute() {
    bool ok = false;
    agents_.front()->findRoute(destination(), [&ok](bool good) { ok = good; });
    simulator_.run(simulator_.now() + sim::Duration::seconds(10));
    return ok;
  }

  /// One steady-state cycle: source sends a data packet, the queue drains
  /// (four forward hops plus MAC ACK echoes).
  void cycle() {
    agents_.front()->sendData(destination());
    simulator_.run();
  }

  [[nodiscard]] common::Address destination() const {
    return common::Address{100 + kNodes - 1};
  }
  [[nodiscard]] aodv::AodvAgent& destinationAgent() {
    return *agents_.back();
  }

 private:
  static net::MediumConfig mediumConfig() {
    net::MediumConfig c;
    c.maxJitter = sim::Duration{};  // deterministic spacing, no RNG churn
    return c;
  }

  sim::Simulator simulator_;
  net::WirelessMedium medium_;
  std::vector<std::unique_ptr<net::BasicNode>> nodes_;
  std::vector<std::unique_ptr<aodv::AodvAgent>> agents_;
};

/// Negative control: the hook must be linked and must observe an ordinary
/// heap allocation, otherwise the zero-delta test below proves nothing.
TEST(AllocGuardTest, HookCountsOrdinaryAllocations) {
  ASSERT_TRUE(common::allocHookActive())
      << "blackdp_alloc_hook is not linked into this test binary";

  const common::AllocCounters before = common::threadAllocCounters();
  auto block = std::make_unique<std::vector<std::uint64_t>>();
  block->resize(4096);
  const common::AllocCounters after = common::threadAllocCounters();
  ASSERT_GT(after.allocations, before.allocations);
  block.reset();
  const common::AllocCounters freed = common::threadAllocCounters();
  ASSERT_GT(freed.deallocations, after.deallocations);
}

TEST(AllocGuardTest, SteadyStateForwardingCycleIsAllocationFree) {
  ASSERT_TRUE(common::allocHookActive());

  SteadyLine line;
  ASSERT_TRUE(line.establishRoute());

  // Warmup: payload arena free lists fill, simulator heap/slot vectors and
  // the dense-id tables reach their steady-state capacity.
  constexpr int kWarmupCycles = 256;
  constexpr int kMeasuredCycles = 512;
  for (int i = 0; i < kWarmupCycles; ++i) line.cycle();

  const std::uint64_t deliveredBefore =
      line.destinationAgent().stats().dataDelivered;
  const common::AllocCounters before = common::threadAllocCounters();
  for (int i = 0; i < kMeasuredCycles; ++i) line.cycle();
  const common::AllocCounters after = common::threadAllocCounters();

  // The workload must actually have run end to end.
  EXPECT_EQ(line.destinationAgent().stats().dataDelivered,
            deliveredBefore + kMeasuredCycles);

  if (kSanitized) {
    GTEST_SKIP() << "sanitizer runtime owns the allocator; zero-delta "
                    "assertion is only meaningful in the plain build";
  }
  EXPECT_EQ(after.allocations, before.allocations)
      << (after.allocations - before.allocations) << " heap allocations in "
      << kMeasuredCycles << " steady-state send->deliver->forward cycles";
  EXPECT_EQ(after.deallocations, before.deallocations);
}

/// Counts receptions without storing anything.
class CountingRadio final : public net::Radio {
 public:
  explicit CountingRadio(mobility::Position where) : where_{where} {}
  [[nodiscard]] mobility::Position radioPosition() const override {
    return where_;
  }
  void onFrame(const net::Frame& /*frame*/) override { ++frames; }

  std::uint64_t frames{0};

 private:
  mobility::Position where_;
};

class Probe final : public net::Payload {
 public:
  [[nodiscard]] std::string_view typeName() const override { return "probe"; }
};

// Fan-out records recycle in any order, so whichever record a transmission
// draws must already fit the largest fan-out seen. Warm-up reaches the peak
// number of frames in flight with small fan-outs and sends the largest
// fan-out once; the measured span then has every frame in flight at that
// largest size.
TEST(AllocGuardTest, RecycledFanOutsNeverGrowAfterWarmup) {
  ASSERT_TRUE(common::allocHookActive());

  constexpr std::uint32_t kWide = 64;      // receivers around the wide sender
  constexpr int kInFlight = 24;            // frames in flight at the peak
  constexpr int kMeasuredRounds = 16;
  sim::Simulator simulator;
  net::WirelessMedium medium{simulator, sim::Rng{11}};
  std::vector<std::unique_ptr<CountingRadio>> radios;
  const auto place = [&](std::uint32_t id, mobility::Position where) {
    radios.push_back(std::make_unique<CountingRadio>(where));
    medium.attach(common::NodeId{id}, *radios.back());
  };
  // Node 1 and its kWide neighbours; node 100 and one neighbour, 50 km off.
  for (std::uint32_t id = 1; id <= kWide + 1; ++id) {
    place(id, {10.0 * id, 0.0});
  }
  place(100, {50'000.0, 0.0});
  place(101, {50'010.0, 0.0});

  const auto burst = [&](std::uint32_t sender, int frames) {
    for (int i = 0; i < frames; ++i) {
      medium.send(common::NodeId{sender},
                  net::Frame{common::Address{sender}, common::kBroadcastAddress,
                             net::makePayload<Probe>()});
    }
    simulator.run();
  };
  for (int round = 0; round < 4; ++round) burst(100, kInFlight);
  burst(1, 1);

  const std::uint64_t heardBefore = radios[1]->frames;
  const common::AllocCounters before = common::threadAllocCounters();
  for (int round = 0; round < kMeasuredRounds; ++round) burst(1, kInFlight);
  const common::AllocCounters after = common::threadAllocCounters();

  EXPECT_EQ(radios[1]->frames,
            heardBefore + static_cast<std::uint64_t>(kMeasuredRounds) *
                              kInFlight);
  if (kSanitized) {
    GTEST_SKIP() << "sanitizer runtime owns the allocator; zero-delta "
                    "assertion is only meaningful in the plain build";
  }
  EXPECT_EQ(after.allocations, before.allocations)
      << (after.allocations - before.allocations) << " heap allocations in "
      << kMeasuredRounds << " rounds of " << kInFlight << " frames in flight";
  EXPECT_EQ(after.deallocations, before.deallocations);
}

}  // namespace
}  // namespace blackdp
