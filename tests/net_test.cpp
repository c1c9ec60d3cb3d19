#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "net/backbone.hpp"
#include "net/medium.hpp"
#include "net/node.hpp"

namespace blackdp::net {
namespace {

class Ping final : public Payload {
 public:
  explicit Ping(int value = 0) : value_{value} {}
  [[nodiscard]] std::string_view typeName() const override { return "ping"; }
  [[nodiscard]] int value() const { return value_; }

 private:
  int value_;
};

class Pong final : public Payload {
 public:
  [[nodiscard]] std::string_view typeName() const override { return "pong"; }
};

/// Test radio pinned to a position, recording every frame.
class FixedRadio final : public Radio {
 public:
  explicit FixedRadio(mobility::Position where) : where_{where} {}
  [[nodiscard]] mobility::Position radioPosition() const override {
    return where_;
  }
  void onFrame(const Frame& frame) override { frames.push_back(frame); }

  mobility::Position where_;
  std::vector<Frame> frames;
};

// ----------------------------------------------------------------- payload

TEST(PayloadTest, DowncastMatchesType) {
  const PayloadPtr p = makePayload<Ping>(7);
  ASSERT_NE(payloadAs<Ping>(p), nullptr);
  EXPECT_EQ(payloadAs<Ping>(p)->value(), 7);
  EXPECT_EQ(payloadAs<Pong>(p), nullptr);
}

TEST(FrameTest, BroadcastDetection) {
  Frame f{common::Address{1}, common::kBroadcastAddress, makePayload<Ping>()};
  EXPECT_TRUE(f.isBroadcast());
  f.dst = common::Address{2};
  EXPECT_FALSE(f.isBroadcast());
}

// ------------------------------------------------------------------ medium

MediumConfig deterministicMediumConfig() {
  MediumConfig c;
  c.transmissionRangeM = 1000.0;
  c.maxJitter = sim::Duration{};  // deterministic delivery time
  return c;
}

class MediumTest : public ::testing::Test {
 protected:
  MediumTest() : medium_{simulator_, sim::Rng{1}, deterministicMediumConfig()} {}

  static MediumConfig config() { return deterministicMediumConfig(); }

  sim::Simulator simulator_;
  WirelessMedium medium_;
};

TEST_F(MediumTest, DeliversWithinRange) {
  FixedRadio a{{0.0, 0.0}};
  FixedRadio b{{999.0, 0.0}};
  medium_.attach(common::NodeId{1}, a);
  medium_.attach(common::NodeId{2}, b);
  medium_.send(common::NodeId{1}, Frame{common::Address{1},
                                        common::kBroadcastAddress,
                                        makePayload<Ping>()});
  simulator_.run();
  EXPECT_EQ(b.frames.size(), 1u);
  EXPECT_TRUE(a.frames.empty());  // no self-delivery
}

TEST_F(MediumTest, DropsBeyondRange) {
  FixedRadio a{{0.0, 0.0}};
  FixedRadio b{{1000.5, 0.0}};
  medium_.attach(common::NodeId{1}, a);
  medium_.attach(common::NodeId{2}, b);
  medium_.send(common::NodeId{1}, Frame{common::Address{1},
                                        common::kBroadcastAddress,
                                        makePayload<Ping>()});
  simulator_.run();
  EXPECT_TRUE(b.frames.empty());
}

TEST_F(MediumTest, RangeIsInclusive) {
  FixedRadio a{{0.0, 0.0}};
  FixedRadio b{{1000.0, 0.0}};
  medium_.attach(common::NodeId{1}, a);
  medium_.attach(common::NodeId{2}, b);
  medium_.send(common::NodeId{1}, Frame{common::Address{1},
                                        common::kBroadcastAddress,
                                        makePayload<Ping>()});
  simulator_.run();
  EXPECT_EQ(b.frames.size(), 1u);
}

TEST_F(MediumTest, EveryInRangeNodeHearsBroadcast) {
  FixedRadio a{{0.0, 0.0}};
  FixedRadio b{{100.0, 0.0}};
  FixedRadio c{{200.0, 0.0}};
  FixedRadio d{{5000.0, 0.0}};
  medium_.attach(common::NodeId{1}, a);
  medium_.attach(common::NodeId{2}, b);
  medium_.attach(common::NodeId{3}, c);
  medium_.attach(common::NodeId{4}, d);
  medium_.send(common::NodeId{1}, Frame{common::Address{1},
                                        common::kBroadcastAddress,
                                        makePayload<Ping>()});
  simulator_.run();
  EXPECT_EQ(b.frames.size(), 1u);
  EXPECT_EQ(c.frames.size(), 1u);
  EXPECT_TRUE(d.frames.empty());
}

TEST_F(MediumTest, UnicastFramesStillReachAllInRangeRadios) {
  // A shared channel: address filtering is the receiver's job.
  FixedRadio a{{0.0, 0.0}};
  FixedRadio b{{10.0, 0.0}};
  FixedRadio c{{20.0, 0.0}};
  medium_.attach(common::NodeId{1}, a);
  medium_.attach(common::NodeId{2}, b);
  medium_.attach(common::NodeId{3}, c);
  medium_.send(common::NodeId{1}, Frame{common::Address{1},
                                        common::Address{2},
                                        makePayload<Ping>()});
  simulator_.run();
  EXPECT_EQ(b.frames.size(), 1u);
  EXPECT_EQ(c.frames.size(), 1u);  // overhears; filtering happens in nodes
}

TEST_F(MediumTest, DeliveryIsDelayedByLatency) {
  FixedRadio a{{0.0, 0.0}};
  FixedRadio b{{10.0, 0.0}};
  medium_.attach(common::NodeId{1}, a);
  medium_.attach(common::NodeId{2}, b);
  medium_.send(common::NodeId{1}, Frame{common::Address{1},
                                        common::kBroadcastAddress,
                                        makePayload<Ping>()});
  EXPECT_TRUE(b.frames.empty());  // nothing until the event fires
  simulator_.run();
  EXPECT_EQ(simulator_.now().us(), config().perHopLatency.us());
  EXPECT_EQ(b.frames.size(), 1u);
}

TEST_F(MediumTest, DetachedReceiverMissesInFlightFrame) {
  FixedRadio a{{0.0, 0.0}};
  FixedRadio b{{10.0, 0.0}};
  medium_.attach(common::NodeId{1}, a);
  medium_.attach(common::NodeId{2}, b);
  medium_.send(common::NodeId{1}, Frame{common::Address{1},
                                        common::kBroadcastAddress,
                                        makePayload<Ping>()});
  medium_.detach(common::NodeId{2});  // leaves before delivery
  simulator_.run();
  EXPECT_TRUE(b.frames.empty());
}

TEST_F(MediumTest, SendFromUnattachedNodeAsserts) {
  EXPECT_THROW(medium_.send(common::NodeId{9},
                            Frame{common::Address{9},
                                  common::kBroadcastAddress,
                                  makePayload<Ping>()}),
               common::AssertionError);
}

TEST_F(MediumTest, DoubleAttachAsserts) {
  FixedRadio a{{0.0, 0.0}};
  medium_.attach(common::NodeId{1}, a);
  EXPECT_THROW(medium_.attach(common::NodeId{1}, a), common::AssertionError);
}

TEST_F(MediumTest, FrameWithoutPayloadAsserts) {
  FixedRadio a{{0.0, 0.0}};
  medium_.attach(common::NodeId{1}, a);
  EXPECT_THROW(medium_.send(common::NodeId{1},
                            Frame{common::Address{1},
                                  common::kBroadcastAddress, nullptr}),
               common::AssertionError);
}

TEST_F(MediumTest, InRangeQuery) {
  FixedRadio a{{0.0, 0.0}};
  FixedRadio b{{900.0, 0.0}};
  FixedRadio c{{2000.0, 0.0}};
  medium_.attach(common::NodeId{1}, a);
  medium_.attach(common::NodeId{2}, b);
  medium_.attach(common::NodeId{3}, c);
  EXPECT_TRUE(medium_.inRange(common::NodeId{1}, common::NodeId{2}));
  EXPECT_FALSE(medium_.inRange(common::NodeId{1}, common::NodeId{3}));
  EXPECT_FALSE(medium_.inRange(common::NodeId{1}, common::NodeId{9}));
}

TEST_F(MediumTest, StatsCountFramesAndBytes) {
  FixedRadio a{{0.0, 0.0}};
  FixedRadio b{{10.0, 0.0}};
  FixedRadio c{{20.0, 0.0}};
  medium_.attach(common::NodeId{1}, a);
  medium_.attach(common::NodeId{2}, b);
  medium_.attach(common::NodeId{3}, c);
  medium_.send(common::NodeId{1}, Frame{common::Address{1},
                                        common::kBroadcastAddress,
                                        makePayload<Ping>()});
  simulator_.run();
  EXPECT_EQ(medium_.stats().framesSent, 1u);
  EXPECT_EQ(medium_.stats().framesDelivered, 2u);
  EXPECT_GT(medium_.stats().bytesSent, 0u);
}

TEST(MediumLossTest, FullLossDeliversNothing) {
  sim::Simulator simulator;
  MediumConfig config;
  config.lossProbability = 1.0;
  WirelessMedium medium{simulator, sim::Rng{1}, config};
  FixedRadio a{{0.0, 0.0}};
  FixedRadio b{{10.0, 0.0}};
  medium.attach(common::NodeId{1}, a);
  medium.attach(common::NodeId{2}, b);
  for (int i = 0; i < 10; ++i) {
    medium.send(common::NodeId{1}, Frame{common::Address{1},
                                         common::kBroadcastAddress,
                                         makePayload<Ping>()});
  }
  simulator.run();
  EXPECT_TRUE(b.frames.empty());
  EXPECT_EQ(medium.stats().framesLost, 10u);
}

TEST(MediumLossTest, PartialLossIsApproximatelyCalibrated) {
  sim::Simulator simulator;
  MediumConfig config;
  config.lossProbability = 0.3;
  WirelessMedium medium{simulator, sim::Rng{42}, config};
  FixedRadio a{{0.0, 0.0}};
  FixedRadio b{{10.0, 0.0}};
  medium.attach(common::NodeId{1}, a);
  medium.attach(common::NodeId{2}, b);
  for (int i = 0; i < 1000; ++i) {
    medium.send(common::NodeId{1}, Frame{common::Address{1},
                                         common::kBroadcastAddress,
                                         makePayload<Ping>()});
  }
  simulator.run();
  EXPECT_GT(b.frames.size(), 600u);
  EXPECT_LT(b.frames.size(), 800u);
}

// --------------------------------------------------- reception order (pin)

/// Appends " <now us>:<node><R|F>" to a shared log for every reception (R)
/// and every MAC send-failure (F) callback, in the order they run.
class LoggingRadio final : public Radio {
 public:
  LoggingRadio(const sim::Simulator& simulator, std::uint32_t id,
               mobility::Position where, std::string& log)
      : simulator_{simulator}, id_{id}, where_{where}, log_{log} {}
  [[nodiscard]] mobility::Position radioPosition() const override {
    return where_;
  }
  void onFrame(const Frame& /*frame*/) override { append('R'); }
  void onSendFailed(const Frame& /*frame*/) override { append('F'); }

 private:
  void append(char what) {
    log_ += ' ' + std::to_string(simulator_.now().us()) + ':' +
            std::to_string(id_) + what;
  }

  const sim::Simulator& simulator_;
  std::uint32_t id_;
  mobility::Position where_;
  std::string& log_;
};

/// Jams every delivery to a receiver whose id is 3 mod 7, so a unicast to
/// one of them fails the MAC ACK at that receiver's place in id order.
class JamSomeReceivers final : public MediumFaultHook {
 public:
  obs::DropCause dropDelivery(common::NodeId /*sender*/,
                              common::NodeId receiver,
                              const mobility::Position& /*senderPos*/,
                              const mobility::Position& /*receiverPos*/)
      override {
    return receiver.value() % 7 == 3 ? obs::DropCause::kJam
                                     : obs::DropCause::kNone;
  }
};

// The exact callback sequence of a jittered, lossy, fault-hooked medium:
// equal-time ties, interleaved broadcasts, a jammed unicast addressee, two
// unreachable unicasts and a receiver detached with a frame in flight. The
// expected log was recorded from the per-receiver scheduling the medium
// used before fan-out delivery, and must never change.
TEST(MediumOrderTest, CallbackSequenceIsPinned) {
  sim::Simulator simulator;
  MediumConfig config;
  // 500 us per hop plus up to 8 us of jitter: many receptions tie with each
  // other and with the send failures, which carry no jitter.
  config.maxJitter = sim::Duration::microseconds(8);
  config.lossProbability = 0.25;
  WirelessMedium medium{simulator, sim::Rng{20170605}, config};
  JamSomeReceivers jam;
  medium.setFaultHook(&jam);

  std::string log;
  std::vector<std::unique_ptr<LoggingRadio>> radios;
  for (std::uint32_t id = 1; id <= 30; ++id) {
    radios.push_back(std::make_unique<LoggingRadio>(
        simulator, id,
        mobility::Position{70.0 * (id - 1), 40.0 * (id % 3)}, log));
    medium.attach(common::NodeId{id}, *radios.back());
    medium.bindAddress(common::Address{1000 + id}, common::NodeId{id});
  }
  const auto ping = [&](std::uint32_t from, common::Address to) {
    medium.send(common::NodeId{from},
                Frame{common::Address{1000 + from}, to, makePayload<Ping>()});
  };

  // Two broadcasts in one instant.
  ping(1, common::kBroadcastAddress);
  ping(15, common::kBroadcastAddress);
  simulator.schedule(sim::Duration::microseconds(50), [&] {
    ping(5, common::Address{1012});  // reachable addressee
    ping(8, common::Address{1010});  // addressee 10 is jammed
    ping(20, common::Address{999});  // unbound address
    ping(1, common::Address{1030});  // owner 2030 m away
  });
  // Node 18 leaves while this broadcast is in flight.
  simulator.schedule(sim::Duration::milliseconds(2), [&] {
    ping(16, common::kBroadcastAddress);
  });
  simulator.schedule(
      sim::Duration::milliseconds(2) + sim::Duration::microseconds(100),
      [&] { medium.detach(common::NodeId{18}); });
  simulator.run();

  const std::string expected =
      " 500:8R 500:19R 501:5R 501:8R 501:2R 501:4R 501:7R 501:21R"
      " 501:22R 502:2R 502:11R 502:26R 503:4R 503:25R 504:6R 504:7R"
      " 504:9R 504:15R 505:5R 505:13R 505:16R 505:29R 506:9R 506:11R"
      " 506:12R 506:23R 507:27R 508:28R 550:8F 550:15R 550:20F"
      " 550:26R 550:28R 550:1F 551:11R 551:12R 551:13R 551:18R"
      " 551:13R 551:30R 551:14R 552:15R 552:2R 552:4R 552:12R 552:19R"
      " 552:8R 553:7R 553:8R 553:5R 553:18R 553:6R 553:4R 553:6R"
      " 554:14R 554:21R 554:7R 555:1R 555:16R 555:9R 555:22R 555:7R"
      " 555:12R 555:13R 555:15R 556:4R 556:19R 556:7R 556:16R 556:14R"
      " 556:16R 556:19R 556:25R 556:27R 557:2R 557:22R 557:29R 558:9R"
      " 558:6R 558:8R 558:15R 558:12R 2501:22R 2501:29R 2502:12R"
      " 2502:20R 2502:28R 2503:6R 2503:19R 2504:11R 2504:27R 2507:2R"
      " 2507:30R 2508:7R 2508:15R 2508:26R";
  EXPECT_EQ(log, expected);
  EXPECT_EQ(medium.stats().sendFailures, 3u);
}

// ---------------------------------------------------------------- backbone

class RecordingEndpoint final : public BackboneEndpoint {
 public:
  void onBackboneMessage(common::ClusterId from,
                         const PayloadPtr& payload) override {
    received.emplace_back(from, payload);
  }
  void onBackboneSendFailed(common::ClusterId to,
                            const PayloadPtr& payload) override {
    sendFailures.emplace_back(to, payload);
  }
  std::vector<std::pair<common::ClusterId, PayloadPtr>> received;
  std::vector<std::pair<common::ClusterId, PayloadPtr>> sendFailures;
};

TEST(BackboneTest, DeliversBetweenClusters) {
  sim::Simulator simulator;
  Backbone backbone{simulator};
  RecordingEndpoint a;
  RecordingEndpoint b;
  backbone.attach(common::ClusterId{1}, a);
  backbone.attach(common::ClusterId{2}, b);
  backbone.send(common::ClusterId{1}, common::ClusterId{2},
                makePayload<Ping>(5));
  simulator.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, common::ClusterId{1});
  EXPECT_EQ(payloadAs<Ping>(b.received[0].second)->value(), 5);
  EXPECT_TRUE(a.received.empty());
}

TEST(BackboneTest, UnknownDestinationCountsDropAndNotifiesSender) {
  sim::Simulator simulator;
  Backbone backbone{simulator};
  RecordingEndpoint a;
  backbone.attach(common::ClusterId{1}, a);
  EXPECT_NO_THROW(backbone.send(common::ClusterId{1}, common::ClusterId{9},
                                makePayload<Ping>()));
  simulator.run();
  EXPECT_EQ(backbone.stats().messagesDropped, 1u);
  ASSERT_EQ(a.sendFailures.size(), 1u);
  EXPECT_EQ(a.sendFailures[0].first, common::ClusterId{9});
}

TEST(BackboneTest, SendFromUnattachedIsRecoverable) {
  // A CH that crashed with a send still queued must not abort the run: the
  // message is counted as dropped and reported via the global callback.
  sim::Simulator simulator;
  Backbone backbone{simulator};
  int failures = 0;
  backbone.setSendFailureCallback(
      [&](common::ClusterId from, common::ClusterId to, const PayloadPtr&) {
        ++failures;
        EXPECT_EQ(from, common::ClusterId{1});
        EXPECT_EQ(to, common::ClusterId{2});
      });
  EXPECT_NO_THROW(backbone.send(common::ClusterId{1}, common::ClusterId{2},
                                makePayload<Ping>()));
  simulator.run();
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(backbone.stats().sendsFromUnattached, 1u);
  EXPECT_EQ(backbone.stats().messagesDropped, 1u);
  EXPECT_EQ(backbone.stats().messagesSent, 0u);
}

TEST(BackboneTest, LinkFilterBlocksAndNotifies) {
  sim::Simulator simulator;
  Backbone backbone{simulator};
  RecordingEndpoint a;
  RecordingEndpoint b;
  backbone.attach(common::ClusterId{1}, a);
  backbone.attach(common::ClusterId{2}, b);
  bool linkUp = false;
  backbone.setLinkFilter(
      [&](common::ClusterId, common::ClusterId) { return linkUp; });
  backbone.send(common::ClusterId{1}, common::ClusterId{2},
                makePayload<Ping>());
  simulator.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(backbone.stats().linkBlocked, 1u);
  ASSERT_EQ(a.sendFailures.size(), 1u);

  linkUp = true;
  backbone.send(common::ClusterId{1}, common::ClusterId{2},
                makePayload<Ping>());
  simulator.run();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(a.sendFailures.size(), 1u);
}

TEST(BackboneTest, CountsTraffic) {
  sim::Simulator simulator;
  Backbone backbone{simulator};
  RecordingEndpoint a;
  RecordingEndpoint b;
  backbone.attach(common::ClusterId{1}, a);
  backbone.attach(common::ClusterId{2}, b);
  backbone.send(common::ClusterId{1}, common::ClusterId{2},
                makePayload<Ping>());
  backbone.send(common::ClusterId{2}, common::ClusterId{1},
                makePayload<Ping>());
  simulator.run();
  EXPECT_EQ(backbone.stats().messagesSent, 2u);
}

TEST(BackboneTest, DetachStopsDelivery) {
  sim::Simulator simulator;
  Backbone backbone{simulator};
  RecordingEndpoint a;
  RecordingEndpoint b;
  backbone.attach(common::ClusterId{1}, a);
  backbone.attach(common::ClusterId{2}, b);
  backbone.send(common::ClusterId{1}, common::ClusterId{2},
                makePayload<Ping>());
  backbone.detach(common::ClusterId{2});
  simulator.run();
  EXPECT_TRUE(b.received.empty());
}

// -------------------------------------------------------------- basic node

class NodeTest : public ::testing::Test {
 protected:
  NodeTest() : medium_{simulator_, sim::Rng{1}, deterministicMediumConfig()} {}

  sim::Simulator simulator_;
  WirelessMedium medium_;
};

TEST_F(NodeTest, FiltersFramesByAddress) {
  net::BasicNode a{simulator_, medium_, common::NodeId{1},
                   mobility::LinearMotion::stationary({0.0, 0.0})};
  net::BasicNode b{simulator_, medium_, common::NodeId{2},
                   mobility::LinearMotion::stationary({10.0, 0.0})};
  a.setLocalAddress(common::Address{100});
  b.setLocalAddress(common::Address{200});

  int received = 0;
  b.addHandler([&](const Frame&) {
    ++received;
    return true;
  });

  a.sendTo(common::Address{200}, makePayload<Ping>());  // for b
  a.sendTo(common::Address{300}, makePayload<Ping>());  // for nobody
  a.broadcast(makePayload<Ping>());                     // for everyone
  simulator_.run();
  EXPECT_EQ(received, 2);
}

TEST_F(NodeTest, HandlersRunInOrderUntilConsumed) {
  net::BasicNode a{simulator_, medium_, common::NodeId{1},
                   mobility::LinearMotion::stationary({0.0, 0.0})};
  net::BasicNode b{simulator_, medium_, common::NodeId{2},
                   mobility::LinearMotion::stationary({10.0, 0.0})};
  b.setLocalAddress(common::Address{200});

  std::vector<int> calls;
  b.addHandler([&](const Frame&) {
    calls.push_back(1);
    return false;  // pass on
  });
  b.addHandler([&](const Frame&) {
    calls.push_back(2);
    return true;  // consume
  });
  b.addHandler([&](const Frame&) {
    calls.push_back(3);
    return true;
  });

  a.sendTo(common::Address{200}, makePayload<Ping>());
  simulator_.run();
  EXPECT_EQ(calls, (std::vector<int>{1, 2}));
}

TEST_F(NodeTest, AliasesReceive) {
  net::BasicNode a{simulator_, medium_, common::NodeId{1},
                   mobility::LinearMotion::stationary({0.0, 0.0})};
  net::BasicNode b{simulator_, medium_, common::NodeId{2},
                   mobility::LinearMotion::stationary({10.0, 0.0})};
  b.setLocalAddress(common::Address{200});
  b.addAlias(common::Address{777});

  int received = 0;
  b.addHandler([&](const Frame&) {
    ++received;
    return true;
  });

  a.sendTo(common::Address{777}, makePayload<Ping>());
  simulator_.run();
  EXPECT_EQ(received, 1);

  b.removeAlias(common::Address{777});
  a.sendTo(common::Address{777}, makePayload<Ping>());
  simulator_.run();
  EXPECT_EQ(received, 1);
}

TEST_F(NodeTest, SendFromAliasStampsSource) {
  net::BasicNode a{simulator_, medium_, common::NodeId{1},
                   mobility::LinearMotion::stationary({0.0, 0.0})};
  net::BasicNode b{simulator_, medium_, common::NodeId{2},
                   mobility::LinearMotion::stationary({10.0, 0.0})};
  a.setLocalAddress(common::Address{100});
  b.setLocalAddress(common::Address{200});

  common::Address seenSrc{};
  b.addHandler([&](const Frame& frame) {
    seenSrc = frame.src;
    return true;
  });

  a.sendFromAlias(common::Address{555}, common::Address{200},
                  makePayload<Ping>());
  simulator_.run();
  EXPECT_EQ(seenSrc, common::Address{555});
}

TEST_F(NodeTest, DetachedNodeNeitherSendsNorReceives) {
  net::BasicNode a{simulator_, medium_, common::NodeId{1},
                   mobility::LinearMotion::stationary({0.0, 0.0})};
  net::BasicNode b{simulator_, medium_, common::NodeId{2},
                   mobility::LinearMotion::stationary({10.0, 0.0})};
  b.setLocalAddress(common::Address{200});

  int received = 0;
  b.addHandler([&](const Frame&) {
    ++received;
    return true;
  });

  b.detachFromMedium();
  a.sendTo(common::Address{200}, makePayload<Ping>());
  simulator_.run();
  EXPECT_EQ(received, 0);
  EXPECT_FALSE(b.isAttached());

  b.detachFromMedium();  // idempotent
  a.broadcast(makePayload<Ping>());
  EXPECT_NO_THROW(simulator_.run());

  // A detached node's own sends are no-ops, not errors.
  EXPECT_NO_THROW(b.broadcast(makePayload<Ping>()));
}

TEST_F(NodeTest, PositionFollowsMotion) {
  net::BasicNode a{
      simulator_, medium_, common::NodeId{1},
      mobility::LinearMotion{{0.0, 0.0}, 10.0,
                             mobility::Direction::kEastbound,
                             simulator_.now()}};
  bool checked = false;
  simulator_.schedule(sim::Duration::seconds(5), [&] {
    EXPECT_DOUBLE_EQ(a.radioPosition().x, 50.0);
    checked = true;
  });
  simulator_.run();
  EXPECT_TRUE(checked);
}

}  // namespace
}  // namespace blackdp::net
