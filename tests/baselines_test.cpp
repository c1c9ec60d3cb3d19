// Related-work baselines: sequence-number detectors and the trust manager.
#include <gtest/gtest.h>

#include "baselines/rrep_detectors.hpp"
#include "baselines/trust_manager.hpp"

namespace blackdp::baselines {
namespace {

aodv::RouteReply rrep(std::uint64_t replier, aodv::SeqNum seq) {
  aodv::RouteReply r;
  r.replier = common::Address{replier};
  r.destSeq = seq;
  return r;
}

// ------------------------------------------------- first-RREP comparison

TEST(FirstRrepTest, FlagsOutlierFirstReply) {
  FirstRrepComparisonDetector detector;
  const auto flagged = detector.classify({rrep(66, 200), rrep(2, 5)});
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0], common::Address{66});
}

TEST(FirstRrepTest, AcceptsComparableFirstReply) {
  FirstRrepComparisonDetector detector;
  EXPECT_TRUE(detector.classify({rrep(1, 30), rrep(2, 25)}).empty());
}

TEST(FirstRrepTest, BlindWithSingleReply) {
  // The paper's criticism: "there might be a situation where the attacker
  // is the connector of two networks... In this case, none of the previous
  // techniques can detect the attack."
  FirstRrepComparisonDetector detector;
  EXPECT_TRUE(detector.classify({rrep(66, 99999)}).empty());
}

TEST(FirstRrepTest, BlindWithNoReplies) {
  FirstRrepComparisonDetector detector;
  EXPECT_TRUE(detector.classify({}).empty());
}

TEST(FirstRrepTest, DuplicateCopiesOfFirstReplierDoNotMaskIt) {
  FirstRrepComparisonDetector detector;
  const auto flagged =
      detector.classify({rrep(66, 200), rrep(66, 200), rrep(2, 5)});
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0], common::Address{66});
}

TEST(FirstRrepTest, CooperativePairMasksItself) {
  // Two colluders replying with the same forged freshness look comparable.
  FirstRrepComparisonDetector detector;
  EXPECT_TRUE(detector.classify({rrep(66, 200), rrep(67, 200)}).empty());
}

TEST(FirstRrepTest, MarginIsConfigurable) {
  FirstRrepComparisonDetector strict{0};
  EXPECT_EQ(strict.classify({rrep(66, 6), rrep(2, 5)}).size(), 1u);
  FirstRrepComparisonDetector lax{1000};
  EXPECT_TRUE(lax.classify({rrep(66, 200), rrep(2, 5)}).empty());
}

// ------------------------------------------------------------------- PEAK

TEST(PeakTest, FlagsAboveInitialPeak) {
  PeakThresholdDetector detector{100, 100};
  const auto flagged = detector.classify({rrep(66, 150), rrep(2, 5)});
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0], common::Address{66});
}

TEST(PeakTest, AcceptsBelowPeak) {
  PeakThresholdDetector detector{100, 100};
  EXPECT_TRUE(detector.classify({rrep(2, 50)}).empty());
}

TEST(PeakTest, PeakAdaptsToAcceptedTraffic) {
  PeakThresholdDetector detector{100, 100};
  (void)detector.classify({rrep(2, 90)});
  // PEAK is now max(100, 90) + 100 = 200.
  EXPECT_EQ(detector.currentPeak(), 200u);
  EXPECT_TRUE(detector.classify({rrep(3, 150)}).empty());
}

TEST(PeakTest, ConstantForgeryEventuallySlipsUnder) {
  // The poisoning weakness: once a forged value is accepted, it raises the
  // ceiling for every later round.
  PeakThresholdDetector detector{100, 100};
  EXPECT_EQ(detector.classify({rrep(66, 150)}).size(), 1u);  // caught once
  EXPECT_TRUE(detector.classify({rrep(66, 150)}).empty());   // now accepted
  EXPECT_GE(detector.currentPeak(), 250u);
}

// -------------------------------------------------------- static threshold

TEST(StaticThresholdTest, EnvironmentsSetThresholds) {
  EXPECT_EQ(StaticThresholdDetector{Environment::kSmall}.threshold(), 100u);
  EXPECT_EQ(StaticThresholdDetector{Environment::kMedium}.threshold(), 500u);
  EXPECT_EQ(StaticThresholdDetector{Environment::kLarge}.threshold(), 2000u);
}

TEST(StaticThresholdTest, FlagsAboveThresholdOnly) {
  StaticThresholdDetector detector{Environment::kMedium};
  const auto flagged =
      detector.classify({rrep(66, 501), rrep(2, 500), rrep(3, 5)});
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0], common::Address{66});
}

TEST(StaticThresholdTest, AdaptiveForgerSlipsUnderWrongEnvironment) {
  // Forged SN = 200: caught by "small", missed by "medium"/"large".
  EXPECT_EQ(StaticThresholdDetector{Environment::kSmall}
                .classify({rrep(66, 200)})
                .size(),
            1u);
  EXPECT_TRUE(StaticThresholdDetector{Environment::kMedium}
                  .classify({rrep(66, 200)})
                  .empty());
}

// Property sweep: detection as a function of the forged boost.
class ThresholdSweep : public ::testing::TestWithParam<aodv::SeqNum> {};

TEST_P(ThresholdSweep, FlagsIffAboveThreshold) {
  const aodv::SeqNum forged = GetParam();
  StaticThresholdDetector detector{Environment::kMedium};
  const bool flagged = !detector.classify({rrep(66, forged)}).empty();
  EXPECT_EQ(flagged, forged > 500u);
}

INSTANTIATE_TEST_SUITE_P(Boosts, ThresholdSweep,
                         ::testing::Values(1u, 100u, 499u, 500u, 501u, 2000u,
                                           100000u));

// ------------------------------------------------------------------ trust

TEST(TrustTest, StartsAtInitialTrust) {
  TrustManager trust;
  EXPECT_DOUBLE_EQ(trust.trust(common::Address{1}), 0.5);
  EXPECT_FALSE(trust.isMalicious(common::Address{1}));
}

TEST(TrustTest, DropsErodeTrust) {
  TrustManager trust;
  for (int i = 0; i < 20; ++i) trust.observe(common::Address{66}, false);
  EXPECT_LT(trust.trust(common::Address{66}), 0.25);
  EXPECT_TRUE(trust.isMalicious(common::Address{66}));
}

TEST(TrustTest, ForwardsBuildTrust) {
  TrustManager trust;
  for (int i = 0; i < 20; ++i) trust.observe(common::Address{1}, true);
  EXPECT_GT(trust.trust(common::Address{1}), 0.9);
  EXPECT_FALSE(trust.isMalicious(common::Address{1}));
}

TEST(TrustTest, VerdictNeedsMinimumObservations) {
  TrustConfig config;
  config.minObservations = 10;
  TrustManager trust{config};
  for (int i = 0; i < 9; ++i) trust.observe(common::Address{66}, false);
  EXPECT_FALSE(trust.isMalicious(common::Address{66}));
  trust.observe(common::Address{66}, false);
  EXPECT_TRUE(trust.isMalicious(common::Address{66}));
}

TEST(TrustTest, MaliciousGossipCanFrameHonestNodes) {
  // The paper's §V-C criticism: attackers participating in opinion
  // exchange can push an honest node's score below the threshold.
  TrustManager trust;
  for (int i = 0; i < 40; ++i) trust.gossip(common::Address{2}, 0.0);
  EXPECT_TRUE(trust.isMalicious(common::Address{2}));
}

TEST(TrustTest, MaliciousNodesListsOffenders) {
  TrustManager trust;
  for (int i = 0; i < 20; ++i) {
    trust.observe(common::Address{66}, false);
    trust.observe(common::Address{1}, true);
  }
  const auto malicious = trust.maliciousNodes();
  ASSERT_EQ(malicious.size(), 1u);
  EXPECT_EQ(malicious[0], common::Address{66});
}

TEST(TrustTest, ObservationsAreCounted) {
  TrustManager trust;
  trust.observe(common::Address{1}, true);
  trust.observe(common::Address{1}, false);
  EXPECT_EQ(trust.observations(common::Address{1}), 2u);
  EXPECT_EQ(trust.observations(common::Address{2}), 0u);
}

}  // namespace
}  // namespace blackdp::baselines
