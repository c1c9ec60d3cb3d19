// Randomised invariant checks on the stateful substrates (TEST_P sweeps).
#include <gtest/gtest.h>

#include <optional>

#include "aodv/routing_table.hpp"
#include "campaign/builtin.hpp"
#include "campaign/runner.hpp"
#include "crypto/revocation_store.hpp"
#include "sim/rng.hpp"

namespace blackdp {
namespace {

// ----------------------------------------------------- routing table fuzz

class RoutingTableFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingTableFuzz, InvariantsHoldUnderRandomOperations) {
  sim::Rng rng{GetParam()};
  aodv::RoutingTable table;
  sim::TimePoint now;

  for (int step = 0; step < 2'000; ++step) {
    now = now + sim::Duration::microseconds(rng.uniformInt(0, 1'000));
    const common::Address dest{
        static_cast<std::uint64_t>(rng.uniformInt(1, 20))};
    switch (rng.uniformInt(0, 3)) {
      case 0: {
        aodv::RouteEntry entry;
        entry.destination = dest;
        entry.nextHop =
            common::Address{static_cast<std::uint64_t>(rng.uniformInt(1, 20))};
        entry.hopCount = static_cast<std::uint8_t>(rng.uniformInt(1, 10));
        entry.destSeq = static_cast<aodv::SeqNum>(rng.uniformInt(0, 1'000));
        entry.validSeq = rng.bernoulli(0.9);
        entry.expiresAt = now + sim::Duration::microseconds(
                                    rng.uniformInt(0, 100'000));
        (void)table.update(entry, now);
        break;
      }
      case 1:
        table.invalidate(dest);
        break;
      case 2:
        (void)table.purgeExpired(now);
        break;
      case 3: {
        // I1: an active route is always valid and unexpired.
        const auto route = table.activeRoute(dest, now);
        if (route) {
          EXPECT_TRUE(route->valid);
          EXPECT_GT(route->expiresAt.us(), now.us());
          EXPECT_EQ(route->destination, dest);
        }
        break;
      }
    }
  }

  // I2: after a purge at time T, no entry expiring at or before T remains.
  (void)table.purgeExpired(now);
  for (const aodv::RouteEntry& entry : table.snapshot()) {
    EXPECT_GT(entry.expiresAt.us(), now.us());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingTableFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// --------------------------------------------------- revocation store fuzz

class RevocationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RevocationFuzz, SerialAndPseudonymIndicesStayConsistent) {
  sim::Rng rng{GetParam()};
  crypto::RevocationStore store;
  sim::TimePoint now;
  std::uint64_t serial = 1;

  for (int step = 0; step < 1'000; ++step) {
    now = now + sim::Duration::microseconds(rng.uniformInt(0, 5'000));
    if (rng.bernoulli(0.7)) {
      store.add({common::Address{
                     static_cast<std::uint64_t>(rng.uniformInt(1, 10))},
                 common::CertSerial{serial++},
                 now + sim::Duration::microseconds(
                           rng.uniformInt(1, 50'000))});
    } else {
      (void)store.purgeExpired(now);
    }
    // The two indices agree: every active notice is findable by serial AND
    // by pseudonym.
    for (const crypto::RevocationNotice& notice : store.active()) {
      EXPECT_TRUE(store.isRevokedSerial(notice.serial));
      EXPECT_TRUE(store.isRevokedPseudonym(notice.pseudonym));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RevocationFuzz, ::testing::Values(1, 7, 42));

// --------------------------------------------------- Fig. 5 seed stability

// The detection packet counts are protocol constants, not artifacts of one
// lucky seed: the same scripted placement of the built-in fig5 campaign
// costs the same packets under any campaign seed.
class Fig5Stability : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  /// Placement `index` (spec order) of the fig5 builtin at this seed.
  campaign::TrialRecord runPlacement(std::size_t index) const {
    std::optional<campaign::CampaignSpec> spec = campaign::parseCampaignSpec(
        campaign::findBuiltinSpec("fig5")->json);
    spec->seed = GetParam();
    const auto treatments = campaign::expandTreatments(*spec);
    return campaign::runTrial(*spec, treatments->at(index), 0);
  }
};

TEST_P(Fig5Stability, SameClusterSingleAlwaysCostsSixPackets) {
  const campaign::TrialRecord record = runPlacement(2);
  EXPECT_EQ(record.detectionPackets, 6u);
  EXPECT_EQ(record.verdict, core::toString(core::Verdict::kSingleBlackHole));
}

TEST_P(Fig5Stability, CrossClusterFleeAlwaysCostsNinePackets) {
  EXPECT_EQ(runPlacement(5).detectionPackets, 9u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fig5Stability,
                         ::testing::Values(11, 12, 13, 14, 15));

}  // namespace
}  // namespace blackdp
