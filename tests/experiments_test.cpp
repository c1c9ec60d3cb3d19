// Experiment runners: small-scale checks of the Fig. 4 / Fig. 5 / ablation
// machinery that the benches run at paper scale.
#include <gtest/gtest.h>

#include "baselines/rrep_detectors.hpp"
#include "campaign/builtin.hpp"
#include "campaign/runner.hpp"
#include "scenario/experiments.hpp"

namespace blackdp::scenario {
namespace {

/// The first `reps` reps of one (attack, cluster) treatment of the built-in
/// fig4 campaign, graded as Fig. 4 grades them: an attacker the detector did
/// not confirm is a miss, whether or not its forged reply landed.
metrics::ConfusionMatrix runFig4Reps(AttackType attack, std::uint32_t cluster,
                                     std::uint32_t reps) {
  const auto spec = campaign::parseCampaignSpec(
      campaign::findBuiltinSpec("fig4")->json);
  const auto treatments = campaign::expandTreatments(*spec);
  metrics::ConfusionMatrix matrix;
  for (const campaign::Treatment& treatment : *treatments) {
    const ScenarioConfig& config = treatment.config.scenario;
    if (config.attack != attack ||
        config.attackerCluster != common::ClusterId{cluster}) {
      continue;
    }
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      const campaign::TrialRecord record =
          campaign::runTrial(*spec, treatment, rep);
      if (record.confirmedOnAttacker) {
        matrix.addTruePositive();
      } else {
        matrix.addFalseNegative();
      }
      if (record.falsePositive) matrix.addFalsePositive();
    }
  }
  EXPECT_EQ(matrix.tp() + matrix.fn(), reps) << "no fig4 treatment matched";
  return matrix;
}

TEST(Fig4Test, NonEvasiveClustersDetectPerfectly) {
  const metrics::ConfusionMatrix cell = runFig4Reps(AttackType::kSingle, 2, 8);
  EXPECT_EQ(cell.tp(), 8u);
  EXPECT_EQ(cell.fp(), 0u);
  EXPECT_DOUBLE_EQ(cell.recall(), 1.0);
  EXPECT_DOUBLE_EQ(cell.falseNegativeRate(), 0.0);
}

TEST(Fig4Test, CooperativeAlsoDetectsPerfectlyEarly) {
  const metrics::ConfusionMatrix cell =
      runFig4Reps(AttackType::kCooperative, 5, 6);
  EXPECT_EQ(cell.tp(), 6u);
  EXPECT_EQ(cell.fp(), 0u);
}

TEST(Fig4Test, RatesSumConsistently) {
  const metrics::ConfusionMatrix cell = runFig4Reps(AttackType::kSingle, 9, 10);
  EXPECT_DOUBLE_EQ(cell.recall() + cell.falseNegativeRate(), 1.0);
  EXPECT_EQ(cell.tp() + cell.fn(), 10u);
}

TEST(Fig4Test, LastClusterDegradesButNeverFalsePositives) {
  const metrics::ConfusionMatrix cell =
      runFig4Reps(AttackType::kSingle, 10, 20);
  EXPECT_LT(cell.tp(), 20u);  // evasion bites in cluster 10
  EXPECT_EQ(cell.fp(), 0u);
}

TEST(Fig5Test, PacketCountsMatchPaperScenarios) {
  struct Expectation {
    std::size_t index;
    std::uint32_t packets;
  };
  const std::vector<Fig5Case> cases = fig5Cases();
  // Paper: no attacker 4 (same) / 6 (cross); single 6 / 8(flee) / 8 / 9;
  // cooperative +2.
  const std::vector<Expectation> expectations{
      {0, 4},  {1, 6},  {2, 6},  {3, 8},  {4, 8},
      {5, 9},  {6, 8},  {8, 10}, {9, 11},
  };
  for (const Expectation& e : expectations) {
    const Fig5Result result = runFig5Case(cases[e.index], 11);
    EXPECT_EQ(result.detectionPackets, e.packets) << cases[e.index].label;
  }
}

TEST(Fig5Test, VerdictsMatchAttackTypes) {
  const std::vector<Fig5Case> cases = fig5Cases();
  EXPECT_EQ(runFig5Case(cases[0], 11).verdict, core::Verdict::kNotConfirmed);
  EXPECT_EQ(runFig5Case(cases[2], 11).verdict,
            core::Verdict::kSingleBlackHole);
  EXPECT_EQ(runFig5Case(cases[6], 11).verdict,
            core::Verdict::kCooperativeBlackHole);
}

TEST(Fig5Test, CaseListCoversPaperTreatments) {
  const std::vector<Fig5Case> cases = fig5Cases();
  ASSERT_EQ(cases.size(), 10u);
  int none = 0;
  int single = 0;
  int coop = 0;
  for (const Fig5Case& c : cases) {
    switch (c.attack) {
      case AttackType::kNone: ++none; break;
      case AttackType::kSingle: ++single; break;
      case AttackType::kCooperative: ++coop; break;
      case AttackType::kSelective: break;  // not part of the paper's Fig. 5
    }
  }
  EXPECT_EQ(none, 2);
  EXPECT_EQ(single, 4);
  EXPECT_EQ(coop, 4);
}

TEST(BaselineComparisonTest, BlackDpDominatesWithZeroFp) {
  const std::vector<BaselineCell> cells = runBaselineComparison(5, 55);
  ASSERT_FALSE(cells.empty());
  double blackdpWorst = 1.0;
  for (const BaselineCell& cell : cells) {
    if (cell.detector == "blackdp") {
      EXPECT_EQ(cell.matrix.fp(), 0u);
      blackdpWorst = std::min(blackdpWorst, cell.matrix.recall());
    }
  }
  EXPECT_DOUBLE_EQ(blackdpWorst, 1.0);  // cluster 2: no evasion possible
}

TEST(BaselineComparisonTest, BaselinesNeverExposeTheAccomplice) {
  // §V-A: source-side SN methods at best flag the replying primary; the
  // vouching teammate never sends an outlier RREP to the source, so only
  // BlackDP's RSU-side next-hop probing can expose it. Measured directly:
  // across cooperative trials, run every baseline over the captured RREPs
  // and check the accomplice is never among the flagged addresses.
  for (std::uint32_t trial = 0; trial < 5; ++trial) {
    ScenarioConfig config;
    config.seed = 5600 + trial;
    config.attack = AttackType::kCooperative;
    config.attackerCluster = common::ClusterId{2};
    HighwayScenario world(config);
    world.runFor(sim::Duration::milliseconds(500));

    std::vector<aodv::RouteReply> rreps;
    world.source().agent->setRrepObserver(
        [&rreps](const aodv::RouteReply& rrep, const net::Frame&) {
          rreps.push_back(rrep);
        });
    bool done = false;
    world.source().agent->findRoute(world.destination().address(),
                                    [&done](bool) { done = true; });
    world.runUntil([&] { return done; }, sim::Duration::seconds(10));

    baselines::FirstRrepComparisonDetector jaiswal;
    baselines::PeakThresholdDetector peak;
    baselines::StaticThresholdDetector tanSmall(
        baselines::Environment::kSmall);
    const common::Address accomplice = world.accomplice()->address();
    for (baselines::RrepDetector* detector :
         std::initializer_list<baselines::RrepDetector*>{&jaiswal, &peak,
                                                         &tanSmall}) {
      for (const common::Address& flagged : detector->classify(rreps)) {
        EXPECT_NE(flagged, accomplice) << detector->name();
      }
    }
  }
}

TEST(BaselineComparisonTest, MediumThresholdMissesAdaptiveForgery) {
  const std::vector<BaselineCell> cells = runBaselineComparison(5, 57);
  for (const BaselineCell& cell : cells) {
    if (cell.detector == "static-threshold-medium") {
      EXPECT_EQ(cell.matrix.tp(), 0u);  // forged +200 slips under 500
    }
    if (cell.detector == "static-threshold-small") {
      EXPECT_GE(cell.matrix.recall(), 0.8);  // 100-threshold catches it
    }
  }
}

}  // namespace
}  // namespace blackdp::scenario
