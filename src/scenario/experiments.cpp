#include "scenario/experiments.hpp"

#include "baselines/rrep_detectors.hpp"

namespace blackdp::scenario {

namespace {

/// Mixes treatment coordinates into per-trial seeds so every trial draws an
/// independent world, deterministically.
std::uint64_t trialSeed(std::uint64_t seedBase, std::uint32_t cluster,
                        AttackType attack, std::uint32_t trial) {
  std::uint64_t h = seedBase;
  h = h * 1000003ull + cluster;
  h = h * 1000003ull + static_cast<std::uint64_t>(attack);
  h = h * 1000003ull + trial;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

/// One attack treatment's full baseline run. Kept whole (not per-trial):
/// the PEAK detector accumulates state across the treatment's discoveries,
/// so splitting trials would change its classifications.
std::vector<BaselineCell> runBaselineTreatment(
    AttackType attack, std::uint32_t trials, std::uint64_t seedBase,
    common::ClusterId attackerCluster) {
    BaselineCell blackdp{"blackdp", attack, {}, 0};
    BaselineCell jaiswal{"first-rrep-comparison", attack, {}, 0};
    BaselineCell peakCell{"peak", attack, {}, 0};
    BaselineCell tanSmall{"static-threshold-small", attack, {}, 0};
    BaselineCell tan{"static-threshold-medium", attack, {}, 0};

    // PEAK is stateful across discoveries by design.
    baselines::FirstRrepComparisonDetector jaiswalDetector;
    baselines::PeakThresholdDetector peakDetector;
    baselines::StaticThresholdDetector tanSmallDetector(
        baselines::Environment::kSmall);
    baselines::StaticThresholdDetector tanDetector(
        baselines::Environment::kMedium);

    for (std::uint32_t trial = 0; trial < trials; ++trial) {
      ScenarioConfig config;
      config.seed =
          trialSeed(seedBase, attackerCluster.value(), attack, trial);
      config.attack = attack;
      config.attackerCluster = attackerCluster;

      // --- BlackDP: the full protocol on this world ---
      {
        HighwayScenario scenario(config);
        (void)scenario.runVerification();
        const DetectionSummary summary = scenario.detectionSummary();
        if (summary.confirmedOnAttacker) {
          blackdp.matrix.addTruePositive();
        } else {
          blackdp.matrix.addFalseNegative();
        }
        if (summary.falsePositive) blackdp.matrix.addFalsePositive();
      }

      // --- Source-side baselines: same world, plain route discovery ---
      {
        HighwayScenario scenario(config);
        scenario.runFor(sim::Duration::milliseconds(500));

        std::vector<aodv::RouteReply> rreps;
        scenario.source().agent->setRrepObserver(
            [&rreps](const aodv::RouteReply& rrep, const net::Frame&) {
              rreps.push_back(rrep);
            });
        bool done = false;
        scenario.source().agent->findRoute(
            scenario.destination().address(), [&done](bool) { done = true; });
        scenario.runUntil([&] { return done; }, sim::Duration::seconds(10));

        const auto grade = [&](BaselineCell& cell,
                               baselines::RrepDetector& detector) {
          const std::vector<common::Address> flagged =
              detector.classify(rreps);
          bool hitAttacker = false;
          for (const common::Address& address : flagged) {
            if (scenario.isAttackerPseudonym(address)) {
              hitAttacker = true;
            } else {
              cell.matrix.addFalsePositive();
            }
          }
          if (hitAttacker) {
            cell.matrix.addTruePositive();
          } else {
            cell.matrix.addFalseNegative();
          }
          if (rreps.size() >= 2) ++cell.trialsWithComparison;
        };
        grade(jaiswal, jaiswalDetector);
        grade(peakCell, peakDetector);
        grade(tanSmall, tanSmallDetector);
        grade(tan, tanDetector);
      }
    }

    std::vector<BaselineCell> cells;
    cells.push_back(std::move(blackdp));
    cells.push_back(std::move(jaiswal));
    cells.push_back(std::move(peakCell));
    cells.push_back(std::move(tanSmall));
    cells.push_back(std::move(tan));
    return cells;
}

}  // namespace

std::vector<BaselineCell> runBaselineComparison(
    std::uint32_t trials, std::uint64_t seedBase,
    common::ClusterId attackerCluster, sim::ThreadPool* pool) {
  const std::vector<AttackType> attacks{AttackType::kSingle,
                                        AttackType::kCooperative};
  sim::ThreadPool inlinePool{1};
  sim::ThreadPool& workers = pool != nullptr ? *pool : inlinePool;
  const std::vector<std::vector<BaselineCell>> perAttack =
      workers.map<std::vector<BaselineCell>>(
          attacks.size(), [&](std::size_t i) {
            return runBaselineTreatment(attacks[i], trials, seedBase,
                                        attackerCluster);
          });

  std::vector<BaselineCell> cells;
  for (const std::vector<BaselineCell>& treatment : perAttack) {
    cells.insert(cells.end(), treatment.begin(), treatment.end());
  }
  return cells;
}

}  // namespace blackdp::scenario
