// Ablation D — closing the gray hole gap: watchdog forwarding observation
// (the §V-C trust-scheme mechanism) alongside BlackDP.
//
// The gray hole keeps an honest control plane, so BlackDP's probe pair has
// nothing to confirm (Ablation C measures the PDR damage). Watchdogs on the
// surrounding vehicles overhear its forwarding behaviour instead and flag
// it locally. The bench also reports what the paper warns about: local
// opinions are noisy (range asymmetry causes unfair charges), which is why
// they rank below trusted-RSU confirmation in BlackDP's design.
#include <iostream>
#include <memory>

#include "baselines/watchdog.hpp"
#include "bench_args.hpp"
#include "metrics/stats.hpp"
#include "metrics/table.hpp"
#include "obs/bench_json.hpp"
#include "scenario/highway_scenario.hpp"
#include "sim/thread_pool.hpp"

namespace {

/// One trial's foldable tallies.
struct WatchdogTrial {
  bool exposed{false};
  bool flaggedWhileExposed{false};
  std::uint32_t blackdpConfirmedGray{0};
  std::uint64_t honestFlags{0};
  std::uint64_t dropsCharged{0};
  std::uint32_t observers{0};
};

}  // namespace

int main(int argc, char** argv) {
  using namespace blackdp;
  using metrics::Table;

  const obs::BenchTimer timer;
  const bench::TrialArgs args = bench::parseTrialArgs(argc, argv, 10);
  sim::ThreadPool pool{sim::resolveJobCount(args.jobs)};
  const std::uint32_t trials = args.trials;
  std::cout << "Ablation D — watchdog vs. the gray hole (" << trials
            << " trials, " << pool.workers() << " jobs)\n\n";

  const std::vector<WatchdogTrial> outcomes = pool.map<WatchdogTrial>(
      trials, [](std::size_t t) {
    WatchdogTrial outcome;
    scenario::ScenarioConfig config;
    config.seed = 7000 + t;
    config.attack = scenario::AttackType::kNone;
    config.evasion.firstEvasiveCluster = 99;
    scenario::HighwayScenario world(config);

    // Gray holes all along the route corridor: some will end up carrying
    // (and eating) the source's traffic.
    attack::GrayHoleConfig gray;
    gray.dropProbability = 0.8;
    gray.advertiseBoost = 5;
    std::vector<scenario::VehicleEntity*> holes;
    for (std::uint32_t c = 1; c <= 6; ++c) {
      holes.push_back(&world.spawnGrayHole(common::ClusterId{c}, gray));
    }

    // Watchdogs on every honest vehicle.
    std::vector<std::unique_ptr<baselines::Watchdog>> watchdogs;
    for (auto& vehicle : world.vehicles()) {
      if (vehicle->isAttacker()) continue;
      watchdogs.push_back(std::make_unique<baselines::Watchdog>(
          world.simulator(), *vehicle->node));
    }

    (void)world.runVerification();
    (void)world.sendDataBurst(150);

    // Did any gray hole actually carry (and eat) traffic this trial?
    for (const scenario::VehicleEntity* hole : holes) {
      if (hole->grayHole->grayStats().dataSeen >= 20) outcome.exposed = true;
    }

    // BlackDP's view: report every gray hole, probe, get nothing.
    for (std::size_t h = 0; h < holes.size(); ++h) {
      world.injectDetectionRequest(
          world.source(), holes[h]->address(),
          common::ClusterId{static_cast<std::uint32_t>(h + 1)});
    }
    world.runFor(sim::Duration::seconds(5));
    for (const core::SessionRecord& s : world.detectionSummary().sessions) {
      if (world.isAttackerPseudonym(s.suspect) &&
          (s.verdict == core::Verdict::kSingleBlackHole ||
           s.verdict == core::Verdict::kCooperativeBlackHole)) {
        ++outcome.blackdpConfirmedGray;
      }
    }

    // Watchdog view: any gray hole flagged by any sender-side watchdog?
    bool flagged = false;
    for (const auto& watchdog : watchdogs) {
      outcome.dropsCharged += watchdog->stats().dropsCharged;
      for (const common::Address& suspect : watchdog->suspects()) {
        if (world.isAttackerPseudonym(suspect)) {
          flagged = true;
          ++outcome.observers;
        } else {
          ++outcome.honestFlags;
        }
      }
    }
    outcome.flaggedWhileExposed = flagged && outcome.exposed;
    return outcome;
  });

  std::uint32_t grayFlagged = 0;
  std::uint32_t trialsWithExposure = 0;
  std::uint32_t blackdpConfirmedGray = 0;
  std::uint64_t honestFlags = 0;
  std::uint64_t dropsCharged = 0;
  metrics::RunningStat observersPerTrial;
  for (const WatchdogTrial& outcome : outcomes) {
    if (outcome.exposed) ++trialsWithExposure;
    if (outcome.flaggedWhileExposed) ++grayFlagged;
    blackdpConfirmedGray += outcome.blackdpConfirmedGray;
    honestFlags += outcome.honestFlags;
    dropsCharged += outcome.dropsCharged;
    observersPerTrial.add(outcome.observers);
  }

  Table table({"Metric", "Value"});
  table.addRow({"trials where a gray hole carried traffic",
                std::to_string(trialsWithExposure) + "/" +
                    std::to_string(trials)});
  table.addRow({"...of which flagged by >=1 watchdog",
                std::to_string(grayFlagged) + "/" +
                    std::to_string(trialsWithExposure)});
  table.addRow({"mean independent observers flagging it",
                Table::num(observersPerTrial.mean(), 1)});
  table.addRow({"BlackDP confirmations of the gray hole",
                std::to_string(blackdpConfirmedGray) + "/" +
                    std::to_string(trials) + " (expected 0: no AODV "
                                             "violation)"});
  table.addRow({"honest nodes flagged by some watchdog (noise)",
                std::to_string(honestFlags)});
  table.addRow({"total drops charged", std::to_string(dropsCharged)});
  table.print(std::cout);

  obs::MetricsRegistry registry;
  registry.counter("watchdog.trials").add(trials);
  registry.counter("watchdog.trials_with_exposure").add(trialsWithExposure);
  registry.counter("watchdog.gray_flagged").add(grayFlagged);
  registry.counter("watchdog.blackdp_confirmed_gray")
      .add(blackdpConfirmedGray);
  registry.counter("watchdog.honest_flags").add(honestFlags);
  registry.counter("watchdog.drops_charged").add(dropsCharged);
  obs::addRunningStat(registry, "watchdog.observers_per_trial",
                      observersPerTrial);
  obs::writeBenchJson("ablation_watchdog", registry.snapshot(),
                      timer.info().recordJobs(pool.workers()));

  std::cout << "\nwatchdogs catch what BlackDP structurally cannot; their "
               "noise is why the paper\nroutes verdicts through trusted "
               "RSUs instead of peer opinion.\n";

  const bool ok = trialsWithExposure > 0 &&
                  grayFlagged >= trialsWithExposure * 7 / 10 &&
                  blackdpConfirmedGray == 0;
  std::cout << (ok ? "\nshape check: PASS\n" : "\nshape check: FAIL\n");
  return ok ? 0 : 1;
}
