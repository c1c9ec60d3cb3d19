// Extension experiment (paper §VI future work): BlackDP on an urban
// Manhattan grid. One RSU per intersection, vehicles driving turn-by-turn
// street legs, attacker placed at varying intersections. Reports detection
// accuracy and false positives per placement, single and cooperative.
//
// Expected shape: the highway result carries over — near-100% detection and
// zero false positives — because the protocol depends only on zone-local
// trusted probing, not on the road geometry. Mobility is harsher (turns
// break paths more often), so occasional prevented-but-undetected trials
// are acceptable.
#include <iostream>

#include "bench_args.hpp"
#include "metrics/confusion.hpp"
#include "metrics/table.hpp"
#include "obs/bench_json.hpp"
#include "scenario/telemetry.hpp"
#include "scenario/urban_scenario.hpp"
#include "sim/thread_pool.hpp"

namespace {

using namespace blackdp;

struct UrbanTrialOutcome {
  bool confirmed{false};
  bool falsePositive{false};
  obs::Snapshot world;  ///< per-trial collectWorldMetrics snapshot
};

UrbanTrialOutcome runTrial(scenario::AttackType attack, std::uint32_t ix,
                           std::uint32_t iy, std::uint32_t trial,
                           std::uint64_t seedBase) {
  scenario::UrbanConfig config;
  config.seed = seedBase + 131 * (iy * 16 + ix) + trial +
                (attack == scenario::AttackType::kCooperative ? 7777 : 0);
  config.attack = attack;
  config.attackerIx = ix;
  config.attackerIy = iy;
  scenario::UrbanScenario world(config);
  (void)world.runVerification();
  const scenario::DetectionSummary summary = world.detectionSummary();

  UrbanTrialOutcome outcome;
  outcome.confirmed = summary.confirmedOnAttacker;
  outcome.falsePositive = summary.falsePositive;
  obs::MetricsRegistry local;
  scenario::collectWorldMetrics(local, world);
  outcome.world = local.snapshot();
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  using metrics::Table;
  const obs::BenchTimer timer;
  const bench::TrialArgs args = bench::parseTrialArgs(argc, argv, 25);
  sim::ThreadPool pool{sim::resolveJobCount(args.jobs)};
  const std::uint32_t trials = args.trials;

  std::cout << "Urban extension — BlackDP on a 4x4-block Manhattan grid ("
            << trials << " trials per placement, " << pool.workers()
            << " jobs)\n\n";

  const std::vector<std::pair<std::uint32_t, std::uint32_t>> placements{
      {1, 1}, {2, 2}, {1, 3}, {3, 1}, {2, 0},
  };

  // Flatten (attack × placement × trial) and fold in submission order so the
  // merged metrics are independent of the worker count.
  struct Cell {
    scenario::AttackType attack;
    std::uint32_t ix;
    std::uint32_t iy;
  };
  std::vector<Cell> grid;
  for (const scenario::AttackType attack :
       {scenario::AttackType::kSingle, scenario::AttackType::kCooperative}) {
    for (const auto& [ix, iy] : placements) grid.push_back({attack, ix, iy});
  }
  const std::vector<UrbanTrialOutcome> outcomes =
      pool.map<UrbanTrialOutcome>(grid.size() * trials, [&](std::size_t i) {
        const Cell& cell = grid[i / trials];
        return runTrial(cell.attack, cell.ix, cell.iy,
                        static_cast<std::uint32_t>(i % trials), 20260706);
      });

  obs::MetricsRegistry registry;
  Table table({"Attack", "Attacker intersection", "Detection accuracy",
               "False positives"});
  metrics::ConfusionMatrix total;
  for (std::size_t g = 0; g < grid.size(); ++g) {
    const Cell& placement = grid[g];
    metrics::ConfusionMatrix cell;
    for (std::uint32_t t = 0; t < trials; ++t) {
      const UrbanTrialOutcome& outcome = outcomes[g * trials + t];
      if (outcome.confirmed) {
        cell.addTruePositive();
      } else {
        cell.addFalseNegative();
      }
      if (outcome.falsePositive) {
        cell.addFalsePositive();
      } else {
        cell.addTrueNegative();
      }
      registry.merge(outcome.world);
    }
    // std::string lhs (not const char*) sidesteps a GCC 12 -Wrestrict false
    // positive (PR 105329) in operator+(const char*, std::string&&).
    table.addRow({std::string(scenario::toString(placement.attack)),
                  std::string{"("} + std::to_string(placement.ix) + "," +
                      std::to_string(placement.iy) + ")",
                  Table::percent(cell.recall()), std::to_string(cell.fp())});
    obs::addConfusion(registry,
                      "urban." + std::string{scenario::toString(placement.attack)} +
                          "." + std::to_string(placement.ix) + "_" +
                          std::to_string(placement.iy),
                      cell);
    total += cell;
  }
  table.print(std::cout);

  obs::addConfusion(registry, "urban.total", total);
  obs::writeBenchJson("urban_detection", registry.snapshot(),
                      timer.info().recordJobs(pool.workers()));

  const double overall = total.recall();
  std::cout << "\noverall detection accuracy: " << Table::percent(overall)
            << ", false positives: " << total.fp() << '\n';

  const bool ok = overall >= 0.9 && total.fp() == 0;
  std::cout << (ok ? "shape check: PASS (highway result carries over to the "
                     "urban grid)\n"
                   : "shape check: FAIL\n");
  return ok ? 0 : 1;
}
