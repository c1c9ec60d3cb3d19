// Ablation G — adversarial robustness.
//
// The paper's attacker answers every probe; its detector trusts every
// accuser. This ablation pits upgraded attackers against the hardened
// detector and checks that the defenses close the gaps without ever
// hurting an honest vehicle:
//
//   1. sophistication grid — {naive, selective} attacker × {naive,
//      hardened} detector. The selective black hole only forges replies
//      for destinations it has overheard, so the naive fake-destination
//      probe misses it; the hardened campaign's plausible-address and
//      inflated-sequence rounds must win the cell back.
//   2. accusation flooding — certified-but-compromised vehicles file
//      forged d_reqs against honest members. Rate limiting, replay
//      rejection, and the exoneration/demerit path must keep the
//      false-quarantine count at exactly zero and quarantine the liars,
//      with and without a real black hole hiding behind the noise.
#include <iostream>
#include <vector>

#include "bench_args.hpp"
#include "metrics/stats.hpp"
#include "metrics/table.hpp"
#include "obs/bench_json.hpp"
#include "scenario/highway_scenario.hpp"
#include "sim/thread_pool.hpp"

namespace {

using namespace blackdp;
using scenario::AttackType;
using scenario::HighwayScenario;
using scenario::ScenarioConfig;

ScenarioConfig baseConfig(std::uint64_t seed) {
  ScenarioConfig config;
  config.seed = seed;
  config.attackerCluster = common::ClusterId{2};
  // Isolate the probe-evasion axis: no renewal/flee behaviours.
  config.evasion.firstEvasiveCluster = 99;
  return config;
}

struct TrialResult {
  bool detected{false};
  bool falsePositive{false};
  std::uint64_t honestRevocations{0};
  std::uint64_t rateLimited{0};
  std::uint64_t replayed{0};
  std::uint64_t exonerations{0};
  std::uint64_t reportersQuarantined{0};
};

TrialResult adversarialTrial(ScenarioConfig config) {
  HighwayScenario world(std::move(config));
  // Two establishment rounds in every cell: the selective attacker sits out
  // the first discovery (its cache is cold) and strikes the rediscovery;
  // naive cells just verify twice.
  (void)world.runVerification(/*rounds=*/2);
  // Flooder campaigns and hardened multi-round probes outlive the
  // verification exchange; settle before grading.
  world.runFor(sim::Duration::seconds(15));
  TrialResult r;
  const auto summary = world.detectionSummary();
  r.detected = summary.confirmedOnAttacker;
  r.falsePositive = summary.falsePositive;
  r.honestRevocations = world.honestRevocations();
  for (const auto& rsu : world.rsus()) {
    const core::DetectorStats& stats = rsu->detector->stats();
    r.rateLimited += stats.dreqRateLimited;
    r.replayed += stats.dreqReplayed;
    r.exonerations += stats.exonerations;
    r.reportersQuarantined += stats.reportersQuarantined;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using metrics::Table;
  const obs::BenchTimer timer;
  const bench::TrialArgs args = bench::parseTrialArgs(argc, argv, 10);
  sim::ThreadPool pool{sim::resolveJobCount(args.jobs)};
  const std::uint32_t trials = args.trials;

  std::cout << "Ablation G — adversarial robustness (" << trials
            << " trials per cell, " << pool.workers() << " jobs)\n\n";

  obs::MetricsRegistry registry;

  // ---- 1. attacker sophistication × detector hardening --------------------
  struct Cell {
    const char* attackerLabel;
    const char* detectorLabel;
    AttackType attack;
    bool hardened;
    const char* key;
  };
  const std::vector<Cell> cells = {
      {"naive", "naive", AttackType::kSingle, false, "naive.naive"},
      {"selective", "naive", AttackType::kSelective, false, "naive.selective"},
      {"naive", "hardened", AttackType::kSingle, true, "hardened.naive"},
      {"selective", "hardened", AttackType::kSelective, true,
       "hardened.selective"},
  };

  const std::vector<TrialResult> gridOutcomes = pool.map<TrialResult>(
      cells.size() * trials, [&](std::size_t i) {
        const Cell& cell = cells[i / trials];
        ScenarioConfig config =
            baseConfig(8000 + static_cast<std::uint64_t>(i % trials));
        config.attack = cell.attack;
        config.detector.hardening.enabled = cell.hardened;
        return adversarialTrial(std::move(config));
      });

  Table grid({"Detector", "Attacker", "Detection", "FP"});
  std::vector<metrics::RunningStat> cellDetect(cells.size());
  bool anyFalsePositive = false;
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    metrics::RunningStat falsePos;
    for (std::uint32_t t = 0; t < trials; ++t) {
      const TrialResult& r = gridOutcomes[cell * trials + t];
      cellDetect[cell].add(r.detected ? 1.0 : 0.0);
      falsePos.add(r.falsePositive ? 1.0 : 0.0);
      anyFalsePositive = anyFalsePositive || r.falsePositive;
    }
    const std::string prefix =
        std::string{"adversarial.grid."} + cells[cell].key;
    obs::addRunningStat(registry, prefix + ".detected", cellDetect[cell]);
    obs::addRunningStat(registry, prefix + ".fp", falsePos);
    grid.addRow({cells[cell].detectorLabel, cells[cell].attackerLabel,
                 Table::percent(cellDetect[cell].mean()),
                 Table::percent(falsePos.mean())});
  }
  grid.print(std::cout);
  const double naiveVsNaive = cellDetect[0].mean();
  const double naiveVsSelective = cellDetect[1].mean();
  const double hardenedVsSelective = cellDetect[3].mean();

  // ---- 2. accusation flooding ---------------------------------------------
  struct FloodRow {
    const char* label;
    AttackType attack;
    const char* key;
  };
  const std::vector<FloodRow> floodRows = {
      {"flood only", AttackType::kNone, "none"},
      {"flood + black hole", AttackType::kSingle, "single"},
  };

  const std::vector<TrialResult> floodOutcomes = pool.map<TrialResult>(
      floodRows.size() * trials, [&](std::size_t i) {
        const FloodRow& row = floodRows[i / trials];
        ScenarioConfig config =
            baseConfig(8500 + static_cast<std::uint64_t>(i % trials));
        config.attack = row.attack;
        config.detector.hardening.enabled = true;
        config.accusationFlooders = 2;
        config.flooder.start = sim::Duration::seconds(1);
        config.flooder.interval = sim::Duration::milliseconds(300);
        config.flooder.maxAccusations = 10;
        return adversarialTrial(std::move(config));
      });

  std::cout << "\n2 accusation flooders, hardened detector:\n";
  Table flood({"Treatment", "Detection", "Honest quarantined", "Rate-limited",
               "Replayed", "Liars quarantined"});
  std::uint64_t honestQuarantined = 0;
  metrics::RunningStat floodAttackDetect, liarsQuarantined;
  for (std::size_t row = 0; row < floodRows.size(); ++row) {
    metrics::RunningStat detected, honest, limited, replayed, quarantined;
    for (std::uint32_t t = 0; t < trials; ++t) {
      const TrialResult& r = floodOutcomes[row * trials + t];
      detected.add(r.detected ? 1.0 : 0.0);
      honest.add(static_cast<double>(r.honestRevocations));
      honestQuarantined += r.honestRevocations;
      limited.add(static_cast<double>(r.rateLimited));
      replayed.add(static_cast<double>(r.replayed));
      quarantined.add(static_cast<double>(r.reportersQuarantined));
    }
    const std::string prefix =
        std::string{"adversarial.flood."} + floodRows[row].key;
    obs::addRunningStat(registry, prefix + ".detected", detected);
    obs::addRunningStat(registry, prefix + ".honest_revocations", honest);
    obs::addRunningStat(registry, prefix + ".rate_limited", limited);
    obs::addRunningStat(registry, prefix + ".replayed", replayed);
    obs::addRunningStat(registry, prefix + ".reporters_quarantined",
                        quarantined);
    flood.addRow({floodRows[row].label,
                  floodRows[row].attack == AttackType::kNone
                      ? std::string{"-"}
                      : Table::percent(detected.mean()),
                  Table::num(honest.mean(), 2), Table::num(limited.mean(), 1),
                  Table::num(replayed.mean(), 1),
                  Table::num(quarantined.mean(), 1)});
    if (floodRows[row].attack == AttackType::kSingle) {
      floodAttackDetect = detected;
    }
    if (liarsQuarantined.count() == 0) liarsQuarantined = quarantined;
  }
  flood.print(std::cout);

  obs::writeBenchJson("ablation_adversarial", registry.snapshot(),
                      timer.info().recordJobs(pool.workers()));

  // The defense contract: the selective attacker beats the naive probe but
  // not the hardened campaign; flooding never quarantines an honest vehicle
  // and never masks a real attacker entirely.
  const bool ok = naiveVsSelective < naiveVsNaive &&
                  hardenedVsSelective >= naiveVsNaive &&
                  !anyFalsePositive && honestQuarantined == 0 &&
                  liarsQuarantined.mean() > 0.0 &&
                  floodAttackDetect.mean() >= naiveVsNaive;
  std::cout << (ok ? "\nshape check: PASS\n" : "\nshape check: FAIL\n");
  return ok ? 0 : 1;
}
