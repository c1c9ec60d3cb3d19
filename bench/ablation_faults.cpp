// Ablation F — detection under infrastructure faults.
//
// The paper's evaluation assumes perfect infrastructure; this ablation asks
// what the protocol keeps delivering when it degrades, and what the
// robustness hardening (d_req retransmits with capped backoff, CH failover
// via JREP-advertised neighbors, degraded probe adoption, local quarantine)
// buys back:
//
//   1. burst loss sweep — Gilbert–Elliott channels of increasing stationary
//      loss; detection rate / false positives / PDR / detection latency per
//      intensity, hardening enabled throughout.
//   2. RSU crash + failover — the source's own cluster head dies right
//      before the report. Without failover the d_req has no recipient and
//      detection collapses; with failover the vehicle re-homes to the
//      advertised neighbor CH and keeps retrying until it is in range.
//   3. zero-CH quarantine — every RSU dark from t = 0; the verifier degrades
//      to a vehicle-local blacklist so the attacker is still isolated at the
//      reporting vehicle.
#include <iostream>
#include <vector>

#include "bench_args.hpp"
#include "metrics/stats.hpp"
#include "metrics/table.hpp"
#include "obs/bench_json.hpp"
#include "scenario/highway_scenario.hpp"
#include "scenario/telemetry.hpp"
#include "sim/thread_pool.hpp"

namespace {

using namespace blackdp;
using scenario::AttackType;
using scenario::HighwayScenario;
using scenario::ScenarioConfig;

constexpr std::uint32_t kPacketsPerTrial = 100;

ScenarioConfig baseConfig(std::uint64_t seed) {
  ScenarioConfig config;
  config.seed = seed;
  config.attack = AttackType::kSingle;
  config.attackerCluster = common::ClusterId{2};
  config.evasion.firstEvasiveCluster = 99;
  return config;
}

void enableHardening(ScenarioConfig& config) {
  config.chFailover = true;
  config.verifier.dreqRetries = 8;
  config.verifier.responseTimeout = sim::Duration::seconds(40);
  config.detector.stageRetries = 2;
}

/// Milliseconds to the first confirmed session against the real attacker;
/// negative when no confirmation happened.
double confirmationLatencyMs(HighwayScenario& world) {
  double best = -1.0;
  for (const auto& session : world.detectionSummary().sessions) {
    const bool confirmed = session.verdict == core::Verdict::kSingleBlackHole ||
                           session.verdict ==
                               core::Verdict::kCooperativeBlackHole;
    if (!confirmed || !world.isAttackerPseudonym(session.suspect)) continue;
    const double ms =
        static_cast<double>(session.latency().us()) / 1'000.0;
    if (best < 0.0 || ms < best) best = ms;
  }
  return best;
}

struct TrialResult {
  bool detected{false};
  bool falsePositive{false};
  double pdr{0.0};
  double latencyMs{-1.0};
};

TrialResult faultTrial(ScenarioConfig config,
                       obs::Snapshot* worldMetrics = nullptr) {
  HighwayScenario world(std::move(config));
  (void)world.runVerification();
  TrialResult r;
  const auto summary = world.detectionSummary();
  r.detected = summary.confirmedOnAttacker;
  r.falsePositive = summary.falsePositive;
  r.latencyMs = confirmationLatencyMs(world);
  r.pdr = world.sendDataBurst(kPacketsPerTrial).pdr();
  if (worldMetrics) {
    obs::MetricsRegistry local;
    scenario::collectWorldMetrics(local, world);
    *worldMetrics = local.snapshot();
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

  std::cout << "Ablation F — detection under infrastructure faults (" << trials
            << " trials per cell, " << pool.workers() << " jobs)\n\n";

  // ---- 1. burst-loss intensity sweep --------------------------------------
  struct Intensity {
    const char* label;
    fault::GilbertElliott channel;
  };
  const std::vector<Intensity> intensities = {
      {"none", {0.0, 1.0, 0.0, 0.0}},
      {"light", {0.02, 0.20, 0.0, 0.9}},
      {"medium", {0.05, 0.15, 0.0, 0.9}},
      {"heavy", {0.10, 0.10, 0.0, 0.9}},
  };

  obs::MetricsRegistry registry;

  // Flatten (intensity × trial); each task carries its world metrics out as
  // a snapshot so the fold below stays in submission order.
  struct BurstOutcome {
    TrialResult result;
    obs::Snapshot world;
  };
  const std::vector<BurstOutcome> burstOutcomes = pool.map<BurstOutcome>(
      intensities.size() * trials, [&](std::size_t i) {
        const Intensity& intensity = intensities[i / trials];
        ScenarioConfig config =
            baseConfig(7000 + static_cast<std::uint64_t>(i % trials));
        enableHardening(config);
        if (intensity.channel.meanLoss() > 0.0) {
          fault::BurstLossEvent burst;
          burst.channel = intensity.channel;
          config.faults.burstLoss.push_back(burst);
        }
        BurstOutcome outcome;
        outcome.result = faultTrial(std::move(config), &outcome.world);
        return outcome;
      });

  Table sweep({"Burst loss", "Mean loss", "Detection", "FP", "PDR",
               "Latency (ms)"});
  metrics::RunningStat detectNone, detectHeavy;
  for (std::size_t cell = 0; cell < intensities.size(); ++cell) {
    const Intensity& intensity = intensities[cell];
    metrics::RunningStat detected, falsePos, pdr, latency;
    for (std::uint32_t t = 0; t < trials; ++t) {
      const BurstOutcome& outcome = burstOutcomes[cell * trials + t];
      registry.merge(outcome.world);
      const TrialResult& r = outcome.result;
      detected.add(r.detected ? 1.0 : 0.0);
      falsePos.add(r.falsePositive ? 1.0 : 0.0);
      pdr.add(r.pdr);
      if (r.latencyMs >= 0.0) latency.add(r.latencyMs);
    }
    const std::string prefix = std::string{"faults.burst."} + intensity.label;
    obs::addRunningStat(registry, prefix + ".detected", detected);
    obs::addRunningStat(registry, prefix + ".pdr", pdr);
    obs::addRunningStat(registry, prefix + ".latency_ms", latency);
    sweep.addRow({intensity.label,
                  Table::percent(intensity.channel.meanLoss()),
                  Table::percent(detected.mean()),
                  Table::percent(falsePos.mean()), Table::percent(pdr.mean()),
                  latency.count() > 0 ? Table::num(latency.mean(), 1)
                                      : std::string{"-"}});
    if (intensity.channel.meanLoss() <= 0.0) detectNone = detected;
    detectHeavy = detected;
  }
  sweep.print(std::cout);

  // ---- 2. RSU crash: failover vs. no failover -----------------------------
  // The source's own CH (cluster 1) dies at 600 ms — after the joins, before
  // the report. suspectCluster 2 stays alive, so once the d_req reaches any
  // CH the probing itself is unimpaired.
  const auto crashTrial = [](std::uint64_t seed, bool hardened) {
    ScenarioConfig config = baseConfig(seed);
    if (hardened) enableHardening(config);
    fault::RsuCrashEvent crash;
    crash.cluster = common::ClusterId{1};
    crash.at = sim::TimePoint::fromUs(600'000);
    config.faults.rsuCrashes.push_back(crash);
    return faultTrial(std::move(config));
  };

  struct CrashOutcome {
    TrialResult baseline;
    TrialResult hardened;
  };
  const std::vector<CrashOutcome> crashOutcomes =
      pool.map<CrashOutcome>(trials, [&](std::size_t t) {
        const std::uint64_t seed = 7100 + t;
        return CrashOutcome{crashTrial(seed, false), crashTrial(seed, true)};
      });

  metrics::RunningStat baselineDetect, failoverDetect, failoverLatency;
  for (const CrashOutcome& outcome : crashOutcomes) {
    baselineDetect.add(outcome.baseline.detected ? 1.0 : 0.0);
    failoverDetect.add(outcome.hardened.detected ? 1.0 : 0.0);
    if (outcome.hardened.latencyMs >= 0.0) {
      failoverLatency.add(outcome.hardened.latencyMs);
    }
  }
  obs::addRunningStat(registry, "faults.crash.no_failover.detected",
                      baselineDetect);
  obs::addRunningStat(registry, "faults.crash.failover.detected",
                      failoverDetect);
  obs::addRunningStat(registry, "faults.crash.failover.latency_ms",
                      failoverLatency);

  std::cout << "\nRSU 1 crashed at 600 ms (source's own CH):\n";
  Table crashTable({"Treatment", "Detection", "Latency (ms)"});
  crashTable.addRow({"no failover (seed protocol)",
                     Table::percent(baselineDetect.mean()), "-"});
  crashTable.addRow({"failover + d_req retries",
                     Table::percent(failoverDetect.mean()),
                     failoverLatency.count() > 0
                         ? Table::num(failoverLatency.mean(), 1)
                         : std::string{"-"}});
  crashTable.print(std::cout);

  // ---- 3. zero-CH local quarantine ----------------------------------------
  // int, not bool: vector<bool> packs bits, which would race across workers.
  const std::vector<int> isolatedTrials =
      pool.map<int>(trials, [](std::size_t t) {
        ScenarioConfig config = baseConfig(7200 + t);
        config.verifier.localQuarantine = true;
        for (std::uint32_t c = 1; c <= 10; ++c) {
          fault::RsuCrashEvent crash;
          crash.cluster = common::ClusterId{c};
          config.faults.rsuCrashes.push_back(crash);
        }
        HighwayScenario world(std::move(config));
        const auto report = world.runVerification();
        return report.outcome == core::Outcome::kLocallyQuarantined &&
               world.isAttackerPseudonym(report.suspect) &&
               world.source().membership->isBlacklisted(report.suspect);
      });
  metrics::RunningStat quarantined;
  for (const int isolated : isolatedTrials) {
    quarantined.add(isolated != 0 ? 1.0 : 0.0);
  }
  std::cout << "\nEvery RSU dark from t = 0: the source locally quarantined "
               "the attacker in "
            << Table::percent(quarantined.mean()) << " of trials.\n";
  obs::addRunningStat(registry, "faults.quarantine.isolated", quarantined);
  obs::writeBenchJson("ablation_faults", registry.snapshot(),
                      timer.info().recordJobs(pool.workers()));

  const bool ok = detectNone.mean() >= detectHeavy.mean() &&
                  detectNone.mean() > 0.8 &&
                  failoverDetect.mean() > baselineDetect.mean() &&
                  quarantined.mean() > 0.0;
  std::cout << (ok ? "\nshape check: PASS\n" : "\nshape check: FAIL\n");
  return ok ? 0 : 1;
}
