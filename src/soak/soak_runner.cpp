#include "soak/soak_runner.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <unordered_set>
#include <utility>

#include "campaign/spec.hpp"
#include "obs/trace.hpp"
#include "scenario/highway_scenario.hpp"
#include "sim/parallel.hpp"
#include "sim/rng.hpp"

namespace blackdp::soak {

namespace {

/// Simulated settling appended after the verification run, long enough for
/// every probe ladder, flooder campaign, TTL sweep, and fault recovery in
/// any plan this harness can draw to run to completion.
constexpr sim::Duration kSettle = sim::Duration::seconds(30);

std::string_view attackName(scenario::AttackType type) {
  return scenario::toString(type);
}

}  // namespace

SoakRunner::SoakRunner(SoakOptions options) : options_{std::move(options)} {}

std::uint64_t SoakRunner::seedForTrial(std::uint64_t masterSeed,
                                       std::uint64_t trialIndex) {
  return sim::deriveTrialSeed(masterSeed, trialIndex);
}

SoakRunner::Plan SoakRunner::planTrial(std::uint64_t trialIndex) const {
  const std::uint64_t seed = seedForTrial(options_.masterSeed, trialIndex);
  // The planning stream is derived from (not equal to) the scenario seed,
  // so the plan draws never alias the world's own streams.
  sim::Rng plan{sim::SeedSequence{seed}.deriveSeed("soak-plan")};

  Plan result;
  scenario::ScenarioConfig& config = result.config;
  config.seed = seed;

  static constexpr scenario::AttackType kAttacks[] = {
      scenario::AttackType::kNone, scenario::AttackType::kSingle,
      scenario::AttackType::kCooperative, scenario::AttackType::kSelective};
  config.attack = kAttacks[plan.index(4)];
  config.attackerCluster =
      common::ClusterId{static_cast<std::uint32_t>(plan.uniformInt(2, 5))};

  static constexpr std::uint32_t kFleets[] = {40, 60, 80};
  config.vehicleCount = kFleets[plan.index(3)];

  const bool hardened = plan.bernoulli(0.5);
  config.detector.hardening.enabled = hardened;
  if (hardened) config.detector.sessionTtl = sim::Duration::seconds(8);
  // Always record probe identities: the uniqueness invariant needs the log.
  config.detector.recordProbeIdentities = true;

  config.accusationFlooders = static_cast<std::uint32_t>(plan.index(3));
  config.flooder.start = sim::Duration::seconds(2);
  config.flooder.interval = sim::Duration::milliseconds(400);
  config.flooder.maxAccusations = 8;

  const std::vector<std::string>& presets = campaign::faultPresetNames();
  const std::string& preset = presets[plan.index(presets.size())];
  config.faults = campaign::makeFaultPreset(preset);

  result.verifyRounds = 1 + static_cast<int>(plan.bernoulli(0.5));

  result.description =
      "attack=" + std::string{attackName(config.attack)} + " cluster=" +
      std::to_string(config.attackerCluster->value()) +
      " vehicles=" + std::to_string(config.vehicleCount) +
      " hardened=" + (hardened ? "yes" : "no") +
      " flooders=" + std::to_string(config.accusationFlooders) +
      " rounds=" + std::to_string(result.verifyRounds) + " fault=" + preset;
  return result;
}

SoakTrialReport SoakRunner::runTrial(
    std::uint64_t trialIndex, std::vector<obs::TraceEvent>* traceOut) const {
  SoakTrialReport report;
  report.trialIndex = trialIndex;
  report.trialSeed = seedForTrial(options_.masterSeed, trialIndex);
  const Plan plan = planTrial(trialIndex);
  report.description = plan.description;

  const auto violate = [&report](std::string invariant, std::string detail) {
    report.violations.push_back({report.trialIndex, report.trialSeed,
                                 std::move(invariant), std::move(detail)});
  };

  // Per-thread recorder: the trace-reconciliation invariant replays the
  // world's own structured events against the detector counters.
  obs::MemoryRecorder recorder;
  obs::ScopedTraceRecorder scoped{&recorder};

  try {
    scenario::HighwayScenario world(plan.config);
    (void)world.runVerification(plan.verifyRounds);

    if (options_.injectViolation) {
      // Deterministically break the honest-isolation invariant: revoke the
      // first honest bystander. Proves the harness detects violations and
      // that a replay reproduces this exact one.
      for (const auto& vehicle : world.vehicles()) {
        if (vehicle->isAttacker() || vehicle.get() == &world.source() ||
            vehicle.get() == &world.destination()) {
          continue;
        }
        (void)world.taNetwork().reportMisbehaviour(vehicle->address());
        break;
      }
    }

    world.runFor(kSettle);

    // Fault presets can delay a flooder's cluster join by tens of seconds
    // (a lost JREQ is only retried at the next boundary crossing), so its
    // accusation campaign — and the probe ladders it triggers — may still
    // be in flight when the nominal settle ends. Grant bounded grace: a
    // session that is merely in flight drains within a window or two; a
    // genuinely leaked session never drains and still trips the invariant.
    const auto openSessions = [&world] {
      std::size_t open = 0;
      for (const auto& rsu : world.rsus()) {
        open += rsu->detector->activeSessions();
      }
      return open;
    };
    for (int grace = 0; grace < 6 && openSessions() > 0; ++grace) {
      world.runFor(sim::Duration::seconds(5));
    }

    // --- honest-isolation ---------------------------------------------
    if (const std::size_t honest = world.honestRevocations(); honest != 0) {
      violate("honest-isolation",
              std::to_string(honest) +
                  " revocation notice(s) against honest pseudonyms");
    }

    // --- tables-drained / probe-identity-unique / counters ------------
    std::unordered_set<std::uint64_t> disposables;
    std::uint64_t probesSent = 0;
    std::uint64_t verdicts = 0;
    for (const auto& rsu : world.rsus()) {
      const core::RsuDetector& detector = *rsu->detector;
      if (const std::size_t open = detector.activeSessions(); open != 0) {
        violate("tables-drained",
                "cluster " + std::to_string(rsu->cluster.value()) + " still holds " +
                    std::to_string(open) + " verification session(s)");
      }
      for (const core::ProbeIdentity& identity : detector.probeIdentities()) {
        if (!disposables.insert(identity.disposable.value()).second) {
          violate("probe-identity-unique",
                  "disposable probe identity " +
                      std::to_string(identity.disposable.value()) +
                      " was used twice");
        }
      }
      probesSent += detector.stats().probesSent;
      verdicts += detector.completedSessions().size();
    }

    // --- trace-reconciled ----------------------------------------------
    std::uint64_t tracedProbes = 0;
    std::uint64_t tracedVerdicts = 0;
    for (const obs::TraceEvent& event : recorder.events()) {
      if (event.kind != obs::EventKind::kDetector) continue;
      const auto op = static_cast<obs::DetectorOp>(event.op);
      if (op == obs::DetectorOp::kProbeSent) ++tracedProbes;
      if (op == obs::DetectorOp::kVerdict) ++tracedVerdicts;
    }
    if (tracedProbes != probesSent) {
      violate("trace-reconciled",
              "trace saw " + std::to_string(tracedProbes) +
                  " probe sends, detector counters say " +
                  std::to_string(probesSent));
    }
    if (tracedVerdicts != verdicts) {
      violate("trace-reconciled",
              "trace saw " + std::to_string(tracedVerdicts) +
                  " verdicts, detectors completed " + std::to_string(verdicts) +
                  " sessions");
    }
  } catch (const std::exception& e) {
    violate("trial-exception", e.what());
  }
  if (traceOut != nullptr) *traceOut = recorder.events();
  return report;
}

SoakResult SoakRunner::run() const {
  const auto start = std::chrono::steady_clock::now();
  const auto elapsedS = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  sim::ParallelRunner runner{options_.jobs};
  SoakResult result;
  std::uint64_t next = 0;
  while (elapsedS() < options_.wallClockBudgetS) {
    if (options_.maxTrials != 0 && next >= options_.maxTrials) break;
    std::uint64_t batch = runner.jobs();
    if (options_.maxTrials != 0) {
      batch = std::min<std::uint64_t>(batch, options_.maxTrials - next);
    }
    const std::vector<SoakTrialReport> reports =
        runner.map<SoakTrialReport>(static_cast<std::size_t>(batch),
                                    [&](std::size_t i) {
                                      return runTrial(next + i);
                                    });
    next += batch;
    result.trialsRun += batch;
    for (const SoakTrialReport& report : reports) {
      if (options_.log != nullptr) {
        *options_.log << "soak trial " << report.trialIndex << " ["
                      << report.description << "]: "
                      << (report.violations.empty() ? "ok" : "VIOLATION")
                      << '\n';
      }
      result.violations.insert(result.violations.end(),
                               report.violations.begin(),
                               report.violations.end());
    }
    // --- no-swallowed-failures -----------------------------------------
    // Trial bodies convert their own exceptions into violations, so any
    // suppressed worker exception here is a harness bug worth failing on.
    for (const sim::WorkerFailure& failure : runner.swallowedFailures()) {
      result.violations.push_back(
          {next - batch + failure.index,
           seedForTrial(options_.masterSeed, next - batch + failure.index),
           "no-swallowed-failures", failure.what});
    }
    if (!result.violations.empty()) break;
  }
  result.wallClockS = elapsedS();
  if (options_.log != nullptr) {
    *options_.log << "soak: " << result.trialsRun << " trial(s), "
                  << result.violations.size() << " violation(s), "
                  << result.wallClockS << "s wall clock\n";
  }
  return result;
}

}  // namespace blackdp::soak
