#include "soak/chaos_soak.hpp"

#include <array>
#include <memory>
#include <unordered_set>
#include <utility>

#include "campaign/spec.hpp"
#include "codec/checkpoint.hpp"
#include "common/address_registry.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "scenario/highway_scenario.hpp"
#include "sim/rng.hpp"

namespace blackdp::soak {

namespace {

/// Simulated settling appended after the verification run, long enough for
/// every probe ladder, flooder campaign, TTL sweep, and fault recovery in
/// any plan this harness can draw to run to completion.
constexpr sim::Duration kSettle = sim::Duration::seconds(30);

}  // namespace

TrialPlan planTrial(std::uint64_t masterSeed, std::uint64_t trialIndex) {
  const std::uint64_t seed = sim::deriveTrialSeed(masterSeed, trialIndex);
  // The planning stream is derived from (not equal to) the scenario seed,
  // so the plan draws never alias the world's own streams.
  sim::Rng plan{sim::SeedSequence{seed}.deriveSeed("soak-plan")};

  TrialPlan result;
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
      "attack=" + std::string{scenario::toString(config.attack)} +
      " cluster=" + std::to_string(config.attackerCluster->value()) +
      " vehicles=" + std::to_string(config.vehicleCount) +
      " hardened=" + (hardened ? "yes" : "no") +
      " flooders=" + std::to_string(config.accusationFlooders) +
      " rounds=" + std::to_string(result.verifyRounds) + " fault=" + preset;
  return result;
}

SoakTrialReport runTrial(const ChaosConfig& chaos, std::uint64_t trialIndex,
                         std::vector<obs::TraceEvent>* traceOut) {
  SoakTrialReport report;
  report.plan = planTrial(chaos.seed, trialIndex);
  const TrialPlan& plan = report.plan;

  const auto violate = [&](std::string invariant, std::string detail) {
    report.violations.push_back({trialIndex / kTrialsPerEpoch,
                                 std::move(invariant), std::move(detail)});
  };

  // Per-thread recorder: the trace-reconciliation invariant replays the
  // world's own structured events against the detector counters.
  obs::MemoryRecorder recorder;
  obs::ScopedTraceRecorder scoped{&recorder};

  try {
    scenario::HighwayScenario world(plan.config);
    (void)world.runVerification(plan.verifyRounds);

    if (chaos.injectViolation) {
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
    std::uint64_t& probesSent = report.probesSent;
    std::uint64_t& verdicts = report.verdicts;
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

std::string describeTrialViolation(const ChaosConfig& config,
                                   std::uint64_t trialIndex,
                                   const EpochViolation& v) {
  const std::string trial = std::to_string(trialIndex);
  return "[" + v.invariant + "] trial " + trial + " (seed " +
         std::to_string(sim::deriveTrialSeed(config.seed, trialIndex)) +
         "): " + v.detail + "\n  replay: soak_run --seed " +
         std::to_string(config.seed) + " --trial " + trial +
         (config.injectViolation ? " --inject-violation" : "");
}

namespace {

/// The folded counters, in checkpoint and surface order.
enum Counter : std::size_t { kTrials, kProbes, kVerdicts, kHash, kCounters };
constexpr std::array<const char*, kCounters> kCounterNames{
    "trials", "probes_sent", "verdicts", "outcome_hash"};

/// The chaos soak's whole state: the epoch cursor and the counters every
/// trial run so far folded into, in trial order.
class ChaosEpochWorld final : public EpochWorld {
 public:
  ChaosEpochWorld(const ChaosConfig& config, sim::ThreadPool& pool)
      : config_{config}, pool_{pool} {}

  std::uint64_t nextEpoch() const override { return epoch_; }

  void runEpoch() override {
    const std::uint64_t first = epoch_ * kTrialsPerEpoch;
    std::array<SoakTrialReport, kTrialsPerEpoch> reports;
    pool_.parallelFor(kTrialsPerEpoch, [&](std::size_t i) {
      // --- no-swallowed-failures ---------------------------------------
      // Trial bodies convert their own exceptions into violations, so
      // anything that escapes runTrial is a harness bug worth failing on.
      try {
        reports[i] = runTrial(config_, first + i);
      } catch (...) {
        reports[i].violations.push_back(
            {epoch_, "no-swallowed-failures",
             sim::describeException(std::current_exception())});
      }
    });
    broken_.clear();
    for (std::size_t i = 0; i < kTrialsPerEpoch; ++i) {
      fold(first + i, reports[i]);
    }
    ++epoch_;
  }

  common::Bytes save() override {
    common::ByteWriter w;
    w.writeU64(configHash());
    w.writeU64(config_.seed);
    w.writeU64(epoch_);
    for (const std::uint64_t counter : counters_) w.writeU64(counter);
    codec::CheckpointBuilder builder;
    builder.add(codec::CheckpointTag::kChaos, std::move(w).take());
    return builder.finish();
  }

  common::Status restore(std::span<const std::uint8_t> blob) override {
    return codec::restoreGuarded(
        blob, codec::CheckpointTag::kChaos, configHash(), config_.seed,
        [this](const codec::Checkpoint&,
               common::ByteReader& r) -> common::Status {
          epoch_ = r.readU64();
          for (std::uint64_t& counter : counters_) counter = r.readU64();
          codec::expectConsumed(r, "chaos");
          // Divide rather than multiply: a hostile epoch must not overflow
          // on its way to being rejected.
          const std::uint64_t trials = counters_[kTrials];
          if (trials % kTrialsPerEpoch != 0 ||
              trials / kTrialsPerEpoch != epoch_) {
            return common::Error{"malformed",
                                 "trial count is not the epoch cursor x " +
                                     std::to_string(kTrialsPerEpoch)};
          }
          return common::Status::success();
        },
        [this] { return save(); });
  }

  std::vector<std::string> checkInvariants() const override { return broken_; }

  Surfaces surfaces() override {
    std::string json = "{";
    for (std::size_t c = 0; c < kCounters; ++c) {
      if (c > 0) json += ",";
      obs::appendJsonString(json, kCounterNames[c]);
      json += ":";
      obs::appendJsonNumber(json, counters_[c]);
    }
    return {json + "}", {}};
  }

 private:
  /// What a checkpoint must have been written under, besides the seed.
  std::uint64_t configHash() const {
    return kTrialsPerEpoch * 2 + (config_.injectViolation ? 1 : 0);
  }

  void fold(std::uint64_t trial, const SoakTrialReport& report) {
    ++counters_[kTrials];
    counters_[kProbes] += report.probesSent;
    counters_[kVerdicts] += report.verdicts;
    for (const std::uint64_t outcome :
         {report.probesSent, report.verdicts,
          static_cast<std::uint64_t>(report.violations.size())}) {
      counters_[kHash] = common::mixAddress(
          counters_[kHash] ^ (outcome + 0x9e3779b97f4a7c15ull));
    }
    for (const EpochViolation& v : report.violations) {
      broken_.push_back(describeTrialViolation(config_, trial, v));
    }
  }

  ChaosConfig config_;
  sim::ThreadPool& pool_;
  std::uint64_t epoch_{0};
  std::array<std::uint64_t, kCounters> counters_{};
  std::vector<std::string> broken_;  ///< the last epoch's violations
};

}  // namespace

SoakWorld chaosSoakWorld(const ChaosConfig& config, sim::ThreadPool& pool) {
  return {"chaos", config.seed,
          "--seed " + std::to_string(config.seed) +
              (config.injectViolation ? " --inject-violation" : ""),
          [config, &pool] {
            return std::make_unique<ChaosEpochWorld>(config, pool);
          }};
}

}  // namespace blackdp::soak
