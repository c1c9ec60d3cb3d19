// The chaos soak: randomized adversarial scenarios with invariant checking,
// the third world of the epoch driver (soak/epoch_soak.hpp).
//
// Each trial draws a random scenario — attacker sophistication (none /
// single / cooperative / selective), detector hardening on or off,
// accusation flooders riding along, an infrastructure-fault preset — runs
// it to quiescence, and then asserts properties that must hold for EVERY
// configuration, not just the paper's:
//
//   honest-isolation    no honest vehicle is ever revoked/isolated,
//                       whatever the attacker or accusation mix;
//   tables-drained      every CH verification table is empty once the
//                       world settles (no leaked/stuck sessions);
//   probe-identity-unique  disposable probe identities are never reused,
//                       across rounds, sessions, and detectors;
//   trace-reconciled    the structured trace agrees with the detector
//                       counters (probes sent, verdicts issued);
//   trial-exception     the trial ran to its checks without throwing;
//   no-swallowed-failures  no exception escaped a trial body into the
//                       trial pool.
//
// Epoch e runs trials 16e .. 16e+15 on a sim::ThreadPool and folds them in
// trial order into counters (the surfaces, and one kChaos checkpoint
// section) that depend only on (seed, epochs). Every trial is a pure
// function of (seed, trial index): a violation carries the replay line
// `soak_run --seed S --trial K`, which reruns just that trial.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace_event.hpp"
#include "scenario/config.hpp"
#include "sim/thread_pool.hpp"
#include "soak/epoch_soak.hpp"

namespace blackdp::soak {

/// Trials per chaos epoch: a constant, not a knob, because every
/// checkpoint's cursor counts in it.
inline constexpr std::uint64_t kTrialsPerEpoch = 16;

struct ChaosConfig {
  std::uint64_t seed{1};
  /// Deliberately revoke an honest vehicle in every trial, so the
  /// honest-isolation invariant MUST fire — used to prove the harness
  /// actually detects violations and that replays reproduce them.
  bool injectViolation{false};
};

/// A fully resolved trial plan.
struct TrialPlan {
  scenario::ScenarioConfig config;  ///< config.seed is the trial's seed
  /// Back-to-back verified establishments (2 exposes cache-gated
  /// selective attackers, which sit out the first discovery).
  int verifyRounds{1};
  std::string description;
};

/// One finished trial: its plan, the detector counters the trace was
/// reconciled against, and the invariants it broke.
struct SoakTrialReport {
  TrialPlan plan;
  std::uint64_t probesSent{0};
  std::uint64_t verdicts{0};
  std::vector<EpochViolation> violations;
};

/// The plan trial `trialIndex` of master seed `seed` runs (pure; its
/// scenario seed is sim::deriveTrialSeed(seed, trialIndex)).
[[nodiscard]] TrialPlan planTrial(std::uint64_t seed,
                                  std::uint64_t trialIndex);

/// Runs exactly one trial on the calling thread — the replay entry point.
/// `traceOut`, when non-null, receives the trial's full structured trace
/// (the same events the reconciliation invariant checks), for post-mortem
/// via tools/trace_report.
[[nodiscard]] SoakTrialReport runTrial(
    const ChaosConfig& config, std::uint64_t trialIndex,
    std::vector<obs::TraceEvent>* traceOut = nullptr);

/// "[invariant] trial K (seed T): detail", then, indented on the next line,
/// "replay: soak_run --seed S --trial K" (plus --inject-violation when set).
[[nodiscard]] std::string describeTrialViolation(const ChaosConfig& config,
                                                 std::uint64_t trialIndex,
                                                 const EpochViolation& v);

/// The chaos soak as an epoch world, its trials fanned out over `pool`.
[[nodiscard]] SoakWorld chaosSoakWorld(const ChaosConfig& config,
                                       sim::ThreadPool& pool);

}  // namespace blackdp::soak
