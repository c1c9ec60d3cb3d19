// Chaos-soak harness: long, randomized adversarial scenarios with
// invariant checking (ROADMAP "adversarial robustness" item).
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
//   no-swallowed-failures  the parallel runner recorded no suppressed
//                       worker exceptions.
//
// Everything is a pure function of (masterSeed, trialIndex): a failing
// trial prints one replay line (`soak_run --seed S --trial K`) that
// reproduces the violation deterministically, on one thread, regardless
// of the jobs count or wall-clock budget of the original run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace_event.hpp"
#include "scenario/config.hpp"

namespace blackdp::soak {

struct SoakOptions {
  std::uint64_t masterSeed{1};
  /// Stop launching new trial batches once this much wall clock has burned.
  double wallClockBudgetS{30.0};
  /// Hard cap on trials (0 = until the wall-clock budget runs out).
  std::uint64_t maxTrials{0};
  /// Worker threads, sim::resolveJobCount semantics (0 = env/hardware).
  unsigned jobs{0};
  /// Deliberately revoke an honest vehicle in every trial, so the
  /// honest-isolation invariant MUST fire — used to prove the harness
  /// actually detects violations and that replays reproduce them.
  bool injectViolation{false};
  /// Progress/outcome narration (nullptr = silent).
  std::ostream* log{nullptr};
};

/// One invariant breach, carrying everything needed to replay it.
struct SoakViolation {
  std::uint64_t trialIndex{0};
  std::uint64_t trialSeed{0};
  std::string invariant;  ///< e.g. "honest-isolation"
  std::string detail;
};

/// One finished trial: the resolved plan plus any violations it produced.
struct SoakTrialReport {
  std::uint64_t trialIndex{0};
  std::uint64_t trialSeed{0};
  std::string description;  ///< human-readable resolved plan
  std::vector<SoakViolation> violations;
};

struct SoakResult {
  std::uint64_t trialsRun{0};
  double wallClockS{0.0};
  std::vector<SoakViolation> violations;
  [[nodiscard]] bool passed() const { return violations.empty(); }
};

class SoakRunner {
 public:
  explicit SoakRunner(SoakOptions options);

  /// The per-trial seed contract (SplitMix64 jump): pure in
  /// (masterSeed, trialIndex), so replays need only those two numbers.
  [[nodiscard]] static std::uint64_t seedForTrial(std::uint64_t masterSeed,
                                                  std::uint64_t trialIndex);

  /// A fully resolved trial plan.
  struct Plan {
    scenario::ScenarioConfig config;
    /// Back-to-back verified establishments (2 exposes cache-gated
    /// selective attackers, which sit out the first discovery).
    int verifyRounds{1};
    std::string description;
  };

  /// The plan a given trial will run (pure; exposed for tests and for
  /// `soak_run --trial` narration).
  [[nodiscard]] Plan planTrial(std::uint64_t trialIndex) const;

  /// Runs exactly one trial on the calling thread — the replay entry point.
  /// `traceOut`, when non-null, receives the trial's full structured trace
  /// (the same events the reconciliation invariant checks), for post-mortem
  /// via tools/trace_report.
  [[nodiscard]] SoakTrialReport runTrial(
      std::uint64_t trialIndex,
      std::vector<obs::TraceEvent>* traceOut = nullptr) const;

  /// Runs batches of trials until the wall-clock budget or maxTrials is
  /// reached, or until the first batch with a violation.
  [[nodiscard]] SoakResult run() const;

  [[nodiscard]] const SoakOptions& options() const { return options_; }

 private:
  SoakOptions options_;
};

}  // namespace blackdp::soak
