// Experiment runners for the paper's evaluation (§IV) and the ablations.
//
// These are shared by the bench binaries (which print the tables) and by the
// integration tests (which assert the paper-shape properties: zero false
// positives, 100% detection in clusters 1–7, degradation in 8–10, and the
// Fig. 5 packet-count ranges).
#pragma once

#include <string>
#include <vector>

#include "metrics/confusion.hpp"
#include "obs/registry.hpp"
#include "scenario/highway_scenario.hpp"
#include "sim/parallel.hpp"

namespace blackdp::scenario {

// ---------------------------------------------------------------- Figure 4

struct Fig4Cell {
  common::ClusterId cluster{};
  AttackType attack{AttackType::kSingle};
  std::uint32_t trials{0};
  std::uint32_t detected{0};        ///< confirmed on a true attacker
  std::uint32_t falsePositives{0};  ///< trials confirming an honest node
  std::uint32_t prevented{0};       ///< undetected but route never verified
                                    ///< through the attacker

  [[nodiscard]] double detectionAccuracy() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(detected) /
                             static_cast<double>(trials);
  }
  [[nodiscard]] double falsePositiveRate() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(falsePositives) /
                             static_cast<double>(trials);
  }
  [[nodiscard]] double falseNegativeRate() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(trials - detected) /
                             static_cast<double>(trials);
  }
};

/// Runs `trials` seeded repetitions of one (cluster, attack-type) treatment.
/// With a registry, every trial's verifier report and completed detection
/// sessions fold into it (per-stage latency histograms, verdict counters).
[[nodiscard]] Fig4Cell runFig4Cell(AttackType attack, common::ClusterId cluster,
                                   std::uint32_t trials,
                                   std::uint64_t seedBase,
                                   const ScenarioConfig& base = {},
                                   obs::MetricsRegistry* registry = nullptr);

// ---------------------------------------------------------------- Figure 5

struct Fig5Case {
  std::string label;
  AttackType attack{AttackType::kNone};
  bool suspectInReporterCluster{true};
  bool flees{false};  ///< attacker answers RREQ₁ then crosses the boundary
};

struct Fig5Result {
  std::string label;
  std::uint32_t detectionPackets{0};
  core::Verdict verdict{core::Verdict::kNotConfirmed};
  /// d_req accepted → verdict reached, at the detecting CH chain.
  sim::Duration latency{};
  /// The full completed-session record (stage timestamps included), for
  /// telemetry folding via core::recordSessionTelemetry.
  core::SessionRecord record{};
};

/// Scripted packet-count measurement for one placement.
[[nodiscard]] Fig5Result runFig5Case(const Fig5Case& c, std::uint64_t seed);

/// The paper's full set of Fig. 5 placements.
[[nodiscard]] std::vector<Fig5Case> fig5Cases();

// ------------------------------------------------- baseline ablation (§V)

struct BaselineCell {
  std::string detector;  ///< "blackdp", "first-rrep-comparison", ...
  AttackType attack{AttackType::kSingle};
  metrics::ConfusionMatrix matrix;
  /// Trials in which the method had ≥2 RREPs to compare (the single-RREP
  /// blind spot the paper describes).
  std::uint32_t trialsWithComparison{0};
};

/// Runs BlackDP and the §V source-side baselines over the same seeded
/// treatments and grades each against ground truth. The PEAK baseline is
/// stateful across a treatment's discoveries by design, so the runner may
/// only fan out at the attack-treatment level (two tasks), never per trial.
[[nodiscard]] std::vector<BaselineCell> runBaselineComparison(
    std::uint32_t trials, std::uint64_t seedBase,
    common::ClusterId attackerCluster = common::ClusterId{2},
    const sim::ParallelRunner* runner = nullptr);

// The density × range sensitivity sweep that used to live here is now the
// built-in "sensitivity" campaign spec (src/campaign/) — the bench is a thin
// front-end over the campaign engine.

}  // namespace blackdp::scenario
