// Experiment runners for the paper's Fig. 5 (§IV-C) and the §V baseline
// ablation.
//
// These are shared by the bench binaries (which print the tables), the
// campaign engine's fig5 trial, and the integration tests (which assert the
// Fig. 5 packet-count ranges and the baselines' blind spots). The Fig. 4
// grid is the built-in `fig4` campaign spec (src/campaign/builtin.cpp).
#pragma once

#include <string>
#include <vector>

#include "metrics/confusion.hpp"
#include "scenario/highway_scenario.hpp"
#include "sim/parallel.hpp"

namespace blackdp::scenario {

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
