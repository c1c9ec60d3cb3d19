// Experiment runner for the §V baseline ablation, shared by
// bench/ablation_baselines (which prints the table) and the integration
// tests (which assert the baselines' blind spots). The paper's Fig. 4,
// Fig. 5 and sensitivity grids are built-in campaign specs
// (src/campaign/builtin.cpp) run by the campaign engine.
#pragma once

#include <string>
#include <vector>

#include "metrics/confusion.hpp"
#include "scenario/highway_scenario.hpp"
#include "sim/thread_pool.hpp"

namespace blackdp::scenario {

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
/// A null `pool` runs the two treatments serially.
[[nodiscard]] std::vector<BaselineCell> runBaselineComparison(
    std::uint32_t trials, std::uint64_t seedBase,
    common::ClusterId attackerCluster = common::ClusterId{2},
    sim::ThreadPool* pool = nullptr);

}  // namespace blackdp::scenario
