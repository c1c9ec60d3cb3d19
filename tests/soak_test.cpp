// Chaos-soak trial tests: plan purity, deterministic replay, and the
// injected-violation path that proves the invariants can actually fire.
// The chaos world's epochs (trial counts, fail-fast, checkpoints) are
// pinned with the other worlds in epoch_soak_test.
#include <gtest/gtest.h>

#include "sim/rng.hpp"
#include "soak/chaos_soak.hpp"

namespace blackdp::soak {
namespace {

TEST(SoakRunnerTest, PlansArePureInSeedAndIndex) {
  bool anyDiffers = false;
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    const TrialPlan a = planTrial(11, trial);
    const TrialPlan b = planTrial(11, trial);
    EXPECT_EQ(a.description, b.description) << "trial " << trial;
    EXPECT_EQ(a.config.seed, sim::deriveTrialSeed(11, trial));
    EXPECT_EQ(a.config.seed, b.config.seed);
    EXPECT_EQ(a.config.vehicleCount, b.config.vehicleCount);
    EXPECT_EQ(a.verifyRounds, b.verifyRounds);
    anyDiffers =
        anyDiffers || a.description != planTrial(12, trial).description;
  }
  // A different master seed draws different plans (over 8 trials, some
  // dimension must move).
  EXPECT_TRUE(anyDiffers);
}

TEST(SoakRunnerTest, TrialReplaysDeterministically) {
  const ChaosConfig config{21, false};
  const SoakTrialReport first = runTrial(config, 0);
  const SoakTrialReport again = runTrial(config, 0);

  EXPECT_EQ(first.plan.description, again.plan.description);
  EXPECT_EQ(first.plan.config.seed, again.plan.config.seed);
  EXPECT_EQ(first.probesSent, again.probesSent);
  EXPECT_EQ(first.verdicts, again.verdicts);
  ASSERT_EQ(first.violations.size(), again.violations.size());
  for (std::size_t i = 0; i < first.violations.size(); ++i) {
    EXPECT_EQ(first.violations[i].invariant, again.violations[i].invariant);
    EXPECT_EQ(first.violations[i].detail, again.violations[i].detail);
  }
}

TEST(SoakRunnerTest, CleanTrialHoldsAllInvariants) {
  const SoakTrialReport report = runTrial({31, false}, 0);
  EXPECT_TRUE(report.violations.empty())
      << report.violations.front().invariant << ": "
      << report.violations.front().detail;
}

TEST(SoakRunnerTest, InjectedViolationFiresAndReplays) {
  const ChaosConfig config{41, true};
  const SoakTrialReport report = runTrial(config, 0);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_EQ(report.violations.front().invariant, "honest-isolation");
  EXPECT_EQ(report.plan.config.seed, sim::deriveTrialSeed(41, 0));
  EXPECT_EQ(describeTrialViolation(config, 0, report.violations.front()),
            "[honest-isolation] trial 0 (seed " +
                std::to_string(sim::deriveTrialSeed(41, 0)) + "): " +
                report.violations.front().detail +
                "\n  replay: soak_run --seed 41 --trial 0 --inject-violation");

  // The printed replay line is (seed, trial): a second run must reproduce
  // the identical violation.
  const SoakTrialReport replay = runTrial(config, 0);
  ASSERT_EQ(replay.violations.size(), report.violations.size());
  EXPECT_EQ(replay.violations.front().detail, report.violations.front().detail);
}

TEST(SoakRunnerTest, ReplayTraceMatchesTheReconciledCounters) {
  std::vector<obs::TraceEvent> trace;
  const SoakTrialReport report = runTrial({71, false}, 0, &trace);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_FALSE(trace.empty());
  std::uint64_t probes = 0;
  for (const obs::TraceEvent& event : trace) {
    probes += event.kind == obs::EventKind::kDetector &&
              static_cast<obs::DetectorOp>(event.op) ==
                  obs::DetectorOp::kProbeSent;
  }
  EXPECT_EQ(probes, report.probesSent);
}

}  // namespace
}  // namespace blackdp::soak
