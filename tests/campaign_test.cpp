// Campaign engine pins: spec grammar and expansion, the seed-derivation
// contract (axes pinned at defaults never perturb seeds), manifest row
// round-trips, resume-after-truncation byte-identity, jobs-count
// independence, builtin-vs-campaigns/*.json sync, and metrics equality with
// the pre-port hand-rolled sensitivity sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/builtin.hpp"
#include "campaign/manifest.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "core/telemetry.hpp"
#include "scenario/highway_scenario.hpp"

namespace blackdp {
namespace {

namespace fs = std::filesystem;

// A fast four-trial detection campaign used by the IO-heavy tests.
constexpr std::string_view kTinySpec = R"json({
  "name": "tiny",
  "experiment": "detection",
  "seed": 99,
  "trials": 2,
  "base": {"vehicle_count": 40, "first_evasive_cluster": 99},
  "axes": [{"key": "attacker_cluster", "values": [2, 3]}]
})json";

campaign::CampaignSpec parseOrDie(std::string_view text) {
  std::string error;
  std::optional<campaign::CampaignSpec> spec =
      campaign::parseCampaignSpec(text, &error);
  EXPECT_TRUE(spec.has_value()) << error;
  return *spec;
}

std::string slurp(const fs::path& path) {
  std::ifstream in{path};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Fresh per-test output directory under the gtest temp root.
fs::path makeOutDir(std::string_view tag) {
  const fs::path dir =
      fs::path{::testing::TempDir()} / ("campaign_" + std::string{tag});
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(CampaignSpecTest, ParsesAndExpandsTheCartesianProduct) {
  const campaign::CampaignSpec spec = parseOrDie(kTinySpec);
  EXPECT_EQ(spec.name, "tiny");
  EXPECT_EQ(spec.experiment, campaign::ExperimentKind::kDetection);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.trials, 2u);

  const auto treatments = campaign::expandTreatments(spec);
  ASSERT_TRUE(treatments.has_value());
  ASSERT_EQ(treatments->size(), 2u);
  EXPECT_EQ((*treatments)[0].label, "attacker_cluster=2");
  EXPECT_EQ((*treatments)[1].label, "attacker_cluster=3");
  EXPECT_EQ((*treatments)[0].config.scenario.vehicleCount, 40u);
  EXPECT_EQ((*treatments)[1].config.scenario.attackerCluster->value(), 3u);
  EXPECT_NE((*treatments)[0].configHash, (*treatments)[1].configHash);
  // trial ids flatten treatment-major.
  EXPECT_EQ(campaign::trialId(spec, 1, 1), 3u);
}

TEST(CampaignSpecTest, RejectsUnknownKeysAndBadValues) {
  std::string error;
  EXPECT_FALSE(campaign::parseCampaignSpec("not json", &error).has_value());
  EXPECT_FALSE(
      campaign::parseCampaignSpec(R"({"name":"x","bogus":1})", &error)
          .has_value());
  EXPECT_FALSE(campaign::parseCampaignSpec(
                   R"({"name":"x","axes":[{"key":"no_such_knob",
                       "values":[1]}]})",
                   &error)
                   .has_value());
  EXPECT_FALSE(campaign::parseCampaignSpec(
                   R"({"name":"x","base":{"vehicle_count":-5}})", &error)
                   .has_value());
  EXPECT_FALSE(campaign::parseCampaignSpec(
                   R"({"name":"x","base":{"fault_preset":"nope"}})", &error)
                   .has_value());
}

TEST(CampaignSpecTest, AxisPinnedAtDefaultKeepsHashAndSeeds) {
  // The seed-derivation contract: hashing the *full* resolved knob set means
  // sweeping a knob over its default value yields the same treatment hash —
  // and therefore the same per-trial seeds — as not sweeping it at all.
  const campaign::CampaignSpec plain = parseOrDie(
      R"json({"name": "c", "seed": 5, "trials": 3})json");
  const campaign::CampaignSpec pinned = parseOrDie(
      R"json({"name": "c", "seed": 5, "trials": 3,
              "axes": [{"key": "vehicle_count", "values": [100]}]})json");

  const auto plainT = campaign::expandTreatments(plain);
  const auto pinnedT = campaign::expandTreatments(pinned);
  ASSERT_TRUE(plainT.has_value() && pinnedT.has_value());
  ASSERT_EQ(plainT->size(), 1u);
  ASSERT_EQ(pinnedT->size(), 1u);
  EXPECT_EQ((*plainT)[0].configHash, (*pinnedT)[0].configHash);
  for (std::uint32_t rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(campaign::trialSeed(plain, (*plainT)[0], rep),
              campaign::trialSeed(pinned, (*pinnedT)[0], rep));
  }
}

TEST(CampaignSpecTest, ObjectAxisValuesBundleSeveralKnobs) {
  const campaign::CampaignSpec spec = parseOrDie(
      campaign::findBuiltinSpec("sensitivity")->json);
  const auto treatments = campaign::expandTreatments(spec);
  ASSERT_TRUE(treatments.has_value());
  ASSERT_EQ(treatments->size(), 12u);  // 4 fleets x 3 radio bundles
  for (const campaign::Treatment& t : *treatments) {
    EXPECT_EQ(t.config.scenario.transmissionRangeM,
              t.config.scenario.clusterLengthM);
    EXPECT_EQ(t.config.scenario.evasion.firstEvasiveCluster, 99u);
  }
}

TEST(CampaignSpecTest, FaultPresetKnobInstallsAPlan) {
  campaign::ResolvedConfig config;
  const auto preset = obs::JsonValue::parse(R"("burst_medium")");
  ASSERT_TRUE(preset.has_value());
  ASSERT_TRUE(campaign::applyKnob(config, "fault_preset", *preset));
  EXPECT_EQ(config.faultPreset, "burst_medium");
  EXPECT_FALSE(config.scenario.faults.empty());

  std::string error;
  const auto bogus = obs::JsonValue::parse(R"("not_a_preset")");
  EXPECT_FALSE(campaign::applyKnob(config, "fault_preset", *bogus, &error));
}

TEST(CampaignManifestTest, RowRoundTripsByteExactly) {
  obs::MetricsRegistry registry;
  registry.counter("verify.outcome.confirmed").add(2);
  registry.gauge("g.x").set(0.1);
  registry.histogram("h.lat", {1.0, 2.0, 4.0}).observe(1.5);
  registry.histogram("h.lat", {1.0, 2.0, 4.0}).observe(9.0);

  campaign::TrialRecord record;
  record.trial = 7;
  record.treatment = 3;
  record.rep = 1;
  record.seed = 0xdeadbeefcafef00dull;
  record.configHash = "0123456789abcdef";
  record.label = R"(attack=single,loss="weird")";
  record.attackLaunched = true;
  record.confirmedOnAttacker = true;
  record.falsePositive = false;
  record.detectionPackets = 8;
  record.verdict = "single-black-hole";
  record.framesDelivered = 12345;
  record.telemetry = registry.snapshot();

  const std::string line = campaign::manifestRowLine(record);
  const std::optional<campaign::TrialRecord> parsed =
      campaign::parseManifestRow(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(campaign::manifestRowLine(*parsed), line);
  EXPECT_EQ(parsed->telemetry.toJson(), record.telemetry.toJson());
  EXPECT_EQ(parsed->seed, record.seed);
  EXPECT_EQ(parsed->label, record.label);
}

TEST(CampaignManifestTest, ReaderStopsAtTruncatedLine) {
  const campaign::CampaignSpec spec = parseOrDie(kTinySpec);
  campaign::TrialRecord record;
  record.configHash = "x";
  const fs::path dir = makeOutDir("trunc_reader");
  const fs::path path = dir / "m.jsonl";
  {
    std::ofstream out{path};
    out << campaign::manifestHeaderLine(spec, 2) << '\n';
    out << campaign::manifestRowLine(record) << '\n';
    out << R"({"trial":1,"treatment":0,"rep":1,"seed":)";  // cut mid-write
  }
  const auto contents = campaign::readManifest(path.string());
  ASSERT_TRUE(contents.has_value());
  EXPECT_EQ(contents->header.campaign, "tiny");
  EXPECT_EQ(contents->rows.size(), 1u);
  EXPECT_EQ(contents->truncatedAtLine, 3u);
}

TEST(CampaignRunnerTest, DryRunExpandsWithoutExecuting) {
  const campaign::CampaignSpec spec = parseOrDie(kTinySpec);
  campaign::CampaignOptions options;
  options.dryRun = true;
  const campaign::CampaignResult result =
      campaign::CampaignRunner{options}.run(spec);
  EXPECT_EQ(result.trialsTotal, 4u);
  EXPECT_EQ(result.trialsRun, 0u);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.cells[0].trials, 0u);
  EXPECT_TRUE(result.benchPath.empty());
}

// The full determinism pin: an uninterrupted --jobs 1 run, an uninterrupted
// --jobs 4 run, and a truncated-then-resumed run must all produce the same
// manifest and BENCH JSON, byte for byte.
TEST(CampaignRunnerTest, ResumeAndJobsCountAreByteInvisible) {
  const campaign::CampaignSpec spec = parseOrDie(kTinySpec);

  const auto runInto = [&](const fs::path& dir, unsigned jobs, bool resume) {
    campaign::CampaignOptions options;
    options.jobs = jobs;
    options.outDir = dir.string();
    options.resume = resume;
    options.pinSidecar = true;
    return campaign::CampaignRunner{options}.run(spec);
  };

  const fs::path serialDir = makeOutDir("serial");
  const campaign::CampaignResult serial = runInto(serialDir, 1, false);
  EXPECT_EQ(serial.trialsRun, 4u);
  const std::string manifestBytes =
      slurp(serialDir / "tiny.manifest.jsonl");
  const std::string benchBytes = slurp(serialDir / "BENCH_tiny.json");
  ASSERT_FALSE(manifestBytes.empty());
  ASSERT_FALSE(benchBytes.empty());

  const fs::path parallelDir = makeOutDir("parallel");
  (void)runInto(parallelDir, 4, false);
  EXPECT_EQ(slurp(parallelDir / "tiny.manifest.jsonl"), manifestBytes);
  EXPECT_EQ(slurp(parallelDir / "BENCH_tiny.json"), benchBytes);

  // Interrupt: keep the header and the first two rows, then resume.
  const fs::path resumeDir = makeOutDir("resume");
  std::istringstream lines{manifestBytes};
  std::string line;
  std::ofstream partial{resumeDir / "tiny.manifest.jsonl"};
  for (int i = 0; i < 3 && std::getline(lines, line); ++i) {
    partial << line << '\n';
  }
  partial.close();

  const campaign::CampaignResult resumed = runInto(resumeDir, 4, true);
  EXPECT_EQ(resumed.trialsResumed, 2u);
  EXPECT_EQ(resumed.trialsRun, 2u);
  EXPECT_EQ(slurp(resumeDir / "tiny.manifest.jsonl"), manifestBytes);
  EXPECT_EQ(slurp(resumeDir / "BENCH_tiny.json"), benchBytes);
}

// A missing --out directory must be created, never silently swallowed
// (regression: ofstream open failures used to leave a "successful" run
// with no manifest and no bench file on disk).
TEST(CampaignRunnerTest, CreatesTheOutputDirectoryOnDemand) {
  const campaign::CampaignSpec spec = parseOrDie(kTinySpec);
  const fs::path root = makeOutDir("mkdir");
  const fs::path nested = root / "does" / "not" / "exist";
  campaign::CampaignOptions options;
  options.outDir = nested.string();
  options.pinSidecar = true;
  const campaign::CampaignResult result =
      campaign::CampaignRunner{options}.run(spec);
  EXPECT_EQ(result.manifestPath, (nested / "tiny.manifest.jsonl").string());
  EXPECT_TRUE(fs::exists(nested / "tiny.manifest.jsonl"));
  EXPECT_TRUE(fs::exists(nested / "BENCH_tiny.json"));
}

TEST(CampaignRunnerTest, ResumeRejectsAManifestFromADifferentSpec) {
  const campaign::CampaignSpec spec = parseOrDie(kTinySpec);
  const fs::path dir = makeOutDir("mismatch");
  campaign::CampaignOptions options;
  options.outDir = dir.string();
  options.pinSidecar = true;
  (void)campaign::CampaignRunner{options}.run(spec);

  campaign::CampaignSpec edited = parseOrDie(kTinySpec);
  edited.seed = 100;  // different campaign seed -> different trial seeds
  options.resume = true;
  EXPECT_THROW((void)campaign::CampaignRunner{options}.run(edited),
               std::runtime_error);
}

// Metrics equality with the pre-port hand-rolled sensitivity sweep, pinned
// on the paper's dense operating point (100 vehicles, 1000 m range) where
// detection is saturated: the ported campaign must reproduce the reference
// loop's confusion cell exactly.
TEST(CampaignPortTest, SensitivityCellMatchesPrePortReferenceLoop) {
  constexpr std::uint32_t kTrials = 2;

  // Reference: the deleted runSensitivityTrial loop, verbatim (old per-trial
  // seed formula seedBase + 977*fleet + range + trial).
  std::uint32_t refLaunched = 0;
  std::uint32_t refDetected = 0;
  std::uint32_t refFalsePositives = 0;
  for (std::uint32_t trial = 0; trial < kTrials; ++trial) {
    scenario::ScenarioConfig config;
    config.seed = 31'000 + 977 * 100 + 1000 + trial;
    config.vehicleCount = 100;
    config.transmissionRangeM = 1000.0;
    config.clusterLengthM = 1000.0;
    config.attack = scenario::AttackType::kSingle;
    config.attackerCluster = common::ClusterId{2};
    config.evasion.firstEvasiveCluster = 99;
    scenario::HighwayScenario world(config);
    (void)world.runVerification();
    const scenario::DetectionSummary summary = world.detectionSummary();
    if (world.primaryAttacker()->attacker->attackStats().rrepsForged > 0) {
      ++refLaunched;
    }
    if (summary.confirmedOnAttacker) ++refDetected;
    if (summary.falsePositive) ++refFalsePositives;
  }

  // Ported: the built-in sensitivity campaign's (100, 1000 m) treatment.
  campaign::CampaignSpec spec =
      parseOrDie(campaign::findBuiltinSpec("sensitivity")->json);
  spec.trials = kTrials;
  campaign::CampaignOptions options;
  options.writeManifest = false;
  options.writeBench = false;
  const campaign::CampaignResult result =
      campaign::CampaignRunner{options}.run(spec);

  const campaign::TreatmentCell* cell = nullptr;
  for (const campaign::TreatmentCell& c : result.cells) {
    if (c.treatment.config.scenario.vehicleCount == 100 &&
        c.treatment.config.scenario.transmissionRangeM == 1000.0) {
      cell = &c;
    }
  }
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->attacksLaunched, refLaunched);
  EXPECT_EQ(cell->detected, refDetected);
  EXPECT_EQ(cell->falsePositives, refFalsePositives);
  // Saturated operating point: the paper's 100%-detection/0-FP cell.
  EXPECT_EQ(cell->detected, kTrials);
  EXPECT_EQ(cell->falsePositives, 0u);
  EXPECT_EQ(cell->matrix.tp(), kTrials);
}

TEST(CampaignBuiltinTest, BuiltinsStayInSyncWithCampaignFiles) {
  for (const campaign::BuiltinSpec& builtin : campaign::builtinSpecs()) {
    const fs::path path =
        fs::path{BLACKDP_CAMPAIGNS_DIR} / (std::string{builtin.name} + ".json");
    ASSERT_TRUE(fs::exists(path)) << path;
    const campaign::CampaignSpec fromBuiltin = parseOrDie(builtin.json);
    const campaign::CampaignSpec fromFile = parseOrDie(slurp(path));
    EXPECT_EQ(fromBuiltin.name, fromFile.name);
    EXPECT_EQ(fromBuiltin.experiment, fromFile.experiment);
    EXPECT_EQ(fromBuiltin.seed, fromFile.seed);
    EXPECT_EQ(fromBuiltin.trials, fromFile.trials);
    const auto builtinT = campaign::expandTreatments(fromBuiltin);
    const auto fileT = campaign::expandTreatments(fromFile);
    ASSERT_TRUE(builtinT.has_value() && fileT.has_value());
    ASSERT_EQ(builtinT->size(), fileT->size());
    for (std::size_t i = 0; i < builtinT->size(); ++i) {
      EXPECT_EQ((*builtinT)[i].configHash, (*fileT)[i].configHash)
          << builtin.name << " treatment " << i;
      EXPECT_EQ((*builtinT)[i].label, (*fileT)[i].label);
    }
  }
}

TEST(CampaignFig5Test, ScriptedPlacementsRunUnderTheEngine) {
  // One scripted placement per kind keeps this fast; Fig5Test runs the
  // full ten-placement fig5 builtin.
  const campaign::CampaignSpec spec = parseOrDie(R"json({
    "name": "fig5_mini",
    "experiment": "fig5",
    "seed": 11,
    "trials": 1,
    "axes": [{"key": "case", "values": [
      {"attack": "none", "suspect_in_reporter_cluster": true, "flees": false},
      {"attack": "single", "suspect_in_reporter_cluster": true, "flees": false}
    ]}]
  })json");
  campaign::CampaignOptions options;
  options.writeManifest = false;
  options.writeBench = false;
  const campaign::CampaignResult result =
      campaign::CampaignRunner{options}.run(spec);
  ASSERT_EQ(result.cells.size(), 2u);
  // No attacker: nothing confirmed, a handful of detection packets.
  EXPECT_EQ(result.cells[0].detected, 0u);
  EXPECT_EQ(result.cells[0].falsePositives, 0u);
  EXPECT_GE(result.cells[0].packetsMin, 1u);
  // Single black hole in the reporter's cluster: confirmed.
  EXPECT_EQ(result.cells[1].detected, 1u);
  EXPECT_GE(result.cells[1].packetsMin, result.cells[0].packetsMin);
}

}  // namespace
}  // namespace blackdp
