#include "campaign/runner.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "codec/checkpoint.hpp"
#include "common/assert.hpp"
#include "core/telemetry.hpp"
#include "obs/bench_json.hpp"
#include "scenario/highway_scenario.hpp"
#include "sim/thread_pool.hpp"

namespace blackdp::campaign {

namespace {

TrialRecord runDetectionTrial(const Treatment& treatment, TrialRecord record) {
  scenario::ScenarioConfig config = treatment.config.scenario;
  config.seed = record.seed;

  scenario::HighwayScenario world(config);
  const core::VerificationReport report = world.runVerification(
      static_cast<int>(treatment.config.verifyRounds));
  const scenario::DetectionSummary summary = world.detectionSummary();

  const scenario::VehicleEntity* attacker = world.primaryAttacker();
  record.attackLaunched = attacker != nullptr && attacker->attacker != nullptr &&
                          attacker->attacker->attackStats().rrepsForged > 0;
  record.confirmedOnAttacker = summary.confirmedOnAttacker;
  record.falsePositive = summary.falsePositive;
  record.detectionPackets = summary.packetsUsed;
  record.verdict = std::string{core::toString(summary.verdict)};
  record.framesDelivered = world.medium().stats().framesDelivered;

  obs::MetricsRegistry local;
  core::recordVerifierTelemetry(local, report);
  for (const core::SessionRecord& session : summary.sessions) {
    core::recordSessionTelemetry(local, session);
  }
  record.telemetry = local.snapshot();
  return record;
}

/// One scripted Fig. 5 placement (paper §IV-C): the treatment's attack and
/// placement knobs on a fresh Table-I world, one d_req against the placed
/// suspect, and the detection packets of the session that finishes on it.
TrialRecord runFig5Trial(const Treatment& treatment, TrialRecord record) {
  const scenario::AttackType attack = treatment.config.scenario.attack;
  const Fig5Knobs& placement = treatment.config.fig5;

  scenario::ScenarioConfig config;
  config.seed = record.seed;
  // Deterministic frame ordering: the flee scenarios rely on the leaving
  // notice arriving before the forged reply.
  config.medium.maxJitter = sim::Duration{};
  config.attack = attack;
  const common::ClusterId suspectCluster{
      placement.suspectInReporterCluster ? 1u : 2u};
  config.attackerCluster = suspectCluster;
  // Scripted placements: no random evasion, only the forced flee.
  config.evasion.firstEvasiveCluster = 99;
  if (placement.flees) {
    config.forcedFleeMode =
        static_cast<int>(attack::FleeMode::kAfterFirstReply);
  }

  scenario::HighwayScenario world(config);
  world.runFor(sim::Duration::milliseconds(500));

  common::Address suspect{};
  common::ClusterId reportedCluster = suspectCluster;
  if (attack == scenario::AttackType::kNone) {
    const common::ClusterId honestCluster{
        placement.suspectInReporterCluster ? 1u : 3u};
    reportedCluster = honestCluster;
    scenario::VehicleEntity* honest = world.findHonestVehicleIn(honestCluster);
    BDP_ASSERT_MSG(honest != nullptr, "no honest vehicle in target cluster");
    suspect = honest->address();
  } else {
    suspect = world.primaryAttacker()->address();
  }

  world.injectDetectionRequest(world.source(), suspect, reportedCluster);

  const auto findSession = [&]() -> const core::SessionRecord* {
    for (auto& rsu : world.rsus()) {
      for (const core::SessionRecord& session :
           rsu->detector->completedSessions()) {
        if (session.suspect == suspect) return &session;
      }
    }
    return nullptr;
  };
  const bool finished = world.runUntil(
      [&] { return findSession() != nullptr; }, sim::Duration::seconds(30));
  BDP_ASSERT_MSG(finished, "detection session did not complete");
  const core::SessionRecord& session = *findSession();

  const bool confirmed = session.verdict == core::Verdict::kSingleBlackHole ||
                         session.verdict == core::Verdict::kCooperativeBlackHole;
  const bool attackPresent = attack != scenario::AttackType::kNone;
  record.attackLaunched = attackPresent;
  record.confirmedOnAttacker = attackPresent && confirmed;
  record.falsePositive = !attackPresent && confirmed;
  record.detectionPackets = session.packetsUsed;
  record.verdict = std::string{core::toString(session.verdict)};

  obs::MetricsRegistry local;
  core::recordSessionTelemetry(local, session);
  record.telemetry = local.snapshot();
  return record;
}

/// Folds one trial's outcome into its treatment cell (same grading as the
/// pre-campaign sensitivity sweep: launched→TP/FN, unlaunched→TN, plus FP).
void gradeInto(TreatmentCell& cell, const TrialRecord& record) {
  if (cell.trials == 0) {
    cell.packetsMin = record.detectionPackets;
    cell.packetsMax = record.detectionPackets;
  } else {
    cell.packetsMin = std::min(cell.packetsMin, record.detectionPackets);
    cell.packetsMax = std::max(cell.packetsMax, record.detectionPackets);
  }
  ++cell.trials;
  if (record.confirmedOnAttacker) ++cell.detected;
  if (record.attackLaunched) {
    ++cell.attacksLaunched;
    if (record.confirmedOnAttacker) {
      cell.matrix.addTruePositive();
    } else {
      cell.matrix.addFalseNegative();
    }
  } else {
    cell.matrix.addTrueNegative();
  }
  if (record.falsePositive) {
    ++cell.falsePositives;
    cell.matrix.addFalsePositive();
  }
}

[[noreturn]] void fail(const CampaignSpec& spec, const std::string& what) {
  throw std::runtime_error("campaign " + spec.name + ": " + what);
}

/// Verifies a resumed manifest against the freshly expanded spec: a changed
/// spec (different matrix shape, hashes, or seeds) is an error, never a
/// silent partial rerun over stale rows.
void checkResumedManifest(const CampaignSpec& spec,
                          const std::vector<Treatment>& treatments,
                          const ManifestContents& contents,
                          std::uint64_t totalTrials) {
  const ManifestHeader& header = contents.header;
  if (header.campaign != spec.name ||
      header.experiment != toString(spec.experiment) ||
      header.seed != spec.seed || header.trials != spec.trials ||
      header.treatments != treatments.size()) {
    fail(spec, "manifest header does not match the spec (was the spec "
               "edited since the interrupted run?)");
  }
  for (const TrialRecord& row : contents.rows) {
    if (row.trial >= totalTrials ||
        row.treatment != row.trial / spec.trials ||
        row.rep != row.trial % spec.trials) {
      fail(spec, "manifest row " + std::to_string(row.trial) +
                     " has inconsistent matrix coordinates");
    }
    const Treatment& treatment = treatments[row.treatment];
    if (row.configHash != treatment.configHash) {
      fail(spec, "manifest row " + std::to_string(row.trial) +
                     " config hash " + row.configHash +
                     " != spec treatment hash " + treatment.configHash);
    }
    if (row.seed != trialSeed(spec, treatment, row.rep)) {
      fail(spec, "manifest row " + std::to_string(row.trial) +
                     " seed does not match the derivation contract");
    }
  }
}

}  // namespace

TrialRecord runTrial(const CampaignSpec& spec, const Treatment& treatment,
                     std::uint32_t rep) {
  TrialRecord record;
  record.trial = trialId(spec, treatment.index, rep);
  record.treatment = treatment.index;
  record.rep = rep;
  record.seed = trialSeed(spec, treatment, rep);
  record.configHash = treatment.configHash;
  record.label = treatment.label;
  switch (spec.experiment) {
    case ExperimentKind::kDetection:
      return runDetectionTrial(treatment, std::move(record));
    case ExperimentKind::kFig5:
      return runFig5Trial(treatment, std::move(record));
  }
  BDP_ASSERT_MSG(false, "unknown experiment kind");
  return record;
}

CampaignRunner::CampaignRunner(CampaignOptions options)
    : options_{std::move(options)} {}

CampaignResult CampaignRunner::run(const CampaignSpec& spec) const {
  const obs::BenchTimer timer;

  std::string error;
  const std::optional<std::vector<Treatment>> treatments =
      expandTreatments(spec, &error);
  if (!treatments) fail(spec, error);

  CampaignResult result;
  result.trialsTotal =
      static_cast<std::uint64_t>(treatments->size()) * spec.trials;
  result.cells.reserve(treatments->size());
  for (const Treatment& treatment : *treatments) {
    TreatmentCell cell;
    cell.treatment = treatment;
    result.cells.push_back(std::move(cell));
  }
  if (options_.dryRun) return result;

  std::string outDir = options_.outDir;
  if (outDir.empty()) {
    const char* env = std::getenv("BLACKDP_BENCH_OUT");
    if (env != nullptr && *env != '\0') outDir = env;
  }
  if (outDir.empty()) outDir = ".";
  if (options_.writeManifest || options_.writeBench) {
    std::error_code ec;
    std::filesystem::create_directories(outDir, ec);
    if (ec) {
      fail(spec, "cannot create output directory " + outDir + ": " +
                     ec.message());
    }
  }
  const std::string manifestPath =
      outDir + "/" + spec.name + ".manifest.jsonl";

  // --resume: fold previously recorded trials back in instead of rerunning.
  std::map<std::uint64_t, TrialRecord> resumed;
  if (options_.resume) {
    std::string readError;
    const std::optional<ManifestContents> contents =
        readManifest(manifestPath, &readError);
    if (!contents && !readError.empty()) fail(spec, readError);
    if (contents) {
      checkResumedManifest(spec, *treatments, *contents, result.trialsTotal);
      for (const TrialRecord& row : contents->rows) {
        if (!resumed.emplace(row.trial, row).second) {
          fail(spec, "manifest repeats trial " + std::to_string(row.trial));
        }
      }
    }
  }

  std::vector<std::uint64_t> remaining;
  remaining.reserve(result.trialsTotal - resumed.size());
  for (std::uint64_t id = 0; id < result.trialsTotal; ++id) {
    if (resumed.find(id) == resumed.end()) remaining.push_back(id);
  }
  result.trialsResumed = resumed.size();
  result.trialsRun = remaining.size();

  if (options_.log != nullptr) {
    *options_.log << "campaign " << spec.name << ": " << treatments->size()
                  << " treatments x " << spec.trials << " trials ("
                  << result.trialsResumed << " resumed, " << result.trialsRun
                  << " to run)\n";
  }

  // Stream rows in trial-id order as workers finish; resumed rows ride in
  // the preamble so an interruption at any point leaves a resumable prefix.
  std::optional<ManifestWriter> writer;
  if (options_.writeManifest) {
    std::string preamble = manifestHeaderLine(spec, treatments->size());
    preamble += '\n';
    for (const auto& [id, row] : resumed) {
      preamble += manifestRowLine(row);
      preamble += '\n';
    }
    writer.emplace(manifestPath, preamble, remaining);
  }

  sim::ThreadPool pool{sim::resolveJobCount(options_.jobs)};
  const std::vector<TrialRecord> fresh = pool.map<TrialRecord>(
      remaining.size(), [&](std::size_t i) {
        const std::uint64_t id = remaining[i];
        const auto treatment = static_cast<std::uint32_t>(id / spec.trials);
        const auto rep = static_cast<std::uint32_t>(id % spec.trials);
        TrialRecord record = runTrial(spec, (*treatments)[treatment], rep);
        BDP_ASSERT_MSG(record.trial == id, "trial id drift");
        if (writer) writer->add(id, manifestRowLine(record));
        return record;
      });

  // Fold — resumed and fresh alike — in trial-id order, so the aggregate is
  // independent of worker count and of where any interruption happened.
  std::vector<const TrialRecord*> ordered(result.trialsTotal, nullptr);
  for (const auto& [id, row] : resumed) ordered[id] = &row;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    ordered[remaining[i]] = &fresh[i];
  }

  obs::MetricsRegistry registry;
  for (const TrialRecord* record : ordered) {
    BDP_ASSERT_MSG(record != nullptr, "trial missing from fold");
    registry.merge(record->telemetry);
    result.framesDelivered += record->framesDelivered;
    gradeInto(result.cells[record->treatment], *record);
  }
  for (const TreatmentCell& cell : result.cells) {
    const std::string prefix = spec.name + "." + cell.treatment.label;
    obs::addConfusion(registry, prefix, cell.matrix);
    registry.counter(prefix + ".attacks_launched").add(cell.attacksLaunched);
    if (spec.experiment == ExperimentKind::kFig5) {
      registry.gauge(prefix + ".packets_min").set(cell.packetsMin);
      registry.gauge(prefix + ".packets_max").set(cell.packetsMax);
    }
  }
  registry.counter("campaign.trials").add(result.trialsTotal);
  registry.counter("campaign.frames_delivered").add(result.framesDelivered);
  result.snapshot = registry.snapshot();

  // Canonical rewrite: after a resume the streamed file has resumed rows in
  // the preamble; rewriting in trial-id order makes the finished manifest
  // byte-identical to an uninterrupted run's. Atomic (temp + rename): the
  // manifest doubles as the campaign's resume checkpoint, so a kill during
  // the rewrite must not tear it — either the streamed resumable file or
  // the complete canonical one survives, never a prefix of the latter.
  if (options_.writeManifest) {
    writer.reset();
    std::string canonical = manifestHeaderLine(spec, treatments->size());
    canonical += '\n';
    for (const TrialRecord* record : ordered) {
      canonical += manifestRowLine(*record);
      canonical += '\n';
    }
    const common::Status wrote = codec::writeFileAtomic(
        manifestPath,
        {reinterpret_cast<const std::uint8_t*>(canonical.data()),
         canonical.size()});
    if (!wrote.ok()) {
      fail(spec, "cannot rewrite manifest " + manifestPath + ": " +
                     wrote.error().detail);
    }
    result.manifestPath = manifestPath;
  }

  if (options_.writeBench) {
    // Pinned: no wall clock and no jobs, so identical across --jobs values.
    const obs::BenchRunInfo info =
        options_.pinSidecar
            ? obs::BenchRunInfo{}
            : timer.info(result.framesDelivered).recordJobs(pool.workers());
    result.benchPath =
        obs::writeBenchJson(spec.name, result.snapshot, info, outDir);
  }
  return result;
}

}  // namespace blackdp::campaign
