// Chaos-soak driver, plus the checkpointed epoch soaks.
//
//   soak_run --seconds 30                 # randomized soak within a budget
//   soak_run --seconds 30 --jobs 8        # parallel trials
//   soak_run --trials 12                  # fixed trial count instead
//   soak_run --seed 42 --trial 7          # replay exactly one trial
//   soak_run --inject-violation ...       # prove the harness catches bugs
//
// Checkpointed epoch soaks (one driver for both worlds; see
// src/soak/epoch_soak.hpp): --stream runs the detector service (continuous
// d_req ingest, memory-watermark invariants), --megacity the sharded
// corridor (honest-isolation and tables-drained invariants). Both read the
// same checkpoint, kill and chaos flags:
//
//   soak_run --stream --epochs 600                       # 10-sim-minute flood
//   soak_run --stream --epochs 40 --checkpoint-every 10
//            --checkpoint-dir ckpts --json metrics.json  # checkpointed run
//   soak_run --stream ... --stop-after 25                # emulated kill
//   soak_run --stream ... --resume                       # continue from ckpt
//   soak_run --stream ... --chaos-kills 3                # kill/resume chaos
//   soak_run --stream ... --trace trace.jsonl            # record d_req trace
//   soak_run --megacity --segments 8 --vehicles 800 --shards 4 --epochs 6
//            --checkpoint-every 2 --checkpoint-dir ckpts   # checkpointed run
//   soak_run --megacity ... --surfaces-out surfaces.txt    # byte-compare file
//
// A flag the chosen mode does not read is a usage error (exit 2). On any
// invariant violation the process prints one replay line per violation and
// exits 1. Replays are pure functions of the seed: one thread, any machine,
// same violation.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_io.hpp"
#include "scenario/corridor_world.hpp"
#include "scenario/stream_world.hpp"
#include "sim/parallel.hpp"
#include "soak/epoch_soak.hpp"
#include "soak/soak_runner.hpp"

namespace {

/// The modes of the tool, as bits: a flag records the modes that read it.
enum Mode : unsigned { kChaos = 1u, kStream = 2u, kMegacity = 4u };
constexpr unsigned kEpochModes = kStream | kMegacity;

int usage(const std::string& problem) {
  std::cerr << problem << "\n"
            << "usage: soak_run [--seconds N] [--trials N] [--seed S] "
               "[--jobs J] [--trial K] [--trace FILE] [--inject-violation] "
               "[--quiet]\n"
               "   or: soak_run --stream [--stream-seed S] [--clusters C] "
               "[--dreqs-per-epoch D] [--trace FILE] EPOCH-FLAGS\n"
               "   or: soak_run --megacity [--megacity-seed S] [--segments N] "
               "[--vehicles V] [--shards P] [--jobs J] EPOCH-FLAGS\n"
               "EPOCH-FLAGS: [--epochs N] [--checkpoint-every K] "
               "[--checkpoint-dir DIR] [--resume] [--stop-after E] "
               "[--chaos-kills C] [--json FILE] [--surfaces-out FILE] "
               "[--quiet]\n";
  return 2;
}

bool writeText(const std::string& path, const std::string& text) {
  std::ofstream out{path, std::ios::trunc};
  if (out << text) return true;
  std::cerr << "cannot write " << path << "\n";
  return false;
}

int runEpochMode(const blackdp::soak::SoakWorld& world,
                 const blackdp::soak::CheckpointedSoakOptions& options,
                 const std::string& jsonPath,
                 const std::string& surfacesPath) {
  const blackdp::soak::CheckpointedSoakResult result =
      blackdp::soak::runCheckpointedSoak(world, options);
  for (const blackdp::soak::EpochViolation& v : result.violations) {
    std::cout << "VIOLATION [" << v.invariant << "] epoch " << v.epoch << ": "
              << v.detail << "\n";
  }
  const blackdp::soak::Surfaces& surfaces = result.surfaces;
  if (!jsonPath.empty() && !writeText(jsonPath, surfaces.metricsJson + "\n")) {
    return 2;
  }
  // Both surfaces in one file, so CI can byte-compare a resumed run against
  // an uninterrupted one with a single cmp.
  if (!surfacesPath.empty() &&
      !writeText(surfacesPath, surfaces.metricsJson + "\n" + surfaces.log)) {
    return 2;
  }
  if (!result.passed()) {
    std::cout << world.name << " soak FAIL: " << result.violations.size()
              << " violation(s).\n";
    return 1;
  }
  std::cout << world.name << " soak PASS: epochs " << result.startEpoch
            << ".." << result.endEpoch;
  if (result.chaosCycles > 0) {
    std::cout << ", " << result.chaosCycles
              << " kill/resume cycles byte-identical";
  }
  std::cout << ", all invariants held.\n";
  if (!result.lastCheckpointPath.empty()) {
    std::cout << "last checkpoint: " << result.lastCheckpointPath << "\n";
  }
  return 0;
}

void printViolations(const blackdp::soak::SoakRunner& runner,
                     const std::vector<blackdp::soak::SoakViolation>& violations,
                     bool injected) {
  for (const blackdp::soak::SoakViolation& v : violations) {
    std::cout << "VIOLATION [" << v.invariant << "] trial " << v.trialIndex
              << " (seed " << v.trialSeed << "): " << v.detail << "\n"
              << "  replay: soak_run --seed "
              << runner.options().masterSeed << " --trial " << v.trialIndex
              << (injected ? " --inject-violation" : "") << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  blackdp::soak::SoakOptions options;
  options.log = &std::cout;
  std::optional<std::uint64_t> replayTrial;
  std::string tracePath;

  blackdp::scenario::StreamConfig stream;
  blackdp::scenario::CorridorConfig corridor;
  std::uint32_t shards = 4;
  std::optional<std::uint64_t> epochs;
  blackdp::soak::CheckpointedSoakOptions epochOptions;
  epochOptions.log = &std::cout;
  std::string jsonPath;
  std::string surfacesPath;

  unsigned mode = kChaos;
  std::vector<std::pair<std::string, unsigned>> given;  // flag, its readers
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    const auto u64 = [&] { return std::strtoull(value(), nullptr, 10); };
    const auto u32 = [&] {
      return static_cast<std::uint32_t>(std::strtoul(value(), nullptr, 10));
    };
    unsigned readers = kEpochModes;
    if (arg == "--stream") {
      mode = readers = kStream;
    } else if (arg == "--megacity") {
      mode = readers = kMegacity;
    } else if (arg == "--epochs") {
      epochs = u64();
    } else if (arg == "--checkpoint-every") {
      epochOptions.checkpointEvery = u64();
    } else if (arg == "--checkpoint-dir") {
      epochOptions.checkpointDir = value();
    } else if (arg == "--resume") {
      epochOptions.resume = true;
    } else if (arg == "--stop-after") {
      epochOptions.stopAfter = u64();
    } else if (arg == "--chaos-kills") {
      epochOptions.chaosKills = u64();
    } else if (arg == "--json") {
      jsonPath = value();
    } else if (arg == "--surfaces-out") {
      surfacesPath = value();
    } else if (arg == "--stream-seed") {
      stream.seed = u64();
      readers = kStream;
    } else if (arg == "--clusters") {
      stream.clusters = u32();
      readers = kStream;
    } else if (arg == "--dreqs-per-epoch") {
      stream.dreqsPerEpoch = u32();
      readers = kStream;
    } else if (arg == "--megacity-seed") {
      corridor.seed = u64();
      readers = kMegacity;
    } else if (arg == "--segments") {
      corridor.segments = u32();
      readers = kMegacity;
    } else if (arg == "--vehicles") {
      corridor.vehicles = u32();
      readers = kMegacity;
    } else if (arg == "--shards") {
      shards = u32();
      readers = kMegacity;
    } else if (arg == "--jobs") {
      options.jobs = u32();
      readers = kChaos | kMegacity;
    } else if (arg == "--trace") {
      tracePath = value();
      readers = kChaos | kStream;
    } else if (arg == "--quiet") {
      options.log = nullptr;
      epochOptions.log = nullptr;
      readers = kChaos | kEpochModes;
    } else if (arg == "--seconds") {
      options.wallClockBudgetS = std::strtod(value(), nullptr);
      readers = kChaos;
    } else if (arg == "--trials") {
      options.maxTrials = u64();
      options.wallClockBudgetS = 1e9;  // trial count is the stop condition
      readers = kChaos;
    } else if (arg == "--seed") {
      options.masterSeed = u64();
      readers = kChaos;
    } else if (arg == "--trial") {
      replayTrial = u64();
      readers = kChaos;
    } else if (arg == "--inject-violation") {
      options.injectViolation = true;
      readers = kChaos;
    } else {
      return usage("unknown argument: " + arg);
    }
    given.emplace_back(arg, readers);
  }
  const char* modeName = mode == kStream     ? "--stream"
                         : mode == kMegacity ? "--megacity"
                                             : "the chaos soak";
  for (const auto& [flag, readers] : given) {
    if ((readers & mode) == 0) {
      return usage(flag + " does not apply to " + modeName);
    }
  }
  epochOptions.epochs = epochs.value_or(mode == kMegacity ? 8 : 40);
  if (epochOptions.chaosKills > 0 &&
      (epochOptions.resume || epochOptions.stopAfter > 0 ||
       !tracePath.empty())) {
    return usage("--chaos-kills runs its own kills and resumes; it does not "
                 "combine with --resume, --stop-after or --trace");
  }

  if (mode == kStream) {
    std::ofstream trace;
    if (!tracePath.empty()) {
      trace.open(tracePath,
                 epochOptions.resume ? std::ios::app : std::ios::trunc);
      if (!trace) {
        std::cerr << "cannot write trace to " << tracePath << "\n";
        return 2;
      }
    }
    return runEpochMode(
        blackdp::soak::streamSoakWorld(stream,
                                       trace.is_open() ? &trace : nullptr),
        epochOptions, jsonPath, surfacesPath);
  }
  if (mode == kMegacity) {
    const blackdp::sim::ParallelRunner runner{options.jobs};
    return runEpochMode(blackdp::soak::corridorSoakWorld(
                            corridor, shards, runner.threadPool()),
                        epochOptions, jsonPath, surfacesPath);
  }

  const blackdp::soak::SoakRunner runner{options};

  if (replayTrial) {
    std::vector<blackdp::obs::TraceEvent> trace;
    const blackdp::soak::SoakTrialReport report = runner.runTrial(
        *replayTrial, tracePath.empty() ? nullptr : &trace);
    std::cout << "replaying trial " << report.trialIndex << " (seed "
              << report.trialSeed << "): " << report.description << "\n";
    if (!tracePath.empty()) {
      std::ofstream out{tracePath, std::ios::trunc};
      if (!out) {
        std::cerr << "cannot write trace to " << tracePath << "\n";
        return 2;
      }
      blackdp::obs::writeJsonl(trace, out);
      std::cout << "trace (" << trace.size() << " events) written to "
                << tracePath << "\n";
    }
    printViolations(runner, report.violations, options.injectViolation);
    if (report.violations.empty()) {
      std::cout << "all invariants held.\n";
      return 0;
    }
    return 1;
  }

  const blackdp::soak::SoakResult result = runner.run();
  printViolations(runner, result.violations, options.injectViolation);
  if (result.passed()) {
    std::cout << "soak PASS: " << result.trialsRun
              << " randomized trial(s), all invariants held.\n";
    return 0;
  }
  std::cout << "soak FAIL: " << result.violations.size()
            << " violation(s) across " << result.trialsRun << " trial(s).\n";
  return 1;
}
