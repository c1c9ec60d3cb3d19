// One soak driver, three worlds, plus the one-trial replay.
//
// Every mode runs epoch by epoch through soak::runCheckpointedSoak
// (src/soak/epoch_soak.hpp) and reads the same epoch flags: the chaos soak
// (default; 16 randomized adversarial trials per epoch over --jobs
// workers), --stream the detector service (continuous d_req ingest,
// memory-watermark invariants), --megacity the sharded corridor
// (honest-isolation and tables-drained invariants):
//
//   soak_run --epochs 100 --jobs 8                # 1,600 chaos trials
//   soak_run --seed 42 --trial 7 [--trace F]      # replay exactly one trial
//   soak_run --epochs 1 --inject-violation        # prove the harness fails
//   soak_run --stream --epochs 600                # 10-sim-minute flood
//   soak_run --stream --epochs 40 --checkpoint-every 10
//            --checkpoint-dir ckpts --json metrics.json  # checkpointed run
//   soak_run ... --stop-after 25                  # emulated kill
//   soak_run ... --resume                         # continue from ckpt
//   soak_run ... --chaos-kills 3                  # kill/resume chaos
//   soak_run --stream ... --trace trace.jsonl     # record d_req trace
//   soak_run --megacity --segments 8 --vehicles 800 --shards 4 --epochs 6
//            --checkpoint-every 2 --checkpoint-dir ckpts   # checkpointed run
//   soak_run ... --surfaces-out surfaces.txt      # byte-compare file
//
// A flag the chosen mode does not read, or a number out of range, is a
// usage error (exit 2). Each invariant violation prints with its replay
// line, and the exit is 1. Replays are pure functions of the seed.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "number_arg.hpp"
#include "obs/trace_io.hpp"
#include "scenario/corridor_world.hpp"
#include "scenario/stream_world.hpp"
#include "sim/thread_pool.hpp"
#include "soak/chaos_soak.hpp"
#include "soak/epoch_soak.hpp"

namespace {

/// The modes of the tool, as bits: a flag records the modes that read it.
/// kReplay is --trial: one chaos trial, no epochs.
enum Mode : unsigned { kChaos = 1, kStream = 2, kMegacity = 4, kReplay = 8 };
constexpr unsigned kEpochModes = kChaos | kStream | kMegacity;

constexpr std::uint64_t kMaxCount = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kMaxSeed = std::numeric_limits<std::uint64_t>::max();

int usage(const std::string& problem) {
  std::cerr << problem << "\n"
            << "usage: soak_run [--seed S] [--inject-violation] [--jobs J] "
               "EPOCH-FLAGS\n"
               "   or: soak_run [--seed S] [--inject-violation] --trial K "
               "[--trace FILE]\n"
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

/// Reruns one chaos trial on this thread, optionally dumping its trace.
int replayTrial(const blackdp::soak::ChaosConfig& chaos, std::uint64_t trial,
                const std::string& tracePath) {
  std::vector<blackdp::obs::TraceEvent> trace;
  const blackdp::soak::SoakTrialReport report = blackdp::soak::runTrial(
      chaos, trial, tracePath.empty() ? nullptr : &trace);
  std::cout << "replaying trial " << trial << " (seed "
            << report.plan.config.seed << "): " << report.plan.description
            << "\n";
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
  for (const blackdp::soak::EpochViolation& v : report.violations) {
    std::cout << "VIOLATION "
              << blackdp::soak::describeTrialViolation(chaos, trial, v) << "\n";
  }
  if (report.violations.empty()) {
    std::cout << "all invariants held.\n";
    return 0;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  blackdp::soak::ChaosConfig chaos;
  std::uint64_t trial = 0;
  unsigned jobs = 0;
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
      if (i + 1 >= argc) std::exit(usage(arg + " needs a value"));
      return argv[++i];
    };
    const auto number = [&](std::uint64_t min, std::uint64_t max) {
      return blackdp::tools::numberArg(arg, value(), min, max, usage);
    };
    const auto count = [&] {
      return static_cast<std::uint32_t>(number(1, kMaxCount));
    };
    unsigned readers = kEpochModes;
    if (arg == "--stream") {
      mode = readers = kStream;
    } else if (arg == "--megacity") {
      mode = readers = kMegacity;
    } else if (arg == "--epochs") {
      epochs = number(1, kMaxCount);
    } else if (arg == "--checkpoint-every") {
      epochOptions.checkpointEvery = number(0, kMaxCount);
    } else if (arg == "--checkpoint-dir") {
      epochOptions.checkpointDir = value();
    } else if (arg == "--resume") {
      epochOptions.resume = true;
    } else if (arg == "--stop-after") {
      epochOptions.stopAfter = number(0, kMaxCount);
    } else if (arg == "--chaos-kills") {
      epochOptions.chaosKills = number(0, kMaxCount);
    } else if (arg == "--json") {
      jsonPath = value();
    } else if (arg == "--surfaces-out") {
      surfacesPath = value();
    } else if (arg == "--stream-seed") {
      stream.seed = number(0, kMaxSeed);
      readers = kStream;
    } else if (arg == "--clusters") {
      stream.clusters = count();
      readers = kStream;
    } else if (arg == "--dreqs-per-epoch") {
      stream.dreqsPerEpoch = count();
      readers = kStream;
    } else if (arg == "--megacity-seed") {
      corridor.seed = number(0, kMaxSeed);
      readers = kMegacity;
    } else if (arg == "--segments") {
      corridor.segments = count();
      readers = kMegacity;
    } else if (arg == "--vehicles") {
      corridor.vehicles = count();
      readers = kMegacity;
    } else if (arg == "--shards") {
      shards = count();
      readers = kMegacity;
    } else if (arg == "--jobs") {
      jobs = static_cast<unsigned>(number(0, blackdp::sim::kMaxJobs));
      readers = kChaos | kMegacity;
    } else if (arg == "--trace") {
      tracePath = value();
      readers = kReplay | kStream;
    } else if (arg == "--quiet") {
      epochOptions.log = nullptr;
    } else if (arg == "--seed") {
      chaos.seed = number(0, kMaxSeed);
      readers = kChaos | kReplay;
    } else if (arg == "--trial") {
      trial = number(0, kMaxSeed);
      mode = readers = kReplay;
    } else if (arg == "--inject-violation") {
      chaos.injectViolation = true;
      readers = kChaos | kReplay;
    } else {
      return usage("unknown argument: " + arg);
    }
    given.emplace_back(arg, readers);
  }
  const char* modeName = mode == kStream     ? "--stream"
                         : mode == kMegacity ? "--megacity"
                         : mode == kReplay   ? "--trial"
                                             : "the chaos soak without --trial";
  for (const auto& [flag, readers] : given) {
    if ((readers & mode) == 0) {
      return usage(flag + " does not apply to " + modeName);
    }
  }
  if (mode == kMegacity && shards > corridor.segments) {
    return usage("--shards must be within 1..--segments (" +
                 std::to_string(corridor.segments) + ")");
  }
  if (mode == kReplay) return replayTrial(chaos, trial, tracePath);

  epochOptions.epochs = epochs.value_or(mode == kMegacity ? 8 : 40);
  if (epochOptions.chaosKills > 0 &&
      (epochOptions.resume || epochOptions.stopAfter > 0 ||
       !tracePath.empty())) {
    return usage("--chaos-kills runs its own kills and resumes; it does not "
                 "combine with --resume, --stop-after or --trace");
  }

  std::ofstream trace;  // only --stream gets this far with a --trace
  if (!tracePath.empty()) {
    trace.open(tracePath,
               epochOptions.resume ? std::ios::app : std::ios::trunc);
    if (!trace) {
      std::cerr << "cannot write trace to " << tracePath << "\n";
      return 2;
    }
  }
  if (mode == kStream) {
    return runEpochMode(blackdp::soak::streamSoakWorld(
                            stream, trace.is_open() ? &trace : nullptr),
                        epochOptions, jsonPath, surfacesPath);
  }
  blackdp::sim::ThreadPool pool{blackdp::sim::resolveJobCount(jobs)};
  return runEpochMode(
      mode == kMegacity
          ? blackdp::soak::corridorSoakWorld(corridor, shards, pool)
          : blackdp::soak::chaosSoakWorld(chaos, pool),
      epochOptions, jsonPath, surfacesPath);
}
