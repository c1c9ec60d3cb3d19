#include "soak/epoch_soak.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <system_error>
#include <utility>

#include "codec/checkpoint.hpp"
#include "common/ids.hpp"
#include "obs/json.hpp"

namespace blackdp::soak {

namespace {

void narrate(std::ostream* log, const std::string& line) {
  if (log != nullptr) *log << line << '\n';
}

/// Atomically rewrites the manifest — call strictly AFTER the checkpoint
/// file itself landed.
common::Status writeManifest(const std::string& checkpointDir,
                             const std::vector<ManifestEntry>& entries) {
  std::string text;
  for (const ManifestEntry& entry : entries) {
    text += "{\"epoch\":";
    obs::appendJsonNumber(text, entry.epoch);
    text += ",\"file\":";
    obs::appendJsonString(text, entry.file);
    text += ",\"bytes\":";
    obs::appendJsonNumber(text, entry.bytes);
    text += ",\"crc32\":";
    obs::appendJsonNumber(text, entry.crc32);
    text += ",\"seed\":";
    obs::appendJsonNumber(text, entry.seed);
    text += "}\n";
  }
  return codec::writeFileAtomic(
      manifestPath(checkpointDir),
      {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

/// Restores `world` from the checkpoint at `path` once the file matches its
/// manifest entry (seed, size, CRC), so a torn or swapped checkpoint is
/// caught with a precise message. Returns the problem, "" once restored.
std::string restoreFrom(const SoakWorld& spec, const ManifestEntry& entry,
                        const std::string& path, EpochWorld& world) {
  if (entry.seed != spec.seed) {
    return "manifest seed " + std::to_string(entry.seed) +
           " != configured seed " + std::to_string(spec.seed);
  }
  const auto blob = codec::readFile(path);
  if (!blob.ok()) return path + ": " + blob.error().detail;
  if (blob.value().size() != entry.bytes) {
    return path + ": size " + std::to_string(blob.value().size()) +
           " != manifest bytes " + std::to_string(entry.bytes);
  }
  if (codec::crc32(blob.value()) != entry.crc32) {
    return path + ": CRC mismatch vs manifest";
  }
  const common::Status restored = world.restore(blob.value());
  if (!restored.ok()) {
    return path + ": " + restored.error().code + ": " +
           restored.error().detail;
  }
  return {};
}

std::string replayLine(const SoakWorld& spec, std::uint64_t epochs) {
  return "replay: soak_run " + spec.replay + " --epochs " +
         std::to_string(epochs);
}

CheckpointedSoakResult runOnce(const SoakWorld& spec,
                               const CheckpointedSoakOptions& options) {
  CheckpointedSoakResult result;
  const auto fail = [&result](std::uint64_t epoch, const char* invariant,
                              std::string detail) {
    result.violations.push_back({epoch, invariant, std::move(detail)});
    return result;
  };
  const std::string tag = "[" + spec.name + "-soak] ";
  const std::string& dir = options.checkpointDir;
  if (options.checkpointEvery > 0 || options.resume) {
    if (dir.empty()) {
      return fail(0, "checkpoint-write",
                  "checkpointDir is required when checkpointing or resuming");
    }
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) return fail(0, "checkpoint-write", dir + ": " + ec.message());
  }

  const std::unique_ptr<EpochWorld> world = spec.build();
  std::vector<ManifestEntry> manifest;
  if (options.resume) {
    manifest = readManifest(dir);
    if (manifest.empty()) {
      return fail(0, "checkpoint-resume", "no usable manifest entry in " + dir);
    }
    const std::string path = dir + "/" + manifest.back().file;
    std::string problem = restoreFrom(spec, manifest.back(), path, *world);
    if (!problem.empty()) {
      return fail(manifest.back().epoch, "checkpoint-resume",
                  std::move(problem));
    }
    result.lastCheckpointPath = path;
    narrate(options.log, tag + "resumed at epoch " +
                             std::to_string(world->nextEpoch()) + " from " +
                             path);
  }
  result.startEpoch = world->nextEpoch();

  const std::uint64_t target =
      options.stopAfter > 0 ? std::min(options.epochs, options.stopAfter)
                            : options.epochs;

  while (world->nextEpoch() < target) {
    const std::uint64_t epoch = world->nextEpoch();
    world->runEpoch();

    const std::vector<std::string> broken = world->checkInvariants();
    for (const std::string& b : broken) {
      fail(epoch, "invariant", b + " (" + replayLine(spec, epoch + 1) + ")");
    }
    if (!broken.empty()) break;  // fail fast: these are hard invariants

    const std::uint64_t done = world->nextEpoch();
    if (options.checkpointEvery > 0 && done % options.checkpointEvery == 0) {
      const common::Bytes blob = world->save();
      char file[32];
      std::snprintf(file, sizeof file, "ckpt-%06llu.bdpc",
                    static_cast<unsigned long long>(done));
      const std::string path = dir + "/" + file;
      if (const auto wrote = codec::writeFileAtomic(path, blob); !wrote.ok()) {
        fail(done, "checkpoint-write", path + ": " + wrote.error().detail);
        break;
      }
      manifest.push_back(
          {done, file, blob.size(), codec::crc32(blob), spec.seed});
      // Manifest strictly after the checkpoint file: a kill between the two
      // leaves the manifest pointing at the previous complete checkpoint.
      if (const auto wrote = writeManifest(dir, manifest); !wrote.ok()) {
        fail(done, "checkpoint-write", "manifest: " + wrote.error().detail);
        break;
      }
      result.lastCheckpointPath = path;
      narrate(options.log, tag + "epoch " + std::to_string(done) + "/" +
                               std::to_string(options.epochs) +
                               " checkpoint " + file + " (" +
                               std::to_string(blob.size()) + " bytes)");
    } else if (done % 100 == 0) {
      narrate(options.log, tag + "epoch " + std::to_string(done) + "/" +
                               std::to_string(options.epochs));
    }
  }

  result.endEpoch = world->nextEpoch();
  result.surfaces = world->surfaces();
  if (options.stopAfter > 0 && result.endEpoch < options.epochs &&
      result.violations.empty()) {
    narrate(options.log, tag + "stopped after epoch " +
                             std::to_string(result.endEpoch) +
                             " (emulated kill)");
  }
  return result;
}

CheckpointedSoakResult runChaos(const SoakWorld& spec,
                                const CheckpointedSoakOptions& options) {
  CheckpointedSoakResult result;
  const std::uint64_t every =
      options.checkpointEvery > 0 ? options.checkpointEvery : 1;
  if (options.epochs <= every || options.checkpointDir.empty()) {
    result.violations.push_back(
        {0, "kill-resume-identity",
         "chaos mode needs a checkpointDir and epochs > checkpointEvery, so "
         "a checkpoint exists before every kill"});
    return result;
  }

  // Uninterrupted reference run: its surfaces are the ground truth every
  // kill/resume cycle must reproduce byte for byte.
  CheckpointedSoakOptions reference;
  reference.epochs = options.epochs;
  reference.log = options.log;
  result = runOnce(spec, reference);
  if (!result.passed()) return result;

  for (std::uint64_t kill = 0; kill < options.chaosKills; ++kill) {
    // Hashed kill epoch in [every, epochs-1]: at least one checkpoint lands
    // before the kill (the kill may still fall between checkpoints, so the
    // resume re-runs the uncheckpointed tail) and at least one epoch runs
    // after the resume.
    const std::uint64_t h =
        common::mixAddress(spec.seed ^ ((kill + 1) * 0x9e3779b97f4a7c15ull));
    const std::uint64_t killEpoch = every + h % (options.epochs - every);
    narrate(options.log, "[" + spec.name + "-soak] chaos kill " +
                             std::to_string(kill + 1) + "/" +
                             std::to_string(options.chaosKills) +
                             " at epoch " + std::to_string(killEpoch));

    CheckpointedSoakOptions cycle = reference;
    cycle.checkpointEvery = every;
    cycle.checkpointDir =
        options.checkpointDir + "/kill-" + std::to_string(kill);
    cycle.stopAfter = killEpoch;
    CheckpointedSoakResult run = runOnce(spec, cycle);
    if (run.passed()) {
      cycle.resume = true;
      cycle.stopAfter = 0;
      run = runOnce(spec, cycle);
    }
    if (!run.passed()) {
      result.violations = run.violations;
      return result;
    }
    if (run.surfaces != result.surfaces) {
      result.violations.push_back(
          {killEpoch, "kill-resume-identity",
           "resumed surfaces differ from the uninterrupted run (" +
               replayLine(spec, options.epochs) + " --checkpoint-every " +
               std::to_string(every) + " --stop-after " +
               std::to_string(killEpoch) + ", then --resume)"});
      return result;
    }
    ++result.chaosCycles;
  }
  return result;
}

/// The contract methods both worlds spell alike; each world adds how it
/// runs an epoch and what its surfaces are.
template <typename World>
class WorldAdapter : public EpochWorld {
 public:
  template <typename... Args>
  explicit WorldAdapter(Args&&... args) : world_{std::forward<Args>(args)...} {}

  std::uint64_t nextEpoch() const override { return world_.nextEpoch(); }
  common::Bytes save() override { return world_.saveCheckpoint(); }
  common::Status restore(std::span<const std::uint8_t> blob) override {
    return world_.restoreCheckpoint(blob);
  }
  std::vector<std::string> checkInvariants() const override {
    return world_.checkInvariants();
  }

 protected:
  World world_;
};

/// The stream detector service, recording its d_req trace when asked to.
class StreamEpochWorld final : public WorldAdapter<scenario::StreamWorld> {
 public:
  StreamEpochWorld(const scenario::StreamConfig& config, std::ostream* trace)
      : WorldAdapter{config}, trace_{trace} {}

  void runEpoch() override {
    const std::uint64_t epoch = world_.nextEpoch();
    const std::vector<scenario::InjectionSpec> specs = world_.planEpoch(epoch);
    if (trace_ != nullptr) {
      for (const scenario::InjectionSpec& spec : specs) {
        std::string line;
        scenario::appendInjectionJson(line, epoch, spec);
        *trace_ << line << '\n';
      }
    }
    world_.runEpochFromSpecs(specs);
  }
  Surfaces surfaces() override { return {world_.metrics().toJson(), {}}; }

 private:
  std::ostream* trace_;
};

/// The sharded corridor.
class CorridorEpochWorld final : public WorldAdapter<scenario::CorridorWorld> {
 public:
  using WorldAdapter::WorldAdapter;

  void runEpoch() override { world_.step(); }
  Surfaces surfaces() override {
    world_.finish();
    return {world_.metricsJson(), world_.canonicalLog()};
  }
};

}  // namespace

std::string manifestPath(const std::string& checkpointDir) {
  return checkpointDir + "/manifest.jsonl";
}

std::vector<ManifestEntry> readManifest(const std::string& checkpointDir) {
  std::vector<ManifestEntry> entries;
  std::ifstream in{manifestPath(checkpointDir)};  // absent: no entries
  std::string line;
  while (std::getline(in, line)) {
    const auto object = obs::FlatJsonObject::parse(line);
    if (!object) continue;  // torn trailing line from a kill mid-write
    const auto epoch = object->u64("epoch");
    const auto file = object->string("file");
    const auto bytes = object->u64("bytes");
    const auto crc = object->u64("crc32");
    const auto seed = object->u64("seed");
    if (!epoch || !file || !bytes || !crc || !seed) continue;
    entries.push_back({*epoch, std::string{*file}, *bytes, *crc, *seed});
  }
  return entries;
}

CheckpointedSoakResult runCheckpointedSoak(
    const SoakWorld& world, const CheckpointedSoakOptions& options) {
  if (options.chaosKills > 0) return runChaos(world, options);
  return runOnce(world, options);
}

SoakWorld streamSoakWorld(const scenario::StreamConfig& config,
                          std::ostream* trace) {
  return {"stream", config.seed,
          "--stream --stream-seed " + std::to_string(config.seed) +
              " --clusters " + std::to_string(config.clusters) +
              " --dreqs-per-epoch " + std::to_string(config.dreqsPerEpoch),
          [config, trace] {
            return std::make_unique<StreamEpochWorld>(config, trace);
          }};
}

SoakWorld corridorSoakWorld(const scenario::CorridorConfig& config,
                            std::uint32_t shards, sim::ThreadPool& pool) {
  return {"megacity", config.seed,
          "--megacity --megacity-seed " + std::to_string(config.seed) +
              " --segments " + std::to_string(config.segments) +
              " --vehicles " + std::to_string(config.vehicles) +
              " --shards " + std::to_string(shards),
          [config, shards, &pool] {
            return std::make_unique<CorridorEpochWorld>(config, shards, pool);
          }};
}

}  // namespace blackdp::soak
