// Checkpointed epoch soak: one driver for every world that can save and
// restore itself at an epoch boundary (the stream detector service and the
// sharded corridor).
//
// runCheckpointedSoak drives a world epoch by epoch. After every epoch it
// runs the world's hard invariants and fails fast on a violation, whose
// detail carries the deterministic replay line (soak_run flags + epochs).
// Every K epoch boundaries it writes a checkpoint into a checkpoint
// directory with a JSONL manifest. `resume` rebuilds the world from the
// newest manifest entry and continues, `stopAfter` emulates a kill, and
// `chaosKills` runs an uninterrupted reference and then that many
// cut-at-a-hashed-epoch + resume cycles, byte-comparing the surfaces of
// each against the reference. Because both worlds restore byte-identically,
// a resumed run's surfaces and final checkpoint equal an uninterrupted
// run's (CI pins both).
//
// Layout of a checkpoint directory:
//
//   ckpt-000010.bdpc     checkpoint envelope at epoch boundary 10
//   ckpt-000020.bdpc     ...
//   manifest.jsonl       one line per checkpoint:
//                        {"epoch":10,"file":"ckpt-000010.bdpc",
//                         "bytes":N,"crc32":C,"seed":S}
//
// Crash-consistency contract: the checkpoint file is written atomically
// (temp + rename) BEFORE the manifest is rewritten (also atomically), so a
// kill at any instant leaves the manifest pointing at a complete, verified
// checkpoint — at worst the previous one. Torn manifest lines are skipped
// on read, and a resume re-checks the entry's seed, size and CRC-32 before
// the world's restore (codec::restoreGuarded) sees the bytes.
// scripts/validate_bench_json.py re-verifies every manifest entry without
// linking the codec.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "scenario/corridor_world.hpp"
#include "scenario/stream_world.hpp"
#include "sim/thread_pool.hpp"

namespace blackdp::soak {

/// A world's deterministic output: what a resumed run must reproduce byte
/// for byte.
struct Surfaces {
  std::string metricsJson;
  std::string log;  ///< canonical event log ("" for a world without one)

  friend bool operator==(const Surfaces&, const Surfaces&) = default;
};

/// The world contract the driver is written against.
class EpochWorld {
 public:
  EpochWorld() = default;
  EpochWorld(const EpochWorld&) = delete;
  EpochWorld& operator=(const EpochWorld&) = delete;
  virtual ~EpochWorld() = default;

  /// Next epoch to run (== epochs completed so far).
  [[nodiscard]] virtual std::uint64_t nextEpoch() const = 0;
  virtual void runEpoch() = 0;
  /// A checkpoint envelope of the world at the current epoch boundary.
  [[nodiscard]] virtual common::Bytes save() = 0;
  /// Restores a save() blob into this freshly built world; on a typed
  /// error the world is to be discarded.
  [[nodiscard]] virtual common::Status restore(
      std::span<const std::uint8_t> blob) = 0;
  /// Hard invariants at an epoch boundary (empty = healthy).
  [[nodiscard]] virtual std::vector<std::string> checkInvariants() const = 0;
  /// The surfaces at exit; no epoch runs afterwards.
  [[nodiscard]] virtual Surfaces surfaces() = 0;
};

/// One kind of world: how to build it fresh, and what to call it.
struct SoakWorld {
  std::string name;       ///< "stream" / "megacity" (narration, PASS line)
  std::uint64_t seed{0};  ///< written to, and checked against, the manifest
  std::string replay;     ///< soak_run flags that rebuild it, minus --epochs
  std::function<std::unique_ptr<EpochWorld>()> build;
};

/// The stream detector service. With `trace` set, every injected d_req
/// spec is written to it as one JSONL line (tools/replay_serve input).
[[nodiscard]] SoakWorld streamSoakWorld(const scenario::StreamConfig& config,
                                        std::ostream* trace = nullptr);
/// The sharded corridor on `shards` shards, run on `pool`.
[[nodiscard]] SoakWorld corridorSoakWorld(
    const scenario::CorridorConfig& config, std::uint32_t shards,
    sim::ThreadPool& pool);

struct CheckpointedSoakOptions {
  /// Total epochs the run should reach (absolute — a resumed run counts the
  /// epochs already in the checkpoint towards this target).
  std::uint64_t epochs{40};
  /// Checkpoint every K epoch boundaries (0 = never checkpoint).
  std::uint64_t checkpointEvery{0};
  /// Directory for checkpoints + manifest. Required when checkpointing,
  /// resuming or running chaos kills; created if missing.
  std::string checkpointDir{};
  /// Rebuild from the newest manifest entry in checkpointDir and continue.
  bool resume{false};
  /// Emulated kill: exit cleanly once the world holds this many epochs
  /// (0 = run to `epochs`). Checkpoints written up to that point stay valid.
  std::uint64_t stopAfter{0};
  /// Chaos mode: an uninterrupted reference, then this many kill/resume
  /// cycles (each in checkpointDir/kill-K), byte-comparing the surfaces.
  std::uint64_t chaosKills{0};
  /// Progress narration (nullptr = silent).
  std::ostream* log{nullptr};
};

/// One soak failure, replayable from (invariant, epoch, detail).
struct EpochViolation {
  std::uint64_t epoch{0};
  std::string invariant;  ///< "invariant", "checkpoint-write",
                          ///< "checkpoint-resume", "kill-resume-identity"
  std::string detail;
};

struct CheckpointedSoakResult {
  std::uint64_t startEpoch{0};  ///< 0, or the resumed checkpoint's epoch
  std::uint64_t endEpoch{0};    ///< epochs held by the world at exit
  Surfaces surfaces;
  std::string lastCheckpointPath;
  std::uint64_t chaosCycles{0};  ///< kill/resume cycles matching the reference
  std::vector<EpochViolation> violations;

  [[nodiscard]] bool passed() const { return violations.empty(); }
};

[[nodiscard]] CheckpointedSoakResult runCheckpointedSoak(
    const SoakWorld& world, const CheckpointedSoakOptions& options);

/// One manifest.jsonl line, parsed.
struct ManifestEntry {
  std::uint64_t epoch{0};
  std::string file;  ///< relative to the checkpoint directory
  std::uint64_t bytes{0};
  std::uint64_t crc32{0};
  std::uint64_t seed{0};
};

[[nodiscard]] std::string manifestPath(const std::string& checkpointDir);
/// Parses the manifest, skipping malformed lines (a torn trailing line from
/// a kill mid-append is expected and harmless). Empty when absent.
[[nodiscard]] std::vector<ManifestEntry> readManifest(
    const std::string& checkpointDir);

}  // namespace blackdp::soak
