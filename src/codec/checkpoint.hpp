// Versioned checkpoint envelope.
//
// Detection-side state (detector verification tables, reporter ledgers, CH
// membership, TA revocation state, RNG streams) snapshots into one durable
// blob so a long-running detector service can be killed at an arbitrary
// epoch boundary and resumed byte-identically. The envelope is deliberately
// dumb and self-verifying:
//
//   magic "BDPC" | u16 schema version | u32 section count
//   [ u16 tag | u32 length | body ]*  | u32 CRC-32 (over everything before)
//
// Sections are opaque byte blobs produced by each subsystem's saveState();
// the envelope knows nothing about their contents, so subsystems evolve
// their section layout under the schema version without touching this file.
// The CRC is CRC-32/ISO-HDLC (the zlib/binascii polynomial), so external
// tooling (scripts/validate_bench_json.py) can verify checkpoint files
// without linking the codec.
//
// Version-skew policy: a reader accepts exactly its own schema version.
// There is no in-place migration — a version mismatch is a typed
// "bad-version" error, and the caller decides (re-run from scratch, or
// replay the recorded d_req trace through the new build via
// tools/replay_serve).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace blackdp::codec {

inline constexpr std::uint32_t kCheckpointMagic = 0x42445043;  // "BDPC"
inline constexpr std::uint16_t kCheckpointVersion = 1;

/// Section tags (stable; append only).
enum class CheckpointTag : std::uint16_t {
  kMeta = 1,     ///< config hash, seed, epoch cursor, sim clock
  kMedium = 2,   ///< wireless-medium RNG stream
  kTa = 3,       ///< TA network dynamic state (paused nodes, revocations)
  kCluster = 4,  ///< one per cluster: CH tables + detector state
  kStream = 5,   ///< stream-driver cursors, counters, verdict hash
  kCorridorMeta = 6,      ///< megacity config hash, seed, epoch, shard count
  kCorridorShard = 7,     ///< one per shard: segments, detectors, vehicles
  kCorridorExchange = 8,  ///< in-flight cross-shard envelopes (per-shard inboxes)
};

struct CheckpointSection {
  std::uint16_t tag{0};
  common::Bytes body;
};

/// A decoded checkpoint: schema version plus sections in file order.
struct Checkpoint {
  std::uint16_t version{kCheckpointVersion};
  std::vector<CheckpointSection> sections;

  /// First section with `tag`, or nullptr.
  [[nodiscard]] const common::Bytes* find(CheckpointTag tag) const;
  /// Every section with `tag`, in file order (kCluster repeats per cluster).
  [[nodiscard]] std::vector<const common::Bytes*> findAll(
      CheckpointTag tag) const;
  /// A reader over the first section with `tag`; throws
  /// std::invalid_argument when there is none ("malformed" under
  /// restoreGuarded).
  [[nodiscard]] common::ByteReader section(CheckpointTag tag) const;
};

/// Accumulates sections and seals them into one enveloped blob.
class CheckpointBuilder {
 public:
  void add(CheckpointTag tag, common::Bytes body);
  /// Seals the envelope (magic, version, sections, CRC). The builder can be
  /// reused afterwards; sections are kept.
  [[nodiscard]] common::Bytes finish() const;

 private:
  std::vector<CheckpointSection> sections_;
};

/// CRC-32/ISO-HDLC (reflected, poly 0xEDB88320, init/xorout 0xFFFFFFFF) —
/// bit-compatible with zlib's crc32() and Python's binascii.crc32.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Decodes and verifies an envelope. Typed errors, never UB:
///   "bad-magic"   not a checkpoint
///   "bad-version" schema version skew (detail carries found vs expected)
///   "truncated"   buffer ends mid-structure
///   "bad-crc"     payload corrupted
///   "malformed"   structurally invalid (e.g. trailing bytes)
[[nodiscard]] common::Result<Checkpoint> decodeCheckpoint(
    std::span<const std::uint8_t> bytes);

/// The one restore policy of every checkpointed world, so hostile bytes
/// always come back as a typed error and never escape as an exception:
///   - envelope errors from decodeCheckpoint pass through unchanged;
///   - a missing `metaTag` section is "malformed";
///   - a meta section that does not open with the world's config hash and
///     seed (two u64s) is "config-mismatch";
///   - otherwise `apply` restores the sections, `meta` positioned after the
///     seed, and its status is returned;
///   - any exception `apply` throws is "malformed" with the exception's
///     message, which covers a missing section (Checkpoint::section),
///     trailing bytes (expectConsumed) and every ByteReader underrun.
/// A failed restore may leave the world part-restored; discard it.
[[nodiscard]] common::Status restoreGuarded(
    std::span<const std::uint8_t> blob, CheckpointTag metaTag,
    std::uint64_t configHash, std::uint64_t seed,
    const std::function<common::Status(const Checkpoint& checkpoint,
                                       common::ByteReader& meta)>& apply);

/// Throws std::invalid_argument unless `reader` consumed its whole section
/// ("malformed" under restoreGuarded); `section` names it in the message.
void expectConsumed(const common::ByteReader& reader, const char* section);

/// Writes `bytes` to `path` crash-consistently: the data goes to a
/// temporary file in the same directory which is atomically renamed over
/// `path` only after a successful complete write. On ANY failure —
/// including an exception thrown by `midWriteHook`, a test-and-fault hook
/// that runs after the temp write but before the rename — the temp file is
/// removed and `path` is left untouched (either absent or holding its
/// previous complete contents). The hook's exception propagates to the
/// caller after cleanup.
[[nodiscard]] common::Status writeFileAtomic(
    const std::string& path, std::span<const std::uint8_t> bytes,
    const std::function<void()>& midWriteHook = {});

/// Reads a whole file. Error code "io" when missing/unreadable.
[[nodiscard]] common::Result<common::Bytes> readFile(const std::string& path);

}  // namespace blackdp::codec
