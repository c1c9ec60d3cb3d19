// Typed, recoverable integrity failures of the cross-shard epoch exchange.
//
// The epoch barrier validates every batch of Envelopes before routing it:
// batch CRC seals, (srcSegment, seq) contiguity, plan membership, and the
// epoch-safety hop bound; a checkpoint restore runs the same exchange
// checks on the inboxes it reinstalls. Violations are ShardIntegrityError —
// a catchable exception carrying a machine-readable kind — so a caller (a
// test, or a world's restore, which reports "malformed") can observe the
// failure and read the counters in ShardStats instead of the process dying.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace blackdp::shard {

/// What exactly the barrier rejected.
enum class IntegrityViolation : std::uint8_t {
  kOutOfPlan = 0,     ///< src/dst segment outside the plan, src not owned
                      ///< by the emitting shard, or restored inboxes that
                      ///< are not the barrier's routing of their envelopes
  kEpochHops = 1,     ///< envelope travels further than kMaxSegmentHops
  kSeqDuplicate = 2,  ///< two envelopes share (srcSegment, seq)
  kSeqGap = 3,        ///< a (srcSegment, seq) value is missing from 0..n-1
  kSeqReorder = 4,    ///< emission order regressed within a source segment
  kCrcMismatch = 5,   ///< batch CRC seal does not match the envelope bytes
};

[[nodiscard]] constexpr std::string_view toString(IntegrityViolation v) {
  switch (v) {
    case IntegrityViolation::kOutOfPlan: return "out-of-plan";
    case IntegrityViolation::kEpochHops: return "epoch-hops";
    case IntegrityViolation::kSeqDuplicate: return "seq-duplicate";
    case IntegrityViolation::kSeqGap: return "seq-gap";
    case IntegrityViolation::kSeqReorder: return "seq-reorder";
    case IntegrityViolation::kCrcMismatch: return "crc-mismatch";
  }
  return "unknown";
}

/// Thrown by ShardedSimulation::runEpoch at the barrier. The corresponding
/// ShardStats counter is incremented BEFORE the throw, so a catcher always
/// sees the violation reflected in the stats.
class ShardIntegrityError : public std::runtime_error {
 public:
  ShardIntegrityError(IntegrityViolation kind, std::uint32_t epoch,
                      const std::string& detail)
      : std::runtime_error{"shard integrity violation [" +
                           std::string{toString(kind)} + "] at epoch " +
                           std::to_string(epoch) + ": " + detail},
        kind_{kind},
        epoch_{epoch} {}

  [[nodiscard]] IntegrityViolation kind() const { return kind_; }
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }

 private:
  IntegrityViolation kind_;
  std::uint32_t epoch_;
};

}  // namespace blackdp::shard
