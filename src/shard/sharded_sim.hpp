// Region-partitioned simulation with deterministic epoch exchange.
//
// ShardedSimulation runs one ShardWorld per contiguous corridor region, each
// owning a full private stack (Simulator, WirelessMedium, nodes, detectors,
// metrics), and advances all of them in lock-step epochs on a shared
// sim::ThreadPool. Within an epoch the shards never communicate; at the
// epoch barrier every shard's outbox of Envelopes is merged into the
// canonical (srcSegment, seq) order and routed to the owning shards' inboxes
// for the next epoch.
//
// Determinism: because envelopes are segment-addressed and the merge order
// is canonical, the inbox sequence each SEGMENT observes is independent of
// the partition — running the same world as one shard or as N produces
// byte-identical metrics and canonical traces (pinned by tests/shard_test
// and the CI megacity smoke). The epoch length is chosen by the world so
// that no physical interaction can cross a region boundary within one epoch
// (epoch <= range / v_max); the shard layer enforces the structural half of
// that argument by validating every envelope travels at most
// `kMaxSegmentHops` segments.
//
// Integrity: each worker seals its epoch outbox with a CRC-32 BatchSeal;
// the coordinator re-verifies the seal before merging, checks that every
// envelope comes from the emitting shard's region in emission order, and
// then checks the merged exchange: plan membership, the hop bound, and
// per-source-segment seq contiguity (0..n-1). Every violation increments a
// ShardStats counter and throws a typed, catchable ShardIntegrityError (see
// shard/integrity.hpp) instead of asserting. restoreExchange, the way a
// world's whole-world checkpoint reinstalls inboxes(), runs the same checks
// and routing, so a restore installs only an exchange a barrier produces.
//
// Threading: epochs fan out through ThreadPool::parallelFor, so a
// ShardedSimulation embedded in a parallel campaign trial degrades to
// serial via the nested-parallelism guard instead of oversubscribing (the
// jobs budget stays with the outermost level). Per-shard busy time is
// accumulated for the load-balance sidecar of BENCH_megacity.json.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "shard/envelope.hpp"
#include "shard/integrity.hpp"
#include "sim/thread_pool.hpp"

namespace blackdp::shard {

/// The epoch-safety bound: with epoch <= range / v_max nothing physical can
/// move further than one segment per epoch, so no envelope may travel
/// further. Exceeding it is a ShardIntegrityError (kEpochHops).
inline constexpr std::uint32_t kMaxSegmentHops = 1;

/// One region's world. Implementations own every stateful object of their
/// region and must touch nothing shared from runEpoch (it runs on a pool
/// worker; the thread-local trace recorder is not installed there).
class ShardWorld {
 public:
  virtual ~ShardWorld() = default;

  /// Advances the region's simulator across epoch `epoch`, applying `inbox`
  /// (cross-boundary envelopes addressed to this region, already in
  /// canonical order) at the epoch start and appending this epoch's outgoing
  /// envelopes to `outbox` with per-source-segment emission-order `seq`.
  virtual void runEpoch(std::uint32_t epoch, std::span<const Envelope> inbox,
                        std::vector<Envelope>& outbox) = 0;
};

/// Aggregate run statistics. busySeconds is wall clock (machine dependent);
/// the integrity counters are deterministic — zero on a healthy run
/// regardless of partition.
struct ShardStats {
  std::uint64_t epochsRun{0};
  std::uint64_t envelopesExchanged{0};
  std::uint64_t epochViolations{0};   ///< hop-bound (epoch-safety) rejects
  std::uint64_t seqViolations{0};     ///< seq gap/duplicate/reorder + plan rejects
  std::uint64_t crcRejects{0};        ///< BatchSeal mismatches
  std::vector<double> busySeconds;    ///< per shard, summed over epochs
};

class ShardedSimulation {
 public:
  struct Config {
    /// Test seam: mutates a shard's outbox AFTER its seal was computed and
    /// BEFORE the coordinator verifies it — models corruption in transit
    /// between worker and barrier.
    std::function<void(std::uint32_t epoch, std::uint32_t s,
                       std::vector<Envelope>& outbox)>
        tamperOutboxHook;
  };

  /// `worlds` holds one ShardWorld per plan region (worlds[s] owns segments
  /// [plan.firstSegment(s), plan.firstSegment(s) + plan.segmentCount(s))).
  /// The pool is borrowed — typically the one that also runs the caller's
  /// trials — and must outlive this object.
  ShardedSimulation(ShardPlan plan, std::vector<ShardWorld*> worlds,
                    sim::ThreadPool& pool, Config config);
  ShardedSimulation(ShardPlan plan, std::vector<ShardWorld*> worlds,
                    sim::ThreadPool& pool);

  /// Runs one lock-step epoch across all shards, then exchanges envelopes.
  /// Worker exceptions propagate after all shards have stopped (lowest shard
  /// index wins, the others are traced; ThreadPool::parallelFor's policy) and
  /// leave epoch() unchanged. Throws ShardIntegrityError on a barrier
  /// integrity violation (counter incremented first).
  void runEpoch();

  /// Pending per-shard inboxes for the next epoch, canonical order
  /// (checkpointed by worlds as the in-flight exchange state).
  [[nodiscard]] const std::vector<std::vector<Envelope>>& inboxes() const {
    return inboxes_;
  }

  /// Restores the exchange state saved from inboxes(): sets the epoch
  /// counter and the pending inboxes. Only valid on a fresh simulation
  /// (epoch() == 0) whose worlds were restored to the same boundary. Throws
  /// ShardIntegrityError unless the inboxes are what a barrier routes.
  void restoreExchange(std::uint32_t epoch,
                       std::vector<std::vector<Envelope>> inboxes);

  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }
  [[nodiscard]] const ShardStats& stats() const { return stats_; }

 private:
  void verifyOutbox(std::uint32_t epoch, std::uint32_t s,
                    const BatchSeal& seal);
  /// The merged-exchange check of the barrier and of restoreExchange, over
  /// merged_ in canonical order: plan membership, the hop bound, and seq
  /// 0..n-1 per source segment.
  void verifyMerged(std::uint32_t epoch);
  /// Moves merged_ into per-destination-shard `inboxes`.
  void route(std::vector<std::vector<Envelope>>& inboxes);

  ShardPlan plan_;
  std::vector<ShardWorld*> worlds_;
  sim::ThreadPool& pool_;
  Config config_;
  std::uint32_t epoch_{0};
  ShardStats stats_;
  std::vector<std::vector<Envelope>> inboxes_;   ///< per shard, canonical order
  std::vector<std::vector<Envelope>> outboxes_;  ///< per shard, emission order
  std::vector<Envelope> merged_;                 ///< barrier scratch
};

}  // namespace blackdp::shard
