#include "shard/sharded_sim.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace blackdp::shard {

ShardedSimulation::ShardedSimulation(ShardPlan plan,
                                     std::vector<ShardWorld*> worlds,
                                     sim::ThreadPool& pool, Config config)
    : plan_{std::move(plan)},
      worlds_{std::move(worlds)},
      pool_{pool},
      config_{std::move(config)} {
  BDP_ASSERT_MSG(worlds_.size() == plan_.shards(),
                 "one ShardWorld per plan region");
  for (ShardWorld* world : worlds_) {
    BDP_ASSERT_MSG(world != nullptr, "null ShardWorld");
  }
  inboxes_.resize(worlds_.size());
  outboxes_.resize(worlds_.size());
  stats_.busySeconds.assign(worlds_.size(), 0.0);
}

ShardedSimulation::ShardedSimulation(ShardPlan plan,
                                     std::vector<ShardWorld*> worlds,
                                     sim::ThreadPool& pool)
    : ShardedSimulation{std::move(plan), std::move(worlds), pool, Config{}} {}

void ShardedSimulation::verifyOutbox(std::uint32_t epoch, std::uint32_t s,
                                     const BatchSeal& seal) {
  const std::vector<Envelope>& outbox = outboxes_[s];
  if (sealBatch(outbox) != seal) {
    ++stats_.crcRejects;
    throw ShardIntegrityError{
        IntegrityViolation::kCrcMismatch, epoch,
        "shard " + std::to_string(s) + " outbox does not match its seal (" +
            std::to_string(outbox.size()) + " envelopes)"};
  }
  const std::uint32_t regionFirst = plan_.firstSegment(s);
  const std::uint32_t regionEnd = regionFirst + plan_.segmentCount(s);
  // lastSeq per source segment of this region, tracking emission order.
  std::vector<std::int64_t> lastSeq(regionEnd - regionFirst, -1);
  for (const Envelope& e : outbox) {
    if (e.srcSegment < regionFirst || e.srcSegment >= regionEnd) {
      ++stats_.seqViolations;
      throw ShardIntegrityError{
          IntegrityViolation::kOutOfPlan, epoch,
          "shard " + std::to_string(s) + " emitted src=" +
              std::to_string(e.srcSegment) + " outside its region"};
    }
    std::int64_t& last = lastSeq[e.srcSegment - regionFirst];
    if (static_cast<std::int64_t>(e.seq) <= last) {
      ++stats_.seqViolations;
      const bool duplicate = static_cast<std::int64_t>(e.seq) == last;
      throw ShardIntegrityError{
          duplicate ? IntegrityViolation::kSeqDuplicate
                    : IntegrityViolation::kSeqReorder,
          epoch,
          "src=" + std::to_string(e.srcSegment) + " emitted seq " +
              std::to_string(e.seq) + " after seq " + std::to_string(last)};
    }
    last = static_cast<std::int64_t>(e.seq);
  }
}

void ShardedSimulation::verifyMerged(std::uint32_t epoch) {
  // Per source segment the seq values must be exactly 0..n-1. At the
  // barrier, duplicates and reorders were rejected per outbox, so what
  // remains detectable here is a missing emission (a gap), including a
  // missing seq 0 at the start of a segment's run; in a restored exchange
  // this also catches a (srcSegment, seq) held twice.
  std::uint32_t expected = 0;
  for (std::size_t i = 0; i < merged_.size(); ++i) {
    const Envelope& e = merged_[i];
    if (e.srcSegment >= plan_.segments() || e.dstSegment >= plan_.segments()) {
      ++stats_.seqViolations;
      throw ShardIntegrityError{
          IntegrityViolation::kOutOfPlan, epoch,
          "envelope src=" + std::to_string(e.srcSegment) + " dst=" +
              std::to_string(e.dstSegment) + " outside the plan"};
    }
    const std::uint32_t hops = e.dstSegment > e.srcSegment
                                   ? e.dstSegment - e.srcSegment
                                   : e.srcSegment - e.dstSegment;
    if (hops > kMaxSegmentHops) {
      ++stats_.epochViolations;
      throw ShardIntegrityError{
          IntegrityViolation::kEpochHops, epoch,
          "envelope src=" + std::to_string(e.srcSegment) + " dst=" +
              std::to_string(e.dstSegment) + " travels " +
              std::to_string(hops) + " segments (bound " +
              std::to_string(kMaxSegmentHops) + ")"};
    }
    if (i == 0 || merged_[i - 1].srcSegment != e.srcSegment) expected = 0;
    if (e.seq != expected) {
      ++stats_.seqViolations;
      throw ShardIntegrityError{
          IntegrityViolation::kSeqGap, epoch,
          "src=" + std::to_string(e.srcSegment) + " expected seq " +
              std::to_string(expected) + " but saw " +
              std::to_string(e.seq)};
    }
    ++expected;
  }
}

void ShardedSimulation::route(std::vector<std::vector<Envelope>>& inboxes) {
  // Canonical order is preserved per destination shard because the merged
  // sequence is visited in order.
  for (auto& inbox : inboxes) inbox.clear();
  for (Envelope& e : merged_) {
    inboxes[plan_.shardOf(e.dstSegment)].push_back(std::move(e));
  }
}

void ShardedSimulation::runEpoch() {
  const std::uint32_t shards = plan_.shards();
  const std::uint32_t epoch = epoch_;

  // Fan out: each shard applies its inbox and runs one epoch, then seals
  // its outbox. Busy time and the seal are written into private slots per
  // shard — no sharing between workers.
  std::vector<double> epochBusy(shards, 0.0);
  std::vector<BatchSeal> seals(shards);
  pool_.parallelFor(shards, [&](std::size_t s) {
    const auto begin = std::chrono::steady_clock::now();
    outboxes_[s].clear();
    worlds_[s]->runEpoch(epoch, std::span<const Envelope>{inboxes_[s]},
                         outboxes_[s]);
    seals[s] = sealBatch(outboxes_[s]);
    epochBusy[s] = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - begin)
                       .count();
  });

  for (std::uint32_t s = 0; s < shards; ++s) {
    stats_.busySeconds[s] += epochBusy[s];
    if (auto* tr = obs::Trace::active()) {
      tr->record({0, obs::EventKind::kShard,
                  static_cast<std::uint8_t>(obs::ShardOp::kEpochRun), s, 0,
                  outboxes_[s].size(), 0, 0, epoch});
    }
  }

  // Barrier: verify every outbox (seal, source region, emission order),
  // then merge into the canonical (srcSegment, seq) order and check the
  // merged exchange (plan membership, hop bound, per-source seq
  // contiguity). Violations throw typed ShardIntegrityErrors with their
  // ShardStats counter already bumped.
  merged_.clear();
  for (std::uint32_t s = 0; s < shards; ++s) {
    if (config_.tamperOutboxHook) config_.tamperOutboxHook(epoch, s, outboxes_[s]);
    verifyOutbox(epoch, s, seals[s]);
    for (Envelope& e : outboxes_[s]) merged_.push_back(std::move(e));
    outboxes_[s].clear();
  }
  std::sort(merged_.begin(), merged_.end(), canonicalLess);
  verifyMerged(epoch);

  route(inboxes_);
  stats_.envelopesExchanged += merged_.size();
  if (auto* tr = obs::Trace::active()) {
    tr->record({0, obs::EventKind::kShard,
                static_cast<std::uint8_t>(obs::ShardOp::kExchange), 0, 0,
                epoch, 0, 0, merged_.size()});
  }
  merged_.clear();

  ++stats_.epochsRun;
  ++epoch_;
}

void ShardedSimulation::restoreExchange(
    std::uint32_t epoch, std::vector<std::vector<Envelope>> inboxes) {
  BDP_ASSERT_MSG(epoch_ == 0, "restoreExchange on a running simulation");
  BDP_ASSERT_MSG(inboxes.size() == worlds_.size(),
                 "restoreExchange: one inbox per shard");
  // The union must pass the barrier's merged-exchange check, and routing it
  // as the barrier does must give back exactly these inboxes.
  merged_.clear();
  for (const std::vector<Envelope>& inbox : inboxes) {
    merged_.insert(merged_.end(), inbox.begin(), inbox.end());
  }
  std::sort(merged_.begin(), merged_.end(), canonicalLess);
  verifyMerged(epoch);
  std::vector<std::vector<Envelope>> routed(inboxes.size());
  route(routed);
  if (routed != inboxes) {
    ++stats_.seqViolations;
    throw ShardIntegrityError{
        IntegrityViolation::kOutOfPlan, epoch,
        "restored inboxes are not the barrier's routing of their envelopes"};
  }
  epoch_ = epoch;
  inboxes_ = std::move(inboxes);
}

}  // namespace blackdp::shard
