#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace blackdp::sim {

namespace {
constexpr std::size_t kArity = 4;
}  // namespace

EventHandle Simulator::schedule(Duration delay, Callback fn) {
  if (delay < Duration{}) delay = Duration{};
  return scheduleAt(now_ + delay, std::move(fn));
}

EventHandle Simulator::scheduleAt(TimePoint when, Callback fn) {
  BDP_ASSERT_MSG(static_cast<bool>(fn), "scheduled a null callback");
  if (when < now_) when = now_;
  const std::uint64_t seq = nextSeq_++;
  std::uint32_t slot = 0;
  if (!freeSlots_.empty()) {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].fn = std::move(fn);
  slots_[slot].seq = seq;
  heapPush(HeapEntry{when, seq, slot, false});
  ++pending_;
  return EventHandle{slot, seq};
}

void Simulator::scheduleFanOut(std::span<const FanOutItem> items,
                               FanOutFn fn) {
  if (items.empty()) return;
  BDP_ASSERT_MSG(static_cast<bool>(fn), "scheduled a null fan-out callback");
  std::uint32_t index = 0;
  if (!freeFanOuts_.empty()) {
    index = freeFanOuts_.back();
    freeFanOuts_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(fanOuts_.size());
    fanOuts_.push_back(std::make_unique<FanOut>());
    fanOuts_.back()->items.reserve(fanOutCapacity_);
  }
  if (items.size() > fanOutCapacity_) {
    // Powers of two: a world's fan-outs widen in a few steps, not one per
    // new size, and every step reserves all records.
    fanOutCapacity_ = std::bit_ceil(items.size());
    for (const auto& record : fanOuts_) record->items.reserve(fanOutCapacity_);
  }
  FanOut& fanOut = *fanOuts_[index];
  fanOut.fn = std::move(fn);
  fanOut.next = 0;
  fanOut.firstSeq = nextSeq_;
  nextSeq_ += items.size();
  for (std::uint32_t i = 0; i < items.size(); ++i) {
    const Duration delay = std::max(items[i].delay, Duration{});
    fanOut.items.push_back(FanOut::Item{now_ + delay, i, items[i].tag});
  }
  // (when, order) orders the items as (when, seq) does.
  std::sort(fanOut.items.begin(), fanOut.items.end(),
            [](const FanOut::Item& a, const FanOut::Item& b) {
              if (a.when != b.when) return a.when < b.when;
              return a.order < b.order;
            });
  pending_ += items.size();
  const FanOut::Item& first = fanOut.items.front();
  heapPush(HeapEntry{first.when, fanOut.firstSeq + first.order, index, true});
}

void Simulator::heapPush(HeapEntry entry) {
  heap_.push_back(entry);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void Simulator::heapReplaceRoot(HeapEntry entry) {
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  while (true) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], entry)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = entry;
}

void Simulator::heapPopRoot() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) heapReplaceRoot(last);
}

void Simulator::freeSlot(std::uint32_t slot) {
  slots_[slot].fn = Callback{};
  slots_[slot].seq = 0;
  freeSlots_.push_back(slot);
}

void Simulator::cancel(EventHandle handle) {
  if (!handle.valid() || handle.slot_ >= slots_.size()) return;
  // The heap entry stays as a tombstone until it reaches the head.
  Slot& slot = slots_[handle.slot_];
  if (slot.seq == handle.seq_) slot.seq = 0;
}

std::size_t Simulator::run(TimePoint until) {
  if (auto* tr = obs::Trace::active()) {
    tr->record({now_.us(), obs::EventKind::kSimRun,
                static_cast<std::uint8_t>(obs::SimRunOp::kRunBegin), 0, 0, 0,
                0, 0, pendingEvents()});
  }
  std::size_t ran = 0;
  while (!heap_.empty()) {
    if (heap_.front().when > until) break;
    if (step()) ++ran;
  }
  if (auto* tr = obs::Trace::active()) {
    tr->record({now_.us(), obs::EventKind::kSimRun,
                static_cast<std::uint8_t>(obs::SimRunOp::kRunEnd), 0, 0, 0, 0,
                0, ran});
  }
  return ran;
}

void Simulator::fastForward(TimePoint to) {
  if (to <= now_) return;
  // Peek past tombstones: jumping over a live pending event would reorder
  // causality (the event would then run "in the past").
  while (!heap_.empty() && isTombstone(heap_.front())) {
    freeSlot(heap_.front().slot);
    heapPopRoot();
    --pending_;
  }
  BDP_ASSERT_MSG(heap_.empty() || heap_.front().when >= to,
                 "fastForward would skip a pending event");
  now_ = to;
}

void Simulator::runFanOutItem(const HeapEntry& top) {
  FanOut& fanOut = *fanOuts_[top.slot];
  const std::uint32_t tag = fanOut.items[fanOut.next].tag;
  ++fanOut.next;
  const bool last = fanOut.next == fanOut.items.size();
  if (last) {
    heapPopRoot();
  } else {
    // The fan-out's next item takes over its heap entry: one sift-down
    // instead of a pop and a push.
    const FanOut::Item& following = fanOut.items[fanOut.next];
    heapReplaceRoot(HeapEntry{following.when, fanOut.firstSeq + following.order,
                              top.slot, true});
  }
  --pending_;
  BDP_ASSERT_MSG(top.when >= now_, "event queue went backwards in time");
  now_ = top.when;
  ++executed_;
  fanOut.fn(tag);
  if (last) {
    fanOut.fn = FanOutFn{};
    fanOut.items.clear();
    freeFanOuts_.push_back(top.slot);
  }
}

bool Simulator::step() {
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    if (top.fanOut) {
      runFanOutItem(top);
      return true;
    }
    heapPopRoot();
    --pending_;
    if (isTombstone(top)) {
      freeSlot(top.slot);
      continue;
    }
    BDP_ASSERT_MSG(top.when >= now_, "event queue went backwards in time");
    now_ = top.when;
    ++executed_;
    // Move the callable out and recycle its slot before invoking: the event
    // may schedule again, and the freed slot is the one it should reuse. A
    // cancel of this event from inside its own callback is then a no-op.
    Callback fn = std::move(slots_[top.slot].fn);
    freeSlot(top.slot);
    fn();
    return true;
  }
  return false;
}

}  // namespace blackdp::sim
