// Discrete-event simulation kernel.
//
// Single-threaded, deterministic: events at equal timestamps execute in
// scheduling order (FIFO tie-break by sequence number). All protocol code in
// this repository runs inside event callbacks; nothing blocks.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/time.hpp"

namespace blackdp::sim {

/// Handle for cancelling a scheduled event: the event's slot and sequence
/// number, so a cancel finds its event in O(1) and a stale handle (its event
/// already ran or was cancelled, the slot maybe reused) matches nothing.
class EventHandle {
 public:
  EventHandle() = default;

  [[nodiscard]] bool valid() const { return seq_ != 0; }

 private:
  friend class Simulator;
  EventHandle(std::uint32_t slot, std::uint64_t seq) : seq_{seq}, slot_{slot} {}
  std::uint64_t seq_{0};
  std::uint32_t slot_{0};
};

/// One item of a fan-out (Simulator::scheduleFanOut).
struct FanOutItem {
  Duration delay;      ///< after now, as schedule() takes it
  std::uint32_t tag;   ///< handed to the fan-out's callback when it runs
};

/// The event-driven simulator.
class Simulator {
 public:
  /// Pooled small-callable (see sim/event_fn.hpp): hot-path captures stay
  /// inline instead of hitting the heap like std::function's would.
  using Callback = EventFn;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `fn` to run `delay` after now. Negative delays clamp to zero.
  EventHandle schedule(Duration delay, Callback fn);

  /// Schedules `fn` at an absolute time (>= now; earlier clamps to now).
  EventHandle scheduleAt(TimePoint when, Callback fn);

  /// Schedules one run of `fn(items[i].tag)` per item, exactly as
  /// `schedule(items[i].delay, ...)` for i = 0, 1, ... would: the items
  /// take consecutive sequence numbers in index order and run among all
  /// other events in (time, sequence) order. The fan-out holds `fn` and its
  /// captures once, and one heap entry at a time: its earliest undelivered
  /// item. Items cannot be cancelled. An empty span schedules nothing.
  void scheduleFanOut(std::span<const FanOutItem> items, FanOutFn fn);

  /// Cancels a pending event in O(1). Cancelling an already-run or
  /// already-cancelled event is a no-op (the common pattern for timeout
  /// timers), even when a later event has reused its slot.
  void cancel(EventHandle handle);

  /// Runs until the queue drains or `until` is reached (events at exactly
  /// `until` still run). Returns the number of events executed.
  std::size_t run(TimePoint until = TimePoint::fromUs(
                      std::numeric_limits<std::int64_t>::max()));

  /// Runs at most one event; returns false if the queue is empty.
  bool step();

  /// Advances the clock to `to` without running anything (earlier times are
  /// a no-op). run(until) leaves now() at the last executed event, not at
  /// `until`; checkpoint/restore needs the clock pinned to the epoch
  /// boundary so state restored into a fresh simulator ages identically.
  /// Must not skip over pending events — asserted.
  void fastForward(TimePoint to);

  /// Number of events waiting: undelivered fan-out items count one each,
  /// and cancelled tombstones count until they reach the head of the queue.
  [[nodiscard]] std::size_t pendingEvents() const { return pending_; }

  /// Total events executed since construction.
  [[nodiscard]] std::size_t executedEvents() const { return executed_; }

 private:
  /// Heap node: the callable lives in `slots_` (or the fan-out record in
  /// `fanOuts_`) so percolation moves 24 bytes and never an EventFn.
  /// (when, seq) is a strict total order, so the pop order is one fixed
  /// sequence whatever the heap's shape, and replay traces never change.
  struct HeapEntry {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;  ///< into fanOuts_ when fanOut, else into slots_
    bool fanOut;
  };

  /// A plain event's callable. `seq` is the sequence number of the event the
  /// slot holds, and 0 once that event is cancelled or the slot is free: a
  /// popped entry whose seq differs is a tombstone.
  struct Slot {
    Callback fn;
    std::uint64_t seq{0};
  };

  /// A fan-out in flight. Item i of the caller's span has sequence number
  /// firstSeq + i; `items` is sorted by (when, seq) and `next` is the first
  /// undelivered one, which the fan-out's heap entry stands for.
  struct FanOut {
    struct Item {
      TimePoint when;
      std::uint32_t order;
      std::uint32_t tag;
    };
    FanOutFn fn;
    std::vector<Item> items;
    std::size_t next{0};
    std::uint64_t firstSeq{0};
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  void heapPush(HeapEntry entry);
  /// Replaces the root with `entry` and sifts it down.
  void heapReplaceRoot(HeapEntry entry);
  /// Removes the root entry (callers read heap_.front() first).
  void heapPopRoot();
  [[nodiscard]] bool isTombstone(const HeapEntry& entry) const {
    return !entry.fanOut && slots_[entry.slot].seq != entry.seq;
  }
  void freeSlot(std::uint32_t slot);
  /// Runs the fan-out item at the head of the queue.
  void runFanOutItem(const HeapEntry& top);

  TimePoint now_{};
  std::uint64_t nextSeq_{1};
  std::size_t executed_{0};
  std::size_t pending_{0};
  /// 4-ary implicit heap over compact entries: shallower than a binary heap
  /// and each level's children share a cache line, which matters at the
  /// ~10^6 push/pop-per-simulated-second rates of the e2e benches.
  std::vector<HeapEntry> heap_;
  /// Pending callables, indexed by HeapEntry::slot; freed slots recycle so
  /// steady-state scheduling does not allocate.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> freeSlots_;
  /// Fan-out records, recycled through freeFanOuts_. Boxed so a record
  /// stays put while its callback schedules further fan-outs.
  std::vector<std::unique_ptr<FanOut>> fanOuts_;
  std::vector<std::uint32_t> freeFanOuts_;
  /// Item capacity of every record: the largest fan-out so far, rounded up
  /// to a power of two. All records grow together when it rises, so
  /// whichever record a fan-out draws after warm-up already fits it, and
  /// steady state never allocates.
  std::size_t fanOutCapacity_{0};
};

}  // namespace blackdp::sim
