// Trace recording.
//
// A TraceRecorder receives every TraceEvent an instrumented subsystem emits.
// Recording is opt-in and global (the simulator is single-threaded by
// design, like Logging): with no recorder installed — the default — every
// instrumentation site reduces to one pointer load and branch, no event is
// constructed, no RNG stream is touched, and the simulation is byte-for-byte
// identical to an uninstrumented build. Tests pin that property.
//
// Usage at an instrumentation site:
//
//   if (auto* tr = obs::Trace::active()) {
//     tr->record({simulator_.now().us(), obs::EventKind::kDetector,
//                 static_cast<std::uint8_t>(obs::DetectorOp::kProbeSent),
//                 ...});
//   }
#pragma once

#include <cstddef>
#include <vector>

#include "obs/trace_event.hpp"

namespace blackdp::obs {

/// Receives every emitted event. Implementations must not re-enter the
/// simulation (record() runs inside protocol callbacks).
class TraceRecorder {
 public:
  virtual ~TraceRecorder() = default;
  virtual void record(const TraceEvent& event) = 0;
};

/// Swallows everything. Installing it exercises the full recording path
/// (event construction included) with no storage — the overhead-contract
/// tests use it; the *default* fast path is no recorder at all.
class NullRecorder final : public TraceRecorder {
 public:
  void record(const TraceEvent& event) override { (void)event; }
};

/// Buffers events in memory for export or inspection.
class MemoryRecorder final : public TraceRecorder {
 public:
  void record(const TraceEvent& event) override { events_.push_back(event); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

/// Per-thread recorder registry. Each simulator is single-threaded, but the
/// worker pool (sim/thread_pool.hpp) executes independent simulators on
/// worker threads concurrently — a thread-local slot keeps installation
/// race-free and lets each trial record into its own sink without seeing its
/// neighbours' events. The null fast path is still one TLS load and branch.
class Trace {
 public:
  /// The recorder installed on THIS thread, or nullptr (the default,
  /// near-zero-cost path).
  [[nodiscard]] static TraceRecorder* active() { return recorder_; }

  /// Installs (or with nullptr removes) the calling thread's recorder. The
  /// recorder must outlive its installation; prefer ScopedTraceRecorder.
  /// A recorder installed on the main thread is NOT visible to pool
  /// workers — install per worker (or trace with --jobs 1).
  static void install(TraceRecorder* recorder) { recorder_ = recorder; }

 private:
  static thread_local TraceRecorder* recorder_;
};

/// RAII install/restore, so a throwing test cannot leak its recorder into
/// later tests.
class ScopedTraceRecorder {
 public:
  explicit ScopedTraceRecorder(TraceRecorder* recorder)
      : previous_{Trace::active()} {
    Trace::install(recorder);
  }
  ~ScopedTraceRecorder() { Trace::install(previous_); }

  ScopedTraceRecorder(const ScopedTraceRecorder&) = delete;
  ScopedTraceRecorder& operator=(const ScopedTraceRecorder&) = delete;

 private:
  TraceRecorder* previous_;
};

}  // namespace blackdp::obs
