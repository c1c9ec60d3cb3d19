// Measurement plumbing for blackdp_suite: a step stopwatch, a core-speed
// probe, the benchmark's own span log, a counting trace recorder, FNV-1a
// digests and small statistics. Nothing here reaches into src/ beyond
// public headers; the spans wrap the calls the benchmark itself makes into
// each layer.
#pragma once

#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/alloc_hook.hpp"
#include "obs/bench_json.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace suite {

/// FNV-1a, the digest behind every step digest and surface_hash.
struct Fnv {
  std::uint64_t h{14695981039346656037ull};

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void str(std::string_view s) { bytes(s.data(), s.size()); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
};

/// Times the measured part of one step and counts the heap allocations the
/// calling thread makes inside it (0 unless blackdp_alloc_hook is linked).
class Stopwatch {
 public:
  [[nodiscard]] double seconds() const { return timer_.elapsedSeconds(); }
  [[nodiscard]] std::uint64_t allocations() const {
    return blackdp::common::threadAllocCounters().allocations - allocs0_;
  }

 private:
  blackdp::obs::BenchTimer timer_;
  std::uint64_t allocs0_{blackdp::common::threadAllocCounters().allocations};
};

/// How fast the core under the driver thread runs, read while the workload
/// runs on it.
///
/// The benchmark runs on VMs whose vCPUs share physical cores with other
/// tenants. A busy neighbour slows cache- and branch-heavy code on its core
/// by up to half, and which vCPU it slows changes from one second to the
/// next. While a CoreProbe lives, a timer interrupts the thread that made it
/// after every kIntervalMs of that thread's CPU time, and the signal handler
/// runs a fixed kernel on it: a binary event heap with random reads in an
/// 8 MB table, the access mix of a discrete-event simulation. The mean wall
/// time of the kernel over a window is the window's core speed; run.py
/// divides the window's time by it (README: "Core-speed normalisation").
/// The kernel shares no code with src/, so a change to the program does not
/// move it. It takes about 2% of the thread's time, inside the timed steps.
class CoreProbe {
 public:
  static constexpr long kIntervalMs = 10;
  static constexpr std::size_t kTableWords = std::size_t{1} << 20;
  /// Resident size of the kernel's table, which the process carries from
  /// the moment the probe is armed.
  static constexpr std::uint64_t kTableKib = kTableWords * 8 / 1024;

  struct Reading {
    std::uint64_t ns{0};     ///< summed kernel wall time
    std::uint64_t count{0};  ///< kernel runs
  };

  /// Arms the timer on the calling thread; throws if it cannot.
  CoreProbe() {
    for (std::size_t i = 0; i < kTableWords; ++i) {
      table_[i] = i * 0x9E3779B97F4A7C15ull;  // touches every page
    }
    struct sigaction action {};
    action.sa_handler = &CoreProbe::onSignal;
    action.sa_flags = SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigevent event{};
    event.sigev_notify = SIGEV_THREAD_ID;
    event.sigev_signo = SIGPROF;
    event._sigev_un._tid = gettid();  // sigev_notify_thread_id
    itimerspec every{};
    every.it_interval.tv_nsec = kIntervalMs * 1'000'000;
    every.it_value = every.it_interval;
    if (sigaction(SIGPROF, &action, nullptr) != 0 ||
        timer_create(CLOCK_THREAD_CPUTIME_ID, &event, &timer_) != 0) {
      throw std::runtime_error("core probe: cannot create the CPU-time timer");
    }
    if (timer_settime(timer_, 0, &every, nullptr) != 0) {
      timer_delete(timer_);
      throw std::runtime_error("core probe: cannot arm the CPU-time timer");
    }
  }
  ~CoreProbe() { timer_delete(timer_); }
  CoreProbe(const CoreProbe&) = delete;
  CoreProbe& operator=(const CoreProbe&) = delete;
  CoreProbe(CoreProbe&&) = delete;
  CoreProbe& operator=(CoreProbe&&) = delete;

  [[nodiscard]] static Reading read() {
    return {ns_.load(std::memory_order_relaxed),
            count_.load(std::memory_order_relaxed)};
  }

  /// Mean kernel time in microseconds between two readings; 0 when the
  /// probe did not fire in between.
  [[nodiscard]] static double meanUs(const Reading& from, const Reading& to) {
    const std::uint64_t runs = to.count - from.count;
    return runs == 0 ? 0.0
                     : static_cast<double>(to.ns - from.ns) /
                           static_cast<double>(runs) / 1e3;
  }

 private:
  static constexpr std::size_t kHeapEvents = 256;
  static constexpr int kKernelEvents = 1000;

  struct Event {
    std::uint64_t when;
    std::uint64_t slot;
  };

  static std::uint64_t nowNs() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }

  /// The kernel: pops the earliest of kHeapEvents pending events, reads one
  /// or two random table words, and pushes the event back later. It only
  /// computes, so it is safe inside a signal handler.
  static std::uint64_t kernel(std::uint64_t seed) {
    const auto later = [](const Event& a, const Event& b) {
      return a.when > b.when;
    };
    std::uint64_t x = seed | 1;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    std::array<Event, kHeapEvents> heap{};
    for (std::size_t i = 0; i < kHeapEvents; ++i) {
      heap[i] = {next() & 0xffff, i};
    }
    std::make_heap(heap.begin(), heap.end(), later);
    constexpr std::uint64_t kMask = kTableWords - 1;
    std::uint64_t acc = 0;
    for (int i = 0; i < kKernelEvents; ++i) {
      std::pop_heap(heap.begin(), heap.end(), later);
      Event& e = heap.back();
      acc += table_[(next() ^ e.slot) & kMask];
      if ((acc & 1) != 0) acc += table_[(acc >> 3) & kMask];
      e.when += (x & 0xff) + 1;
      std::push_heap(heap.begin(), heap.end(), later);
    }
    return acc;
  }

  static void onSignal(int) {
    const int savedErrno = errno;
    const std::uint64_t runs = count_.load(std::memory_order_relaxed);
    const std::uint64_t start = nowNs();
    const std::uint64_t acc = kernel(0x9E3779B97F4A7C15ull * (runs + 1));
    const std::uint64_t end = nowNs();
    sink_.store(acc, std::memory_order_relaxed);
    ns_.fetch_add(end - start, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    errno = savedErrno;
  }

  static inline std::uint64_t table_[kTableWords];
  static inline std::atomic<std::uint64_t> ns_{0};
  static inline std::atomic<std::uint64_t> count_{0};
  static inline std::atomic<std::uint64_t> sink_{0};  ///< keeps the kernel
  timer_t timer_{};
};

/// Counts every event the existing instrumentation sites emit, by kind.
class CountingRecorder final : public blackdp::obs::TraceRecorder {
 public:
  static constexpr std::size_t kKinds = 16;

  void record(const blackdp::obs::TraceEvent& event) override {
    const auto kind = static_cast<std::size_t>(event.kind);
    ++counts_[kind < kKinds ? kind : kKinds - 1];
  }

  [[nodiscard]] const std::array<std::uint64_t, kKinds>& counts() const {
    return counts_;
  }
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t c : counts_) sum += c;
    return sum;
  }

 private:
  std::array<std::uint64_t, kKinds> counts_{};
};

/// The benchmark's own spans. Off (the untraced run) every scope is one
/// branch; on, spans are kept in memory and written once at the end.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name;
    std::int64_t startNs;
    std::int64_t endNs;
    std::int32_t parent;  ///< index of the parent span, -1 for a root
    std::uint64_t step;   ///< step (burst, trial or epoch) id
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t step)
        : tracer_{tracer.on_ ? &tracer : nullptr} {
      if (tracer_ != nullptr) id_ = tracer_->open(name, step);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t id_{-1};
  };

  [[nodiscard]] bool on() const { return on_; }

  /// Starts span recording and installs the counting recorder on this
  /// thread (pool workers are not covered: obs::Trace is thread-local).
  void enable() {
    on_ = true;
    origin_ = Clock::now();
    blackdp::obs::Trace::install(&recorder_);
  }
  void disable() {
    blackdp::obs::Trace::install(nullptr);
    on_ = false;
  }

  [[nodiscard]] Scope span(const char* name, std::uint64_t step) {
    return Scope{*this, name, step};
  }

  [[nodiscard]] const CountingRecorder& recorder() const { return recorder_; }

  /// Durations in milliseconds of every span called `name`.
  [[nodiscard]] std::vector<double> durationsMs(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) {
        out.push_back(static_cast<double>(s.endNs - s.startNs) / 1e6);
      }
    }
    return out;
  }

  struct Totals {
    std::uint64_t count{0};
    std::int64_t totalNs{0};
    std::int64_t selfNs{0};  ///< total minus the time child spans cover
  };

  /// Per-name count, inclusive time and self time. Children of one span
  /// never overlap (the driver is single-threaded), so self = total - sum of
  /// direct children.
  [[nodiscard]] std::map<std::string, Totals> totals() const {
    std::vector<std::int64_t> childNs(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        childNs[static_cast<std::size_t>(s.parent)] += s.endNs - s.startNs;
      }
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      const std::int64_t ns = spans_[i].endNs - spans_[i].startNs;
      ++t.count;
      t.totalNs += ns;
      t.selfNs += ns - childNs[i];
    }
    return out;
  }

  /// One JSON object per span: name, start/end (ns since enable), parent
  /// index, step id.
  [[nodiscard]] bool writeJsonl(const std::string& path) const {
    std::ofstream os{path};
    if (!os) return false;
    for (const Span& s : spans_) {
      os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.startNs
         << ",\"end_ns\":" << s.endNs << ",\"parent\":" << s.parent
         << ",\"step\":" << s.step << "}\n";
    }
    return static_cast<bool>(os);
  }

 private:
  std::int32_t open(const char* name, std::uint64_t step) {
    const auto id = static_cast<std::int32_t>(spans_.size());
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, nowNs(), 0, parent, step});
    stack_.push_back(id);
    return id;
  }
  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].endNs = nowNs();
    stack_.pop_back();
  }
  [[nodiscard]] std::int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool on_{false};
  Clock::time_point origin_{Clock::now()};
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  CountingRecorder recorder_;
};

/// Peak resident set of this process image in KiB: VmHWM from
/// /proc/self/status (0 where unavailable). Unlike a parent's wait4
/// ru_maxrss, it does not include the spawning process's memory from
/// before exec.
[[nodiscard]] inline std::uint64_t peakRssKib() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

/// Median by linear interpolation (0 for an empty sample).
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

[[nodiscard]] inline double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

/// Starts the next member of the JSON object being built in `out` (which
/// ends in '{' while still empty): a comma when needed, then `"key":`.
inline void jsonKey(std::string& out, std::string_view key) {
  if (out.back() != '{') out += ',';
  blackdp::obs::appendJsonString(out, key);
  out += ':';
}

}  // namespace suite
