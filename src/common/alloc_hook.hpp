// Optional global allocation-counter hook.
//
// Perf-gated builds (the e2e throughput bench, tests/alloc_guard_test) link
// the `blackdp_alloc_hook` object library, which replaces the global
// operator new/delete family with counting forwarders to malloc/free. Code
// that wants to *measure* allocations includes this header and reads the
// per-thread counters; when the hook is not linked the weak fallbacks below
// report the hook inactive and the counters stay zero, so production
// binaries pay nothing.
//
// Counters are thread-local on purpose: a measurement brackets a span of
// work on one thread (a steady-state frame loop) and must not see noise
// from google-benchmark timer threads or worker-pool threads.
#pragma once

#include <cstdint>

namespace blackdp::common {

struct AllocCounters {
  std::uint64_t allocations{0};    ///< operator new calls on this thread
  std::uint64_t deallocations{0};  ///< operator delete calls on this thread

  friend bool operator==(const AllocCounters&, const AllocCounters&) = default;
};

/// This thread's counters since thread start. Always {0, 0} when the hook
/// library is not linked.
[[nodiscard]] AllocCounters threadAllocCounters();

/// True iff the counting operator new/delete replacements are linked into
/// this binary (i.e. the numbers above mean something).
[[nodiscard]] bool allocHookActive();

}  // namespace blackdp::common
