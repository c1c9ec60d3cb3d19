// Persistent worker pool: the one way work fans out.
//
// Benches, campaigns and the chaos soak repeat the same seeded experiment
// hundreds of times; the trials are embarrassingly parallel (each owns its
// simulator, RNG streams, scenario, and metrics). The sharded simulation
// fans its shards out once per *epoch*. Both run on a ThreadPool, whose
// workers stay alive between calls: one condition-variable wakeup per
// parallelFor, and an atomic next-index counter hands out the work.
//
// Determinism: map() produces its results into one slot per index, never
// appended as they finish, and the caller folds them *in index order* — so
// the merged output is bit-identical for any worker count.
//
// Rules for task bodies:
//   - own every stateful object (Simulator, SeedSequence, scenario world,
//     MetricsRegistry) — never share one between tasks;
//   - process-global observability is per-thread: a TraceRecorder installed
//     on the main thread is invisible inside a task (obs::Trace is
//     thread-local), and logging level/sink must not be reconfigured while
//     tasks run (emission itself is serialised);
//   - fold RNG-bearing results on the caller's thread after parallelFor()/
//     map() returns, in index order.
//
// Nested-parallelism guard: every pool worker (and a caller participating in
// a parallelFor) marks itself via a thread-local flag. A parallelFor issued
// from inside a worker — e.g. a sharded trial running inside a parallel
// campaign — executes inline on that worker instead of touching any pool.
// The jobs budget therefore always stays with the OUTERMOST parallel level;
// inner levels degrade to serial rather than oversubscribing the machine
// (jobs_outer * jobs_inner threads). Regression-tested in parallel_test.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <string>
#include <vector>

namespace blackdp::sim {

/// The largest worker count a --jobs flag or BLACKDP_JOBS may ask for.
inline constexpr unsigned kMaxJobs = 1024;

/// Resolves a worker count: `requested` when nonzero, else the BLACKDP_JOBS
/// environment variable when it is one whole decimal token (no sign, blank
/// or trailing character) in 1..kMaxJobs, else
/// std::thread::hardware_concurrency(); never less than 1.
[[nodiscard]] unsigned resolveJobCount(unsigned requested = 0);

/// The message of a caught task exception ("unknown exception" when it is
/// not a std::exception).
[[nodiscard]] std::string describeException(const std::exception_ptr& error);

class ThreadPool {
 public:
  /// `workers` >= 1 (0 is taken as 1). The calling thread participates in
  /// every parallelFor, so the pool spawns workers-1 background threads.
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned workers() const { return workers_; }

  /// True on a thread currently executing a parallelFor task (pool worker or
  /// participating caller). The flag is what makes nesting safe: see below.
  [[nodiscard]] static bool insideWorker();

  /// Runs fn(0) .. fn(count-1) across the pool and blocks until all have
  /// finished. Work is handed out through an atomic next-index counter, so
  /// any worker may run any index.
  ///
  /// Failure policy: every index runs, whatever the others do. If any task
  /// threw, the exception of the lowest-indexed failing task is rethrown
  /// here after all workers have stopped, so the propagated exception is the
  /// same whatever the interleaving. Failures of OTHER tasks are never
  /// silently lost: each is logged and recorded as a kParallel/
  /// kWorkerFailure trace event on the calling thread's recorder, in index
  /// order, before the rethrow.
  ///
  /// Called from inside a worker (nested parallelism), with one worker, or
  /// for a single task, the whole loop runs inline on the calling thread in
  /// index order; the pool is not touched. One parallelFor may be in flight
  /// at a time per pool (asserted); the inline nested path is exempt, which
  /// is exactly what lets a sharded simulation share its pool with the
  /// campaign trials that run it.
  void parallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& fn);

  /// parallelFor, collecting one result per index. Results come back in
  /// index order regardless of which worker ran what — fold them left to
  /// right for worker-count-independent output.
  template <typename R>
  [[nodiscard]] std::vector<R> map(std::size_t count,
                                   const std::function<R(std::size_t)>& fn) {
    std::vector<R> results(count);
    parallelFor(count, [&](std::size_t i) { results[i] = fn(i); });
    return results;
  }

 private:
  struct Impl;
  Impl* impl_;           ///< pimpl: keeps <mutex>/<condition_variable> out of
                         ///< every include site of this hot-ish header
  unsigned workers_{1};
};

}  // namespace blackdp::sim
