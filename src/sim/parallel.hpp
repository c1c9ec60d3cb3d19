// Parallel trial runner.
//
// Benches and sweeps repeat the same seeded experiment hundreds of times;
// the trials are embarrassingly parallel (each owns its simulator, RNG
// streams, scenario, and metrics), so the runner fans them out across a
// pool of std::thread workers and the caller folds the per-trial results
// *in submission order*. That ordering is the whole determinism contract:
// results are produced into a slot per index, never appended as they
// finish, so the merged output is bit-identical for any worker count.
//
// Rules for task bodies:
//   - own every stateful object (Simulator, SeedSequence, scenario world,
//     MetricsRegistry) — never share one between tasks;
//   - process-global observability is per-thread: a TraceRecorder installed
//     on the main thread is invisible inside a task (obs::Trace is
//     thread-local), and logging level/sink must not be reconfigured while
//     tasks run (emission itself is serialised);
//   - fold RNG-bearing results on the caller's thread after run()/map()
//     returns, in index order.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/thread_pool.hpp"

namespace blackdp::obs {
class MetricsRegistry;
}  // namespace blackdp::obs

namespace blackdp::sim {

/// Resolves a worker count: `requested` when nonzero, else the BLACKDP_JOBS
/// environment variable, else std::thread::hardware_concurrency(); never
/// less than 1.
[[nodiscard]] unsigned resolveJobCount(unsigned requested = 0);

/// The message of a caught task exception ("unknown exception" when it is
/// not a std::exception).
[[nodiscard]] std::string describeException(const std::exception_ptr& error);

/// A worker exception that was caught but NOT rethrown by forEachIndex
/// (only the lowest-indexed failing task's exception propagates).
struct WorkerFailure {
  std::size_t index{0};  ///< task index whose body threw
  std::string what;      ///< exception message, or "unknown exception"
};

class ParallelRunner {
 public:
  /// `jobs` as per resolveJobCount (0 = env / hardware default).
  explicit ParallelRunner(unsigned jobs = 0);

  [[nodiscard]] unsigned jobs() const { return jobs_; }

  /// Optional sink: every swallowed worker failure bumps the
  /// `parallel.worker_failures` counter there (recorded on the calling
  /// thread, before the rethrow). The registry must outlive the runner.
  void setMetrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Runs fn(0) ... fn(count-1) across the pool and blocks until all have
  /// finished. With one job everything runs inline on the caller's thread.
  /// If any task throws, the exception of the lowest-indexed failing task is
  /// rethrown here after all workers have stopped. Failures of OTHER tasks
  /// are never silently lost: each is logged, emitted as a
  /// kParallel/kWorkerFailure trace event (calling thread's recorder), and
  /// queryable via swallowedFailures() until the next run.
  ///
  /// Nested-parallelism guard: called from inside a pool worker (a task body
  /// that itself fans out — e.g. a sharded trial inside a parallel
  /// campaign), the loop runs inline and serially on that worker, exactly
  /// like jobs == 1. The jobs budget always stays with the outermost
  /// parallel level; inner levels never oversubscribe the machine with
  /// jobs_outer * jobs_inner threads. Submission-order folding is unaffected
  /// (serial in index order IS submission order).
  void forEachIndex(std::size_t count,
                    const std::function<void(std::size_t)>& fn) const;

  /// The runner's persistent worker pool, created on first use (so a
  /// jobs == 1 runner never spawns a thread). Exposed for reuse by
  /// shard::ShardedSimulation: one pool serves both the per-epoch shard
  /// fan-out and any trial-level forEachIndex, and the shared
  /// ThreadPool::insideWorker() flag keeps the two levels from nesting.
  [[nodiscard]] ThreadPool& threadPool() const;

  /// Failures from the most recent forEachIndex()/map() call that were not
  /// rethrown, in task-index order. Empty when at most one task failed.
  [[nodiscard]] const std::vector<WorkerFailure>& swallowedFailures() const {
    return swallowedFailures_;
  }

  /// forEachIndex, collecting one result per index. Results come back in
  /// index order regardless of which worker ran what — fold them left to
  /// right for thread-count-independent output.
  template <typename R>
  [[nodiscard]] std::vector<R> map(
      std::size_t count, const std::function<R(std::size_t)>& fn) const {
    std::vector<R> results(count);
    forEachIndex(count, [&](std::size_t i) { results[i] = fn(i); });
    return results;
  }

 private:
  unsigned jobs_{1};
  obs::MetricsRegistry* metrics_{nullptr};
  /// Lazily created by threadPool() / the first parallel forEachIndex.
  mutable std::unique_ptr<ThreadPool> pool_;
  /// Reset at the start of each forEachIndex call (caller thread only).
  mutable std::vector<WorkerFailure> swallowedFailures_;
};

}  // namespace blackdp::sim
