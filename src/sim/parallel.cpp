#include "sim/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/logging.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace blackdp::sim {

std::string describeException(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

unsigned resolveJobCount(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("BLACKDP_JOBS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<unsigned>(parsed);
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

ParallelRunner::ParallelRunner(unsigned jobs) : jobs_{resolveJobCount(jobs)} {}

ThreadPool& ParallelRunner::threadPool() const {
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(jobs_);
  return *pool_;
}

void ParallelRunner::forEachIndex(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  swallowedFailures_.clear();
  if (count == 0) return;
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(jobs_, count));
  // Serial paths: one job, or a nested call from inside a pool worker (the
  // jobs budget belongs to the outer level — degrade to inline, identical
  // to jobs == 1, instead of oversubscribing).
  if (workers <= 1 || ThreadPool::insideWorker()) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  threadPool().parallelFor(count, fn);
  const std::vector<ThreadPool::TaskFailure>& failures =
      threadPool().failures();
  if (failures.empty()) return;

  // Rethrow the lowest-indexed failure so the propagated exception is the
  // same whatever the interleaving — but first record every OTHER failure
  // (log + trace + metrics + swallowedFailures()), so a multi-failure run
  // is never diagnosed blind from just the one rethrown exception.
  // parallelFor already sorted by task index.
  for (std::size_t i = 1; i < failures.size(); ++i) {
    WorkerFailure swallowed{failures[i].index,
                            describeException(failures[i].error)};
    BDP_LOG(kWarn, "parallel")
        << "task " << swallowed.index << " also failed (suppressed by task "
        << failures.front().index << "): " << swallowed.what;
    if (auto* tr = obs::Trace::active()) {
      tr->record({0, obs::EventKind::kParallel,
                  static_cast<std::uint8_t>(obs::ParallelOp::kWorkerFailure),
                  0, 0, 0, 0, 0, swallowed.index, swallowed.what});
    }
    if (metrics_ != nullptr) {
      metrics_->counter("parallel.worker_failures").add(1);
    }
    swallowedFailures_.push_back(std::move(swallowed));
  }
  std::rethrow_exception(failures.front().error);
}

}  // namespace blackdp::sim
