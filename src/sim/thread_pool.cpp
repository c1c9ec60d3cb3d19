#include "sim/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <string_view>
#include <system_error>
#include <thread>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace blackdp::sim {

namespace {
thread_local bool tlInsideWorker = false;

/// A task body that threw inside parallelFor.
struct FailedTask {
  std::size_t index{0};
  std::exception_ptr error;
};

/// The failure policy of parallelFor: records every failure but the
/// lowest-indexed one (log + trace on the calling thread), then rethrows
/// that one. A no-op when nothing failed.
void rethrowLowest(std::vector<FailedTask>& failures) {
  if (failures.empty()) return;
  std::sort(failures.begin(), failures.end(),
            [](const FailedTask& x, const FailedTask& y) {
              return x.index < y.index;
            });
  for (std::size_t i = 1; i < failures.size(); ++i) {
    const std::string what = describeException(failures[i].error);
    BDP_LOG(kWarn, "parallel")
        << "task " << failures[i].index << " also failed (suppressed by task "
        << failures.front().index << "): " << what;
    if (auto* tr = obs::Trace::active()) {
      tr->record({0, obs::EventKind::kParallel,
                  static_cast<std::uint8_t>(obs::ParallelOp::kWorkerFailure),
                  0, 0, 0, 0, 0, failures[i].index, what});
    }
  }
  std::rethrow_exception(failures.front().error);
}

/// RAII set/restore of the nested-parallelism flag (the caller participates
/// in its own parallelFor, so the flag must come back off afterwards).
struct WorkerScope {
  bool previous;
  WorkerScope() : previous{tlInsideWorker} { tlInsideWorker = true; }
  ~WorkerScope() { tlInsideWorker = previous; }
  WorkerScope(const WorkerScope&) = delete;
  WorkerScope& operator=(const WorkerScope&) = delete;
};
}  // namespace

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable wakeWorkers;
  std::condition_variable jobDone;
  std::vector<std::thread> threads;

  // Current job, published under `mutex`; generation bumps wake the workers.
  std::uint64_t generation{0};
  std::size_t count{0};
  const std::function<void(std::size_t)>* fn{nullptr};
  std::atomic<std::size_t> next{0};
  std::size_t activeWorkers{0};
  bool shutdown{false};
  bool jobInFlight{false};

  std::mutex failureMutex;
  /// Guarded by failureMutex while a job runs.
  std::vector<FailedTask> failures;

  void workLoop() {
    while (true) {
      const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= count) return;
      try {
        (*fn)(index);
      } catch (...) {
        const std::scoped_lock lock{failureMutex};
        failures.push_back({index, std::current_exception()});
      }
    }
  }

  void workerThread() {
    std::uint64_t seen = 0;
    while (true) {
      {
        std::unique_lock lock{mutex};
        wakeWorkers.wait(lock,
                         [&] { return shutdown || generation != seen; });
        if (shutdown) return;
        seen = generation;
      }
      {
        WorkerScope scope;
        workLoop();
      }
      {
        const std::scoped_lock lock{mutex};
        if (--activeWorkers == 0) jobDone.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(unsigned workers)
    : impl_{new Impl}, workers_{workers == 0 ? 1u : workers} {
  impl_->threads.reserve(workers_ - 1);
  for (unsigned w = 1; w < workers_; ++w) {
    impl_->threads.emplace_back([this] { impl_->workerThread(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock{impl_->mutex};
    impl_->shutdown = true;
  }
  impl_->wakeWorkers.notify_all();
  for (std::thread& thread : impl_->threads) thread.join();
  delete impl_;
}

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
    const std::string_view text{env};
    const char* end = text.data() + text.size();
    unsigned parsed = 0;
    const auto [stop, error] = std::from_chars(text.data(), end, parsed);
    if (error == std::errc{} && stop == end && parsed >= 1 &&
        parsed <= kMaxJobs) {
      return parsed;
    }
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

bool ThreadPool::insideWorker() { return tlInsideWorker; }

void ThreadPool::parallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;

  // Nested call (or a one-worker pool): run inline on this thread. The
  // nested path must not wait on the pool — the pool's workers may be the
  // very threads executing the outer level.
  if (tlInsideWorker || workers_ == 1 || count == 1) {
    std::vector<FailedTask> failures;
    {
      WorkerScope scope;
      for (std::size_t i = 0; i < count; ++i) {
        try {
          fn(i);
        } catch (...) {
          failures.push_back({i, std::current_exception()});
        }
      }
    }
    rethrowLowest(failures);
    return;
  }

  {
    std::scoped_lock lock{impl_->mutex};
    BDP_ASSERT_MSG(!impl_->jobInFlight,
                   "ThreadPool::parallelFor is not re-entrant from outside "
                   "the pool — one job at a time");
    impl_->jobInFlight = true;
    impl_->count = count;
    impl_->fn = &fn;
    impl_->next.store(0, std::memory_order_relaxed);
    impl_->activeWorkers = workers_ - 1;
    ++impl_->generation;
  }
  impl_->wakeWorkers.notify_all();

  {
    WorkerScope scope;
    impl_->workLoop();  // the caller is the workers_-th worker
  }

  std::vector<FailedTask> failures;
  {
    std::unique_lock lock{impl_->mutex};
    impl_->jobDone.wait(lock, [&] { return impl_->activeWorkers == 0; });
    impl_->fn = nullptr;
    impl_->jobInFlight = false;
    failures.swap(impl_->failures);
  }
  rethrowLowest(failures);
}

}  // namespace blackdp::sim
