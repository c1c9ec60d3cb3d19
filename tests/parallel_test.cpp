// Pins the worker pool's contracts: results come back slotted by submission
// index, so a fold over them is bit-identical for any worker count; every
// task runs and the lowest-indexed failure propagates; nested calls run
// inline. (The end-to-end jobs-independence pin over a real workload lives
// in campaign_test.cpp, on the campaign engine.)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "codec/checkpoint.hpp"
#include "obs/trace.hpp"
#include "sim/thread_pool.hpp"

namespace blackdp {
namespace {

/// Restores (or clears) BLACKDP_JOBS on scope exit so tests can't leak env
/// state into each other.
class ScopedJobsEnv {
 public:
  explicit ScopedJobsEnv(const char* value) {
    if (const char* prev = std::getenv("BLACKDP_JOBS")) previous_ = prev;
    if (value != nullptr) {
      ::setenv("BLACKDP_JOBS", value, 1);
    } else {
      ::unsetenv("BLACKDP_JOBS");
    }
  }
  ~ScopedJobsEnv() {
    if (previous_.empty()) {
      ::unsetenv("BLACKDP_JOBS");
    } else {
      ::setenv("BLACKDP_JOBS", previous_.c_str(), 1);
    }
  }
  ScopedJobsEnv(const ScopedJobsEnv&) = delete;
  ScopedJobsEnv& operator=(const ScopedJobsEnv&) = delete;

 private:
  std::string previous_;
};

TEST(ResolveJobCountTest, ExplicitRequestWins) {
  const ScopedJobsEnv env{"7"};
  EXPECT_EQ(sim::resolveJobCount(3), 3u);
}

TEST(ResolveJobCountTest, FallsBackToEnvironmentVariable) {
  const ScopedJobsEnv env{"5"};
  EXPECT_EQ(sim::resolveJobCount(0), 5u);
}

TEST(ResolveJobCountTest, IgnoresGarbageEnvironmentValue) {
  const unsigned hardware = std::thread::hardware_concurrency();
  // Anything but one whole decimal token in 1..kMaxJobs falls through to the
  // hardware default: a trailing character, a value that would wrap or
  // exceed the bound, a sign, nothing at all.
  for (const char* garbage :
       {"banana", "4abc", "4294967297", "100000", "-2", ""}) {
    const ScopedJobsEnv env{garbage};
    EXPECT_EQ(sim::resolveJobCount(0), hardware > 0 ? hardware : 1u)
        << "BLACKDP_JOBS='" << garbage << "'";
  }
  const ScopedJobsEnv env{"1024"};
  EXPECT_EQ(sim::resolveJobCount(0), sim::kMaxJobs);
}

TEST(ResolveJobCountTest, NeverReturnsZero) {
  const ScopedJobsEnv env{nullptr};
  EXPECT_GE(sim::resolveJobCount(0), 1u);
}

TEST(ThreadPoolTest, MapReturnsResultsInSubmissionOrder) {
  sim::ThreadPool pool{4};
  const std::vector<std::size_t> results =
      pool.map<std::size_t>(257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(results.size(), 257u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

TEST(ThreadPoolTest, ParallelForRunsEveryTaskExactlyOnce) {
  sim::ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(100);
  pool.parallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, LowestIndexedFailureIsRethrown) {
  // Inline (one worker) and across the pool: every task runs despite the
  // failures, then the lowest-indexed exception propagates.
  for (const unsigned workers : {1u, 4u}) {
    sim::ThreadPool pool{workers};
    std::atomic<int> ran{0};
    EXPECT_THROW(
        {
          try {
            pool.parallelFor(64, [&ran](std::size_t i) {
              ++ran;
              if (i >= 10) {
                throw std::runtime_error("task " + std::to_string(i));
              }
            });
          } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "task 10");
            throw;
          }
        },
        std::runtime_error);
    EXPECT_EQ(ran.load(), 64) << workers << " workers";
  }
}

TEST(ThreadPoolTest, SuppressedFailuresAreRecordedSortedByIndex) {
  sim::ThreadPool pool{4};
  obs::MemoryRecorder recorder;
  const obs::ScopedTraceRecorder scoped{&recorder};
  try {
    pool.parallelFor(64, [](std::size_t i) {
      if (i == 7 || i == 23 || i == 41) {
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
    FAIL() << "expected the lowest-indexed exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 7");
  }
  // The two failures the rethrow suppressed are traced on the calling
  // thread, in index order, with their messages preserved.
  const std::vector<obs::TraceEvent>& traced = recorder.events();
  ASSERT_EQ(traced.size(), 2u);
  for (const obs::TraceEvent& event : traced) {
    EXPECT_EQ(event.kind, obs::EventKind::kParallel);
    EXPECT_EQ(event.op,
              static_cast<std::uint8_t>(obs::ParallelOp::kWorkerFailure));
  }
  EXPECT_EQ(traced[0].value, 23u);
  EXPECT_EQ(traced[0].detail, "task 23");
  EXPECT_EQ(traced[1].value, 41u);
  EXPECT_EQ(traced[1].detail, "task 41");
}

TEST(ThreadPoolTest, SingleJobRunsInline) {
  sim::ThreadPool pool{1};
  EXPECT_EQ(pool.workers(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  pool.parallelFor(8, [caller](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

// A worker that dies while writing a checkpoint must propagate its exception
// through parallelFor AND leave the checkpoint file either absent or intact
// — never a partial write, never a stray temp file (write-to-temp + atomic
// rename). This is the campaign-manifest / stream-checkpoint crash contract.
TEST(ThreadPoolTest, WorkerExceptionDuringCheckpointWriteLeavesNoPartialFile) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path{::testing::TempDir()} / "blackdp_parallel_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "campaign.ckpt").string();
  const common::Bytes original{1, 2, 3};
  ASSERT_TRUE(codec::writeFileAtomic(path, original).ok());

  sim::ThreadPool pool{4};
  EXPECT_THROW(
      pool.parallelFor(4,
                       [&](std::size_t i) {
                         if (i != 2) return;
                         // The hook fires after the temp write, before the
                         // rename — the instant a kill would tear a naive
                         // in-place rewrite.
                         (void)codec::writeFileAtomic(
                             path, common::Bytes{9, 9, 9, 9}, [] {
                               throw std::runtime_error{"disk failure"};
                             });
                       }),
      std::runtime_error);

  const auto read = codec::readFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), original);
  for (const auto& entry : fs::directory_iterator{dir}) {
    EXPECT_NE(entry.path().extension(), ".tmp")
        << "partial checkpoint left behind: " << entry.path();
  }
  fs::remove_all(dir);
}


TEST(ThreadPoolTest, NestedParallelismRunsInlineOnTheWorker) {
  // A ShardedSimulation (or any other user of a shared pool) may itself
  // live inside a parallel campaign trial. The nested call must degrade to
  // serial on the worker thread instead of re-entering the pool — the jobs
  // budget stays with the outermost level.
  sim::ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(64);
  std::atomic<int> nestedOffWorkerThread{0};
  pool.parallelFor(8, [&](std::size_t outer) {
    EXPECT_TRUE(sim::ThreadPool::insideWorker());
    const std::thread::id worker = std::this_thread::get_id();
    pool.parallelFor(8, [&, outer, worker](std::size_t inner) {
      if (std::this_thread::get_id() != worker) ++nestedOffWorkerThread;
      ++hits[outer * 8 + inner];
    });
  });
  // Every nested task ran exactly once, and none escaped its worker.
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
  EXPECT_EQ(nestedOffWorkerThread.load(), 0);
}

}  // namespace
}  // namespace blackdp
