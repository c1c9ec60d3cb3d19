// Pins the parallel trial runner's determinism contract: results come back
// slotted by submission index, so a fold over them is bit-identical for any
// worker count. (The end-to-end jobs-independence pin over a real workload
// lives in campaign_test.cpp, on the campaign engine.)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "codec/checkpoint.hpp"
#include "obs/registry.hpp"
#include "sim/parallel.hpp"

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
  const ScopedJobsEnv env{"banana"};
  const unsigned resolved = sim::resolveJobCount(0);
  const unsigned hardware = std::thread::hardware_concurrency();
  EXPECT_EQ(resolved, hardware > 0 ? hardware : 1u);
}

TEST(ResolveJobCountTest, NeverReturnsZero) {
  const ScopedJobsEnv env{nullptr};
  EXPECT_GE(sim::resolveJobCount(0), 1u);
}

TEST(ParallelRunnerTest, MapReturnsResultsInSubmissionOrder) {
  const sim::ParallelRunner runner{4};
  const std::vector<std::size_t> results =
      runner.map<std::size_t>(257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(results.size(), 257u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

TEST(ParallelRunnerTest, ForEachIndexRunsEveryTaskExactlyOnce) {
  const sim::ParallelRunner runner{4};
  std::vector<std::atomic<int>> hits(100);
  runner.forEachIndex(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelRunnerTest, LowestIndexedFailureIsRethrown) {
  const sim::ParallelRunner runner{4};
  EXPECT_THROW(
      {
        try {
          runner.forEachIndex(64, [](std::size_t i) {
            if (i >= 10) throw std::runtime_error("task " + std::to_string(i));
          });
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "task 10");
          throw;
        }
      },
      std::runtime_error);
}

TEST(ParallelRunnerTest, SuppressedFailuresAreRecordedSortedByIndex) {
  const sim::ParallelRunner runner{4};
  try {
    runner.forEachIndex(64, [](std::size_t i) {
      if (i == 7 || i == 23 || i == 41) {
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
    FAIL() << "expected the lowest-indexed exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 7");
  }
  // The two failures the rethrow suppressed are queryable, in index order,
  // with their messages preserved.
  const std::vector<sim::WorkerFailure>& swallowed = runner.swallowedFailures();
  ASSERT_EQ(swallowed.size(), 2u);
  EXPECT_EQ(swallowed[0].index, 23u);
  EXPECT_EQ(swallowed[0].what, "task 23");
  EXPECT_EQ(swallowed[1].index, 41u);
  EXPECT_EQ(swallowed[1].what, "task 41");
}

TEST(ParallelRunnerTest, SwallowedFailuresResetOnTheNextRun) {
  const sim::ParallelRunner runner{4};
  try {
    runner.forEachIndex(8, [](std::size_t i) {
      if (i >= 2) throw std::runtime_error("boom");
    });
  } catch (const std::runtime_error&) {
  }
  EXPECT_FALSE(runner.swallowedFailures().empty());
  runner.forEachIndex(8, [](std::size_t) {});
  EXPECT_TRUE(runner.swallowedFailures().empty());
}

TEST(ParallelRunnerTest, SingleJobRunsInline) {
  const sim::ParallelRunner runner{1};
  EXPECT_EQ(runner.jobs(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  runner.forEachIndex(8, [caller](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

// A worker that dies while writing a checkpoint must propagate its exception
// through forEachIndex AND leave the checkpoint file either absent or intact
// — never a partial write, never a stray temp file (write-to-temp + atomic
// rename). This is the campaign-manifest / stream-checkpoint crash contract.
TEST(ParallelRunnerTest, WorkerExceptionDuringCheckpointWriteLeavesNoPartialFile) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path{::testing::TempDir()} / "blackdp_parallel_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "campaign.ckpt").string();
  const common::Bytes original{1, 2, 3};
  ASSERT_TRUE(codec::writeFileAtomic(path, original).ok());

  const sim::ParallelRunner runner{4};
  EXPECT_THROW(
      runner.forEachIndex(4,
                          [&](std::size_t i) {
                            if (i != 2) return;
                            // The hook fires after the temp write, before
                            // the rename — the instant a kill would tear a
                            // naive in-place rewrite.
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


TEST(ParallelRunnerTest, NestedParallelismRunsInlineOnTheWorker) {
  // A ShardedSimulation (or any other consumer of threadPool()) may itself
  // live inside a parallel campaign trial. The nested call must degrade to
  // serial on the worker thread instead of re-entering the pool — the jobs
  // budget stays with the outermost level.
  const sim::ParallelRunner runner{4};
  std::vector<std::atomic<int>> hits(64);
  std::atomic<int> nestedOffWorkerThread{0};
  runner.forEachIndex(8, [&](std::size_t outer) {
    EXPECT_TRUE(sim::ThreadPool::insideWorker());
    const std::thread::id worker = std::this_thread::get_id();
    runner.forEachIndex(8, [&, outer, worker](std::size_t inner) {
      if (std::this_thread::get_id() != worker) ++nestedOffWorkerThread;
      ++hits[outer * 8 + inner];
    });
  });
  // Every nested task ran exactly once, and none escaped its worker.
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
  EXPECT_EQ(nestedOffWorkerThread.load(), 0);
}

TEST(ParallelRunnerTest, ThreadPoolIsExposedAndSharedAcrossCalls) {
  const sim::ParallelRunner runner{3};
  sim::ThreadPool& pool = runner.threadPool();
  EXPECT_EQ(&pool, &runner.threadPool());  // one pool per runner
  EXPECT_EQ(pool.workers(), 3u);
  std::atomic<int> ran{0};
  pool.parallelFor(11, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 11);
  EXPECT_TRUE(pool.failures().empty());
}

}  // namespace
}  // namespace blackdp
