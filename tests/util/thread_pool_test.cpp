#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace dicer::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, ClampsWorkerCountToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(2);
  auto fut = pool.submit(
      []() -> int { throw std::runtime_error("task boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
  // The worker that ran the throwing task must survive for later tasks.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1);
      });
    }
  }  // destructor joins after the queue drains
  EXPECT_EQ(ran.load(), 64);
}

// wait() reports the first exception in submission order, not the first
// to be thrown: the earlier task throws last in wall time.
TEST(ThreadPool, TaskGroupRethrowsFirstExceptionInSubmissionOrder) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  TaskGroup group(&pool);
  group.run([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    throw std::runtime_error("submitted first");
  });
  group.run([] { throw std::logic_error("submitted second"); });
  group.run([&completed] { completed.fetch_add(1); });
  try {
    group.wait();
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "submitted first");
  }
  EXPECT_EQ(completed.load(), 1);
}

// A caller that throws between run() and wait() leaves no task running:
// the group's destructor waits for every one (dropping their exceptions).
TEST(ThreadPool, TaskGroupDestructorWaitsForItsTasks) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  try {
    TaskGroup group(&pool);
    for (int i = 0; i < 8; ++i) {
      group.run([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ran.fetch_add(1);
      });
    }
    group.run([] { throw std::logic_error("dropped"); });
    throw std::runtime_error("caller fails before wait()");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(ran.load(), 8);
}

// Without a pool the group runs each task inline at run(), and still
// defers its exception to wait().
TEST(ThreadPool, TaskGroupWithoutPoolRunsInline) {
  TaskGroup group(nullptr);
  int ran = 0;
  group.run([&ran] { ++ran; });
  EXPECT_EQ(ran, 1);
  group.run([] { throw std::runtime_error("inline boom"); });
  group.run([&ran] { ++ran; });
  EXPECT_EQ(ran, 2);
  EXPECT_THROW(group.wait(), std::runtime_error);
  group.wait();  // the failure was reported once; nothing is pending
}

/// Holds the only worker of a 1-worker pool until destroyed, so a task
/// queued meanwhile can run only on a thread that helps.
class OccupiedWorker {
 public:
  explicit OccupiedWorker(ThreadPool& pool)
      : done_(pool.submit([this] {
          started_.count_down();
          released_.wait();
        })) {
    started_.wait();
  }
  ~OccupiedWorker() {
    release_.set_value();
    done_.get();
  }

  OccupiedWorker(const OccupiedWorker&) = delete;
  OccupiedWorker& operator=(const OccupiedWorker&) = delete;

 private:
  std::latch started_{1};
  std::promise<void> release_;
  std::shared_future<void> released_ = release_.get_future().share();
  std::future<void> done_;
};

// wait() does not sleep while tasks are queued: with the worker busy, the
// waiting thread runs every one of them itself.
TEST(ThreadPool, TaskGroupWaitRunsQueuedTasksOnTheCaller) {
  ThreadPool pool(1);
  OccupiedWorker busy(pool);
  std::vector<std::thread::id> ran_on(8);
  TaskGroup group(&pool);
  for (std::size_t i = 0; i < ran_on.size(); ++i) {
    group.run([&ran_on, i] { ran_on[i] = std::this_thread::get_id(); });
  }
  EXPECT_EQ(group.wait(), ran_on.size());
  for (const auto& id : ran_on) EXPECT_EQ(id, std::this_thread::get_id());
}

// Tasks the caller ran report their exceptions as a worker's would: the
// first in submission order, after every task has run.
TEST(ThreadPool, TaskGroupWaitRethrowsFirstWhenTheCallerRanIt) {
  ThreadPool pool(1);
  OccupiedWorker busy(pool);
  std::vector<std::thread::id> ran_on(8);
  TaskGroup group(&pool);
  for (std::size_t i = 0; i < ran_on.size(); ++i) {
    group.run([&ran_on, i] {
      ran_on[i] = std::this_thread::get_id();
      if (i == 2 || i == 5) {
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
  }
  try {
    group.wait();
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 2");
  }
  for (const auto& id : ran_on) EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(ThreadPool, HardwareWorkersAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_workers(), 1u);
}

// --- resolve_jobs: explicit > env > hardware, with strict env parsing --

namespace {

/// Scoped setenv/unsetenv so tests cannot leak state into each other.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (value) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvGuard() { ::unsetenv(name_); }

 private:
  const char* name_;
};

constexpr const char* kVar = "DICER_TEST_JOBS";

}  // namespace

TEST(ResolveJobs, ExplicitRequestWins) {
  EnvGuard env(kVar, "2");
  EXPECT_EQ(ThreadPool::resolve_jobs(3, kVar), 3u);
}

TEST(ResolveJobs, ReadsEnvWhenUnrequested) {
  // 2 is always under the clamp (4x hardware concurrency, >= 4).
  EnvGuard env(kVar, "2");
  EXPECT_EQ(ThreadPool::resolve_jobs(0, kVar), 2u);
}

TEST(ResolveJobs, UnsetEnvFallsBackToHardware) {
  EnvGuard env(kVar, nullptr);
  EXPECT_EQ(ThreadPool::resolve_jobs(0, kVar),
            ThreadPool::hardware_workers());
}

TEST(ResolveJobs, RejectsPartialParse) {
  // The historical bug: strtoul("4x") silently yielded 4 workers.
  EnvGuard env(kVar, "4x");
  EXPECT_EQ(ThreadPool::resolve_jobs(0, kVar),
            ThreadPool::hardware_workers());
}

TEST(ResolveJobs, RejectsNonNumeric) {
  EnvGuard env(kVar, "many");
  EXPECT_EQ(ThreadPool::resolve_jobs(0, kVar),
            ThreadPool::hardware_workers());
}

TEST(ResolveJobs, RejectsNegative) {
  // strtoul("-1") wraps to ULONG_MAX; the sign must be rejected outright.
  EnvGuard env(kVar, "-1");
  EXPECT_EQ(ThreadPool::resolve_jobs(0, kVar),
            ThreadPool::hardware_workers());
}

TEST(ResolveJobs, RejectsLeadingWhitespace) {
  EnvGuard env(kVar, " 4");
  EXPECT_EQ(ThreadPool::resolve_jobs(0, kVar),
            ThreadPool::hardware_workers());
}

TEST(ResolveJobs, DiagnosesZero) {
  EnvGuard env(kVar, "0");
  EXPECT_EQ(ThreadPool::resolve_jobs(0, kVar),
            ThreadPool::hardware_workers());
}

TEST(ResolveJobs, ClampsOversubscription) {
  EnvGuard env(kVar, "1000000");
  EXPECT_EQ(ThreadPool::resolve_jobs(0, kVar),
            4u * ThreadPool::hardware_workers());
}

TEST(ResolveJobs, ClampsExplicitOversubscription) {
  // An explicit request gets the env value's cap: 100000 workers would
  // spawn 100000 threads.
  EnvGuard env(kVar, nullptr);
  const unsigned cap = 4u * ThreadPool::hardware_workers();
  EXPECT_EQ(ThreadPool::resolve_jobs(100000, kVar), cap);
  EXPECT_EQ(ThreadPool::resolve_jobs(cap, kVar), cap);
  EXPECT_EQ(ThreadPool::resolve_jobs(cap + 1, nullptr), cap);
}

TEST(ResolveJobs, AcceptsSaneValueAtCap) {
  const unsigned cap = 4u * ThreadPool::hardware_workers();
  EnvGuard env(kVar, std::to_string(cap).c_str());
  EXPECT_EQ(ThreadPool::resolve_jobs(0, kVar), cap);
}

TEST(ResolveJobs, NullEnvVarFallsBackToHardware) {
  EXPECT_EQ(ThreadPool::resolve_jobs(0, nullptr),
            ThreadPool::hardware_workers());
}

TEST(ThreadPool, WaitingCallerPoolLeavesTheLastThreadToTheCaller) {
  EXPECT_EQ(waiting_caller_pool(0), nullptr);
  EXPECT_EQ(waiting_caller_pool(1), nullptr);
  const auto two = waiting_caller_pool(2);
  ASSERT_NE(two, nullptr);
  EXPECT_EQ(two->size(), 1u);
  const auto four = waiting_caller_pool(4);
  ASSERT_NE(four, nullptr);
  EXPECT_EQ(four->size(), 3u);
}

}  // namespace
}  // namespace dicer::util
