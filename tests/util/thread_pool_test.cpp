#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
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

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, hits.size(),
               [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, HandlesZeroIterations) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ParallelFor, RethrowsFirstExceptionAfterCompletion) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    parallel_for(pool, 100, [&completed](std::size_t i) {
      if (i == 13 || i == 57) throw std::invalid_argument("iteration boom");
      completed.fetch_add(1);
    });
    FAIL() << "expected exception";
  } catch (const std::invalid_argument&) {
  }
  // All non-throwing iterations ran despite the failures.
  EXPECT_EQ(completed.load(), 98);
}

}  // namespace
}  // namespace dicer::util
