// Fixed-size worker pool for embarrassingly parallel work (the
// consolidation grid behind the baseline study, the policy sweep and the
// ablation; the trace catalog's profiles; the fleet's data plane).
// Deliberately minimal: a mutex-guarded FIFO queue, submit() returning a
// std::future that propagates exceptions, and a TaskGroup that submits now
// and collects later. A thread waiting on a TaskGroup does not idle: it
// runs queued jobs itself (run_one()) until the queue is empty, then blocks
// on what the workers still hold. Tasks must not submit to the pool they
// run on (no stealing between workers, so that can deadlock when all
// workers wait).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace dicer::util {

class ThreadPool {
 public:
  /// Spawns `workers` threads (clamped to >= 1).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueue `fn` and get a future for its result; an exception thrown by
  /// the task is rethrown from future::get().
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    enqueue([task]() { (*task)(); });
    return fut;
  }

  /// Pop the oldest queued job and run it on the calling thread; false
  /// (and nothing run) when the queue is empty. The job's exception, if
  /// any, lands in its future as on a worker.
  bool run_one();

  /// std::thread::hardware_concurrency(), never 0.
  static unsigned hardware_workers() noexcept;

  /// Resolve a requested worker count: non-zero requests win; 0 consults
  /// the environment variable `env_var` (when non-null), then falls back
  /// to hardware concurrency. The env value must be a plain unsigned
  /// integer — partial parses ("4x"), signs and whitespace are rejected
  /// with a warning; 0 is diagnosed and ignored. A request or env value
  /// above 4x the hardware thread count is clamped (with a warning) to
  /// that cap. The result is always >= 1.
  static unsigned resolve_jobs(unsigned requested,
                               const char* env_var = nullptr);

 private:
  void enqueue(std::function<void()> job);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// A batch of tasks collected together: run() starts a task now — on
/// `pool`, or inline when the pool is null — and wait() blocks until every
/// task has finished, then rethrows the first exception in submission
/// order. While the pool's queue holds jobs, wait() runs them on the
/// caller (the caller keeps one group in flight at a time, so the queue
/// holds only this group's tasks) and returns how many it ran. The
/// destructor waits as well (dropping any exception), so a
/// throw between run() and wait() never leaves a task running against
/// the caller's freed locals: declare the group after what its tasks use.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) noexcept : pool_(pool) {}
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void run(std::function<void()> task);
  /// Returns the number of this group's tasks the calling thread ran.
  std::size_t wait();

 private:
  ThreadPool* pool_;
  std::vector<std::future<void>> pending_;
};

/// The pool of a caller that submits one TaskGroup and then waits on it,
/// for a job that may use `threads` threads: the waiting caller runs
/// queued tasks itself, so it is the last of them and the pool gets
/// threads - 1 workers. Null when threads <= 1: the group's tasks then
/// run inline on the caller.
std::unique_ptr<ThreadPool> waiting_caller_pool(unsigned threads);

}  // namespace dicer::util
