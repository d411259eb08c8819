// Fixed-size worker pool for embarrassingly parallel harness work (the
// policy sweep, future study fan-outs). Deliberately minimal: a mutex-
// guarded FIFO queue, submit() returning a std::future that propagates
// exceptions, and a parallel_for() convenience that fails fast with the
// first worker exception. Tasks must not submit to the pool they run on
// (no work stealing, so that can deadlock when all workers wait).
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

/// Run body(i) for every i in [0, n) on `pool`, blocking until all
/// iterations finish. If any iteration throws, the first exception (in
/// index order) is rethrown after every iteration has completed.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace dicer::util
