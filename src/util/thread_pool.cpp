#include "util/thread_pool.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <string>

#include "util/log.hpp"

namespace dicer::util {

ThreadPool::ThreadPool(unsigned workers) {
  workers = std::max(1u, workers);
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

unsigned ThreadPool::hardware_workers() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned ThreadPool::resolve_jobs(unsigned requested, const char* env_var) {
  // More workers than 4x the hardware threads only adds contention;
  // clamp (loudly) instead of oversubscribing by orders of magnitude.
  const unsigned long cap = 4ul * hardware_workers();
  const auto capped = [cap](unsigned long v, const std::string& source) {
    if (v <= cap) return static_cast<unsigned>(v);
    DICER_WARN << source << " exceeds 4x hardware concurrency; clamping to "
               << cap;
    return static_cast<unsigned>(cap);
  };
  if (requested != 0) {
    return capped(requested,
                  "a request for " + std::to_string(requested) + " workers");
  }
  if (env_var != nullptr) {
    if (const char* env = std::getenv(env_var)) {
      // Strict parse: digits only. strtoul alone would accept leading
      // whitespace/signs ("-1" wraps to huge) and partial parses ("4x" -> 4).
      char* end = nullptr;
      errno = 0;
      const unsigned long v = std::strtoul(env, &end, 10);
      const bool digits_only =
          env[0] >= '0' && env[0] <= '9' && end && *end == '\0';
      if (!digits_only || errno == ERANGE) {
        DICER_WARN << "ignoring invalid " << env_var << "='" << env
                   << "' (expected an unsigned integer); using "
                   << hardware_workers() << " workers";
        return hardware_workers();
      }
      if (v == 0) {
        DICER_WARN << env_var << "=0 is not a worker count; using "
                   << hardware_workers() << " workers";
        return hardware_workers();
      }
      return capped(v, std::string(env_var) + "=" + std::to_string(v));
    }
  }
  return hardware_workers();
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();  // packaged_task: exceptions land in the future
  }
}

bool ThreadPool::run_one() {
  std::function<void()> job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    job = std::move(queue_.front());
    queue_.pop_front();
  }
  job();
  return true;
}

TaskGroup::~TaskGroup() {
  for (auto& f : pending_) {
    if (f.valid()) f.wait();
  }
}

void TaskGroup::run(std::function<void()> task) {
  if (pool_) {
    pending_.push_back(pool_->submit(std::move(task)));
    return;
  }
  std::packaged_task<void()> inline_task(std::move(task));
  pending_.push_back(inline_task.get_future());
  inline_task();  // an exception lands in the future, as on a worker
}

std::size_t TaskGroup::wait() {
  std::size_t ran = 0;
  while (pool_ && pool_->run_one()) ++ran;
  std::exception_ptr first;
  for (auto& f : pending_) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  pending_.clear();
  if (first) std::rethrow_exception(first);
  return ran;
}

std::unique_ptr<ThreadPool> waiting_caller_pool(unsigned threads) {
  if (threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(threads - 1);
}

}  // namespace dicer::util
