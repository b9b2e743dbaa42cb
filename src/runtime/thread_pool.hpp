// Fixed-size worker pool over a BoundedQueue of type-erased jobs.
//
// Header-only (see bounded_queue.hpp for why): core::profile_device borrows
// the pool for campaign parallelism through parallel_for.  Workers are
// std::jthread, so destruction is exception-safe: the queue closes, queued
// jobs finish, threads join.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/bounded_queue.hpp"

namespace sidis::runtime {

/// Number of workers to use when the caller passes 0 ("auto").
inline std::size_t default_workers() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

/// Resolves a worker-count parameter (0 = auto) against a job count:
/// never more lanes than jobs, never fewer than one.
inline std::size_t resolve_workers(std::size_t workers, std::size_t jobs) {
  const std::size_t w = workers == 0 ? default_workers() : workers;
  return std::max<std::size_t>(1, std::min(w, jobs));
}

class ThreadPool {
 public:
  /// Spawns `workers` threads (0 = hardware concurrency).  `queue_capacity`
  /// bounds the backlog of not-yet-started jobs; submit() blocks beyond it.
  explicit ThreadPool(std::size_t workers = 0, std::size_t queue_capacity = 256)
      : queue_(queue_capacity) {
    const std::size_t n = workers == 0 ? default_workers() : workers;
    threads_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        while (std::optional<std::function<void()>> job = queue_.pop()) (*job)();
      });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() { shutdown(); }

  /// Enqueues one job; blocks while the backlog is at capacity.  Returns
  /// false after shutdown().  Jobs must not throw -- wrap and capture.
  bool submit(std::function<void()> job) { return queue_.push(std::move(job)); }

  /// Stops accepting jobs, runs the backlog to completion, joins.
  void shutdown() {
    queue_.close();
    for (std::jthread& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
  }

  std::size_t size() const { return threads_.size(); }
  std::size_t queue_high_water() const { return queue_.high_water(); }

 private:
  BoundedQueue<std::function<void()>> queue_;
  std::vector<std::jthread> threads_;
};

/// Runs body(i) for i in [0, n) across `workers` threads (0 = auto; <= 1
/// runs inline) and blocks until every index finished.  The first exception
/// thrown by any body is rethrown on the calling thread after the barrier;
/// remaining indices still run (bodies should check their own abort flag for
/// early exit).  Iteration order across threads is unspecified, so bodies
/// must be independent -- give each index its own RNG stream and output slot.
template <typename Body>
void parallel_for(std::size_t n, std::size_t workers, Body&& body) {
  const std::size_t w = std::min(workers == 0 ? default_workers() : workers, n);
  if (w <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::mutex error_mutex;
  std::exception_ptr first_error;
  {
    ThreadPool pool(w, n);
    for (std::size_t i = 0; i < n; ++i) {
      pool.submit([&, i] {
        try {
          body(i);
        } catch (...) {
          std::lock_guard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
    pool.shutdown();  // barrier: runs the backlog, joins the workers
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sidis::runtime
