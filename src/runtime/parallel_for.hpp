// The one fan-out for training, profiling and transfer evaluation.
//
// Header-only: features and core call it, and the compiled half of
// src/runtime depends on core, so a compiled parallel_for would close a
// cycle.  Each call spawns its own std::jthreads; the calling thread takes
// indices too, and every thread claims the next index from one atomic
// counter, so an index costs one fetch_add and no allocation.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

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

/// Runs body(i) for i in [0, n) across `workers` threads (0 = auto; <= 1
/// runs inline) and blocks until every index finished.  The first exception
/// thrown by any body is rethrown on the calling thread after the join;
/// remaining indices still run (bodies should check their own abort flag for
/// early exit).  Iteration order across threads is unspecified, so bodies
/// must be independent -- give each index its own RNG stream and output slot.
template <typename Body>
void parallel_for(std::size_t n, std::size_t workers, Body&& body) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        body(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  {
    const std::size_t lanes = resolve_workers(workers, n);
    std::vector<std::jthread> threads;
    threads.reserve(lanes - 1);
    for (std::size_t t = 1; t < lanes; ++t) threads.emplace_back(drain);
    drain();
  }  // the jthreads join here
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sidis::runtime
