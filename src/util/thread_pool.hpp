// A minimal fork-join thread pool for the parallel model checker and the
// parallel trace tester.  Tasks are submitted in batches and joined with a
// barrier; this matches the level-synchronized BFS structure of the model
// checker, which is the only parallel pattern this library needs.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "util/assert.hpp"

namespace scv {

class ThreadPool {
 public:
  /// Creates a pool with `workers` threads.  `workers == 0` means "run
  /// everything inline on the calling thread" (useful for deterministic
  /// debugging and for single-core hosts).
  ///
  /// With `pin`, each worker is pinned to the i-th CPU of the process
  /// affinity mask (Linux only; elsewhere, or when the mask has fewer CPUs
  /// than workers, pinning is skipped).  Pinning keeps a worker's cache-
  /// resident scratch (product copies, canonicalizer signature caches) on
  /// one core across fork-join barriers; it is wrong for oversubscribed
  /// runs, where two workers pinned to one CPU would serialize, so callers
  /// opt in only when they know workers <= available CPUs.
  explicit ThreadPool(std::size_t workers, bool pin = false) {
    threads_.reserve(workers);
#if defined(__linux__)
    cpu_set_t mask;
    std::vector<int> cpus;
    if (pin && sched_getaffinity(0, sizeof(mask), &mask) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
      }
    }
    const bool do_pin = pin && cpus.size() >= workers && workers > 0;
#endif
    for (std::size_t i = 0; i < workers; ++i) {
      threads_.emplace_back([this, i] { worker_loop(i); });
#if defined(__linux__)
      if (do_pin) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[i], &one);
        // Best-effort: a failed setaffinity (cgroup change mid-flight)
        // degrades to an unpinned worker, never an error.
        (void)pthread_setaffinity_np(threads_.back().native_handle(),
                                     sizeof(one), &one);
      }
#endif
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  /// Runs fn(worker_index) on every worker (and, if there are no workers,
  /// once inline with index 0).  Blocks until all invocations finish.
  void run_on_all(const std::function<void(std::size_t)>& fn) {
    if (threads_.empty()) {
      fn(0);
      return;
    }
    {
      std::lock_guard lock(mu_);
      SCV_EXPECTS(task_ == nullptr);
      task_ = &fn;
      pending_ = threads_.size();
      ++generation_;
    }
    cv_.notify_all();
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    task_ = nullptr;
  }

 private:
  void worker_loop(std::size_t index) {
    std::uint64_t seen_generation = 0;
    for (;;) {
      const std::function<void(std::size_t)>* task = nullptr;
      {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [&] {
          return stopping_ || generation_ != seen_generation;
        });
        if (stopping_) return;
        seen_generation = generation_;
        task = task_;
      }
      (*task)(index);
      {
        std::lock_guard lock(mu_);
        if (--pending_ == 0) done_cv_.notify_all();
      }
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t pending_ = 0;
  std::uint64_t generation_ = 0;
  bool stopping_ = false;
};

}  // namespace scv
