// Persistent worker pool with one shared work queue: the one thread
// primitive of the library, behind the sweep batches and the benches.
//
// A ThreadPool creates its workers once and reuses them for every
// subsequent batch, so a long-running process that issues many sweeps pays
// thread start-up exactly once. Indices are claimed from a shared atomic
// counter (work stealing), so uneven task costs balance across workers
// without static partitioning; the calling thread participates as one of
// the workers, and for_each blocks until the whole batch has drained.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace spmwcet::support {

/// Maps the user-facing jobs knob to a worker count: 0 = all hardware
/// threads, and a platform that cannot report its core count gets 1.
inline unsigned resolve_jobs(unsigned jobs) {
  if (jobs == 0) jobs = std::thread::hardware_concurrency();
  return jobs == 0 ? 1u : jobs;
}

class ThreadPool {
public:
  /// `jobs` follows the user-facing knob: 0 = all hardware threads, 1 = no
  /// extra threads (for_each runs in place on the calling thread).
  explicit ThreadPool(unsigned jobs = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Pool width, counting the calling thread that joins each batch.
  unsigned workers() const { return workers_; }

  /// Calls fn(i) for every i in [0, count) and returns once all calls have
  /// finished. fn must be safe to call concurrently for distinct indices and
  /// must not let exceptions escape (they would terminate a worker thread).
  /// Concurrent for_each calls are serialized, so the pool itself may be
  /// shared freely.
  void for_each(std::size_t count, const std::function<void(std::size_t)>& fn);

private:
  void worker_loop();

  unsigned workers_;
  std::vector<std::thread> threads_;

  // Batch state, guarded by mu_. A batch is published by bumping generation_;
  // workers claim indices from next_ and report completion via active_.
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  uint64_t generation_ = 0;
  std::size_t count_ = 0;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::atomic<std::size_t> next_{0};
  std::size_t active_ = 0;
  bool stop_ = false;

  std::mutex batch_mu_; ///< serializes concurrent for_each callers
};

} // namespace spmwcet::support
