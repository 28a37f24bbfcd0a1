#pragma once
// Work-stealing thread pool — the execution substrate of the concurrent
// query engine (engine/scheduler.hpp) and the tile-parallel executors
// (engine/parallel_exec.hpp).
//
// Design (deliberately boring, in the Blumofe–Leiserson shape):
//   * every worker owns a deque; the owner pushes/pops its back (LIFO, cache
//     warm), idle workers steal from other deques' front (FIFO, oldest task
//     — the one most likely to represent a large untouched chunk of work);
//   * submit() distributes tasks round-robin so stealing is the exception,
//     not the common path;
//   * parallel_for() chops an index range into grain-sized chunks behind a
//     shared atomic cursor.  The *calling* thread participates: it claims
//     chunks like any worker and only sleeps once no chunk remains, so a
//     parallel_for issued while every pool worker is busy with other queries
//     still completes (degraded to serial) instead of deadlocking — the
//     property that lets many concurrent queries share one pool.
//
// A pool of size 0 is valid and runs everything inline on the caller; the
// engine uses it as its "serial execution" mode.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mmir {

class ThreadPool {
 public:
  /// Spawns `workers` threads.  0 is valid: no threads, all work runs inline
  /// on the submitting/calling thread.
  explicit ThreadPool(std::size_t workers);

  /// Joins after draining every queued task.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const noexcept { return workers_.size(); }

  /// Maximum number of threads parallel_for() may run a body on at once:
  /// every pool worker plus the calling thread.  Callers size per-worker
  /// state arrays with this; the body's worker index is < slot_count().
  [[nodiscard]] std::size_t slot_count() const noexcept { return workers_.size() + 1; }

  /// Enqueues a fire-and-forget task.  With zero workers the task runs
  /// inline before submit returns.
  void submit(std::function<void()> task);

  /// Enqueues a latency-critical task into a shared front-of-line queue that
  /// every worker drains before its own deque.  Hedged duplicates of
  /// straggler shards (engine/fault_domain.hpp) go through here: a hedge
  /// queued behind the very backlog that made the primary straggle would
  /// defeat its purpose.  With zero workers the task runs inline.
  void submit_urgent(std::function<void()> task);

  /// Chunked parallel-for over [begin, end): splits the range into chunks of
  /// at most `grain` indices and executes `body(chunk_begin, chunk_end,
  /// slot)` across the pool workers and the calling thread.  `slot` is a
  /// dense per-invocation worker index in [0, slot_count()); two chunks with
  /// the same slot never run concurrently, so body may use slot to index
  /// unsynchronized per-worker state.  Returns once every chunk has run;
  /// the completion handshake is acquire/release, so everything the bodies
  /// wrote happens-before the return.  A body that throws stops the loop:
  /// chunks not yet claimed are skipped, chunks already running finish, and
  /// the first exception is rethrown on the caller once no runner holds
  /// `body` any more.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::size_t self);
  /// Wakes one sleeping worker after pending_ was raised.
  void wake_one();
  bool try_pop(std::size_t self, std::function<void()>& out);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  WorkerQueue urgent_;  ///< shared front-of-line queue; drained before own work
  std::vector<std::thread> workers_;
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> urgent_count_{0};
  std::atomic<std::size_t> push_cursor_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace mmir
