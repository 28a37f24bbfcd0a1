#include "engine/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

namespace mmir {

ThreadPool::ThreadPool(std::size_t workers) {
  queues_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) queues_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stopping_.store(true, std::memory_order_release);
  {
    // Empty critical section: pairs with the wait in worker_loop so no
    // worker can re-check its predicate between our store and notify.
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  sleep_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (queues_.empty()) {
    task();  // zero-worker pool: degrade to inline execution
    return;
  }
  const std::size_t target = push_cursor_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  wake_one();
}

void ThreadPool::submit_urgent(std::function<void()> task) {
  if (queues_.empty()) {
    task();  // zero-worker pool: degrade to inline execution
    return;
  }
  {
    std::lock_guard<std::mutex> lock(urgent_.mutex);
    urgent_.tasks.push_back(std::move(task));
  }
  urgent_count_.fetch_add(1, std::memory_order_release);
  pending_.fetch_add(1, std::memory_order_release);
  wake_one();
}

void ThreadPool::wake_one() {
  {
    // Empty critical section, as in the destructor: a worker that read
    // pending_ == 0 under the lock is blocked in wait() before we get it, so
    // the notify cannot fall between its check and its sleep.
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::try_pop(std::size_t self, std::function<void()>& out) {
  // Urgent lane first: these tasks are latency-critical by contract and must
  // not wait behind any queue's backlog.  The atomic pre-check keeps the
  // common no-urgent-work path lock-free.
  if (urgent_count_.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> lock(urgent_.mutex);
    if (!urgent_.tasks.empty()) {
      out = std::move(urgent_.tasks.front());
      urgent_.tasks.pop_front();
      urgent_count_.fetch_sub(1, std::memory_order_relaxed);
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // Own queue next, newest task (LIFO keeps the owner's cache warm)…
  {
    WorkerQueue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      out = std::move(own.tasks.back());
      own.tasks.pop_back();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // …then steal the *oldest* task from a sibling (FIFO steals take the task
  // most likely to fan out into further work).
  for (std::size_t i = 1; i < queues_.size(); ++i) {
    WorkerQueue& victim = *queues_[(self + i) % queues_.size()];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      out = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  std::function<void()> task;
  for (;;) {
    if (try_pop(self, task)) {
      task();
      task = nullptr;
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    sleep_cv_.wait(lock, [this] {
      return stopping_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stopping_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;  // drained: every queued task ran before shutdown
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t total = end - begin;

  struct ForState {
    std::atomic<std::size_t> next;
    std::size_t end = 0;
    std::size_t grain = 0;
    std::size_t total = 0;
    const std::function<void(std::size_t, std::size_t, std::size_t)>* body = nullptr;
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> next_slot{0};
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error;  ///< the first exception a body threw; under mutex
  };
  auto state = std::make_shared<ForState>();
  state->next.store(begin, std::memory_order_relaxed);
  state->end = end;
  state->grain = grain;
  state->total = total;
  state->body = &body;

  // Each runner claims chunks off the shared cursor until none remain.  The
  // caller is always one of the runners, so completion never depends on a
  // pool worker being free.  Late-running stolen/queued runners find the
  // cursor exhausted and exit without touching `body` (which may be gone).
  // A body that throws does not escape its runner: the first exception is
  // kept for the caller, the cursor is run out so no runner claims another
  // chunk, and the chunks nobody will run count as done, so the completion
  // handshake still ends and no runner touches `body` after the caller
  // returns.
  auto run = [](const std::shared_ptr<ForState>& st) {
    const std::size_t slot = st->next_slot.fetch_add(1, std::memory_order_relaxed);
    for (;;) {
      const std::size_t lo = st->next.fetch_add(st->grain, std::memory_order_relaxed);
      if (lo >= st->end) return;
      const std::size_t hi = std::min(lo + st->grain, st->end);
      std::size_t finished = hi - lo;
      try {
        (*st->body)(lo, hi, slot);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(st->mutex);
          if (!st->error) st->error = std::current_exception();
        }
        const std::size_t unclaimed = st->next.exchange(st->end, std::memory_order_relaxed);
        if (unclaimed < st->end) finished += st->end - unclaimed;
      }
      if (st->done.fetch_add(finished, std::memory_order_acq_rel) + finished == st->total) {
        std::lock_guard<std::mutex> lock(st->mutex);
        st->cv.notify_all();
      }
    }
  };

  const std::size_t chunks = (total + grain - 1) / grain;
  const std::size_t helpers = std::min(worker_count(), chunks > 1 ? chunks - 1 : 0);
  for (std::size_t i = 0; i < helpers; ++i) submit([state, run] { run(state); });
  run(state);  // the calling thread participates

  std::unique_lock<std::mutex> lock(state->mutex);
  state->cv.wait(lock,
                 [&] { return state->done.load(std::memory_order_acquire) == state->total; });
  // Move the exception out of the shared state: a helper may drop the last
  // reference to the state after we return, and must not be the one that
  // frees the exception the caller is still handling.
  if (std::exception_ptr error = std::exchange(state->error, nullptr)) {
    std::rethrow_exception(error);
  }
}

}  // namespace mmir
