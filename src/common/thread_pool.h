// ThreadPool: a small fixed-size worker pool for embarrassingly parallel
// offline work (DoV precomputation, per-cell V-page derivation). Workers
// pull tasks from one shared FIFO queue; Wait() drains the queue and
// blocks until every running task has finished, so a pool can be reused
// across phases.
//
// ParallelFor is the intended entry point: it self-schedules indices
// [0, n) over the workers (atomic grab, chunked), which load-balances
// work whose per-item cost varies — per-cell visibility cost varies with
// how much of the city a cell sees — without giving up determinism, as
// long as item `i`'s result depends only on `i`.
//
// An idle worker polls the queue briefly before it sleeps, so back-to-back
// ParallelFor calls (a server's frame rounds) reach workers that are still
// awake instead of waking sleeping ones.
//
// With num_threads <= 1 no threads are spawned and everything runs inline
// on the calling thread, preserving single-threaded behavior exactly.

#ifndef HDOV_COMMON_THREAD_POOL_H_
#define HDOV_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hdov {

class ThreadPool {
 public:
  // 0 and 1 both mean "inline": no worker threads are created.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Worker threads owned by the pool (0 in inline mode).
  size_t num_threads() const { return workers_.size(); }

  // Enqueues `task`. In inline mode the task runs before Submit returns.
  // Tasks must not call Submit or Wait on their own pool.
  void Submit(std::function<void()> task);

  // Blocks until the queue is empty and no task is running.
  void Wait();

  // Runs fn(slot, i) for every i in [0, n), spread over the workers plus
  // the calling thread; returns when all n calls have finished, without
  // waiting for workers that have not picked up their share yet. `fn` is
  // invoked concurrently from different threads (never twice for the same
  // i), so it must only touch state disjoint per index, per slot, or
  // thread-safe. `slot` identifies the executing participant — a stable
  // value in [0, num_slots()) — so callers can keep scratch state (e.g. a
  // private CubeMapBuffer) per slot instead of per index.
  void ParallelFor(size_t n,
                   const std::function<void(size_t slot, size_t i)>& fn);

  // Number of distinct `slot` values ParallelFor can pass: the workers
  // plus the calling thread (1 in inline mode).
  size_t num_slots() const { return workers_.size() + 1; }

  // Resolves a user-facing thread-count option: 0 = one worker per
  // hardware thread, otherwise the value itself.
  static size_t ResolveThreads(size_t requested);

 private:
  void WorkerLoop();
  // Polls `queued_` for a short while; true once a task is queued.
  bool SpinForWork() const;

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // Signals workers: task or shutdown.
  std::condition_variable idle_cv_;  // Signals Wait(): pool went idle.
  std::deque<std::function<void()>> queue_;
  std::atomic<size_t> queued_{0};  // queue_.size(), readable without mu_.
  size_t active_ = 0;    // Tasks currently executing.
  size_t sleepers_ = 0;  // Workers blocked on work_cv_.
  bool shutdown_ = false;
};

}  // namespace hdov

#endif  // HDOV_COMMON_THREAD_POOL_H_
