#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

namespace hdov {

namespace {

// How long an idle worker polls for a new task before it sleeps. Back-to-
// back ParallelFor calls (a server's frame rounds) submit their next tasks
// within microseconds of the last ones finishing; a worker still polling
// takes them at once, where a sleeping one first has to be woken, which
// on a virtual machine can mean waiting for the host to run a halted
// vCPU again.
constexpr auto kIdleSpin = std::chrono::microseconds(50);

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads <= 1) {
    return;  // Inline mode.
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    queued_.store(queue_.size(), std::memory_order_relaxed);
    wake = sleepers_ > 0;
  }
  if (wake) {
    work_cv_.notify_one();
  }
}

void ThreadPool::Wait() {
  if (workers_.empty()) {
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

bool ThreadPool::SpinForWork() const {
  const auto until = std::chrono::steady_clock::now() + kIdleSpin;
  do {
    if (queued_.load(std::memory_order_relaxed) > 0) {
      return true;
    }
    std::this_thread::yield();
  } while (std::chrono::steady_clock::now() < until);
  return false;
}

void ThreadPool::WorkerLoop() {
  bool spin = true;  // False once an idle spell has polled in vain.
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (queue_.empty() && !shutdown_ && spin) {
        lock.unlock();
        spin = SpinForWork();
        continue;
      }
      ++sleepers_;
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      --sleepers_;
      if (queue_.empty()) {
        return;  // Shutdown with a drained queue.
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      queued_.store(queue_.size(), std::memory_order_relaxed);
      ++active_;
    }
    spin = true;
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) {
        idle_cv_.notify_all();
      }
    }
  }
}

void ThreadPool::ParallelFor(
    size_t n, const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (workers_.empty()) {
    for (size_t i = 0; i < n; ++i) {
      fn(0, i);
    }
    return;
  }
  // Self-scheduling: each participant grabs the next unclaimed index.
  // Dynamic assignment load-balances variable per-item cost; determinism
  // is the caller's per-index independence, not the schedule.
  //
  // The call returns when its n items have run, not when every submitted
  // task has: a worker that reaches its task after the last index was
  // claimed finds nothing to do, and the caller does not wait for it to
  // wake up. Such a late task holds the claim state alive itself and never
  // calls `fn` (every index is claimed), so `fn` and the slots are free
  // once the call returns.
  struct Call {
    Call(size_t n, const std::function<void(size_t, size_t)>* fn)
        : n(n), fn(fn) {}
    const size_t n;
    const std::function<void(size_t, size_t)>* const fn;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};  // Items finished.
    std::mutex mu;                // Orders the last item's wake-up.
    std::condition_variable done_cv;
  };
  auto call = std::make_shared<Call>(n, &fn);
  auto drain = [](Call& c, size_t slot) {
    size_t finished = 0;
    for (size_t i = c.next.fetch_add(1); i < c.n; i = c.next.fetch_add(1)) {
      (*c.fn)(slot, i);
      ++finished;
    }
    if (finished > 0 &&
        c.done.fetch_add(finished, std::memory_order_acq_rel) + finished ==
            c.n) {
      { std::lock_guard<std::mutex> lock(c.mu); }
      c.done_cv.notify_all();
    }
  };
  const size_t participants = std::min(workers_.size(), n);
  for (size_t w = 0; w < participants; ++w) {
    Submit([call, drain, w] { drain(*call, w); });
  }
  drain(*call, workers_.size());  // The calling thread helps, on its own slot.
  const auto finished = [&call] {
    return call->done.load(std::memory_order_acquire) == call->n;
  };
  const auto until = std::chrono::steady_clock::now() + kIdleSpin;
  while (!finished() && std::chrono::steady_clock::now() < until) {
    std::this_thread::yield();
  }
  std::unique_lock<std::mutex> lock(call->mu);
  call->done_cv.wait(lock, finished);
}

size_t ThreadPool::ResolveThreads(size_t requested) {
  if (requested != 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

}  // namespace hdov
