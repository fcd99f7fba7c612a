// AsyncFetchQueue: the background half of the prefetch pipeline — a
// ThreadPool-backed queue of page-run warm requests. Each request names a
// warm target (a BufferPool to populate, or a device whose ReadRaw path
// is the warmer) and a page run; workers pull requests and touch every
// page so the REAL read happens off the render thread.
//
// The queue lives entirely on the wall-clock side of the house: warms go
// through BufferPool::Get and PageDevice::ReadRaw — both unbilled — so
// running it (or not) cannot move a simulated counter. The simulated
// side of prefetch (diverted billing, residency credit) is handled by the
// issuer (prefetch/prefetcher.h) against storage/page_device.h hooks.
//
// Cancellation is per *owner* (an opaque pointer identifying the issuing
// prefetcher): a server shares one queue across sessions, and one
// session's mispredicted plan must not cancel another's warms. Cancel
// bumps the owner's epoch; queued requests carrying a stale epoch are
// dropped when a worker picks them up, and an in-flight request re-checks
// its epoch between pages so a long run stops early.

#ifndef HDOV_PREFETCH_FETCH_QUEUE_H_
#define HDOV_PREFETCH_FETCH_QUEUE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "common/thread_pool.h"
#include "storage/buffer_pool.h"
#include "storage/page_device.h"

namespace hdov::prefetch {

struct FetchQueueOptions {
  // Worker threads (<= 1 runs every request inline on the issuing
  // thread, which keeps single-threaded tests deterministic).
  size_t workers = 2;
};

// Wall-clock-side counters; sampled by telemetry, never fed back into
// simulation.
struct FetchQueueStats {
  uint64_t requests_issued = 0;
  uint64_t requests_completed = 0;   // Warmed every page of the run.
  uint64_t requests_cancelled = 0;   // Dropped or stopped early by Cancel.
  uint64_t requests_deduped = 0;     // Coalesced with an in-flight twin.
  uint64_t pages_warmed = 0;
};

class AsyncFetchQueue {
 public:
  // One warm request. Exactly one of `pool` / `device` is the warm
  // target: with a pool, pages are pulled through BufferPool::Get
  // (populating the shared cache); otherwise they are read via the
  // device's unbilled ReadRaw (paging a file-backed device's data into
  // the OS cache / materializing nothing for memory devices). Both
  // targets must outlive the request (Drain() before tearing them down).
  struct Request {
    const void* owner = nullptr;         // Cancellation scope.
    BufferPool* pool = nullptr;          // Preferred warm target.
    const PageDevice* device = nullptr;  // Fallback warm target.
    PageId first = kInvalidPage;
    uint64_t pages = 0;
  };

  explicit AsyncFetchQueue(const FetchQueueOptions& options = {});
  ~AsyncFetchQueue();  // Drains: workers never outlive the queue.

  AsyncFetchQueue(const AsyncFetchQueue&) = delete;
  AsyncFetchQueue& operator=(const AsyncFetchQueue&) = delete;

  // Enqueues a warm. A request whose (target, first page) duplicates one
  // still in flight is coalesced (counted as deduped, not issued).
  void Issue(const Request& request);

  // Invalidates every queued / in-flight request of `owner` (stale-epoch
  // drop; running requests stop at the next page boundary). Requests
  // issued by `owner` after the call are unaffected.
  void Cancel(const void* owner);

  // Blocks until the queue is empty and no request is running.
  void Drain();

  size_t workers() const { return pool_.num_threads(); }

  FetchQueueStats stats() const;

 private:
  // Key of the in-flight dedup set: warm target identity + first page.
  struct PendingKey {
    const void* target;
    PageId first;
    bool operator==(const PendingKey& o) const {
      return target == o.target && first == o.first;
    }
  };
  struct PendingKeyHash {
    size_t operator()(const PendingKey& k) const {
      return std::hash<const void*>()(k.target) ^
             (std::hash<PageId>()(k.first) * 1099511628211ull);
    }
  };

  void Pump(Request request, uint64_t epoch);

  ThreadPool pool_;
  mutable std::mutex mu_;
  std::unordered_map<const void*, uint64_t> owner_epochs_;
  std::unordered_set<PendingKey, PendingKeyHash> in_flight_;
  FetchQueueStats stats_;
};

}  // namespace hdov::prefetch

#endif  // HDOV_PREFETCH_FETCH_QUEUE_H_
