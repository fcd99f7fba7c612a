#include "prefetch/fetch_queue.h"

#include <string>
#include <utility>

namespace hdov::prefetch {

AsyncFetchQueue::AsyncFetchQueue(const FetchQueueOptions& options)
    : pool_(options.workers) {}

AsyncFetchQueue::~AsyncFetchQueue() {
  // Tasks capture `this` (epochs, stats, dedup set); drain before any
  // member is destroyed. ThreadPool's own destructor would also join, but
  // only after in_flight_/mu_ were already gone.
  Drain();
}

void AsyncFetchQueue::Issue(const Request& request) {
  if (request.pages == 0 ||
      (request.pool == nullptr && request.device == nullptr)) {
    return;
  }
  const void* target = request.pool != nullptr
                           ? static_cast<const void*>(request.pool)
                           : static_cast<const void*>(request.device);
  const PendingKey key{target, request.first};
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!in_flight_.insert(key).second) {
      ++stats_.requests_deduped;
      return;
    }
    ++stats_.requests_issued;
    epoch = owner_epochs_[request.owner];
  }
  Request copy = request;
  pool_.Submit([this, copy, epoch] { Pump(copy, epoch); });
}

void AsyncFetchQueue::Pump(Request request, uint64_t epoch) {
  const void* target = request.pool != nullptr
                           ? static_cast<const void*>(request.pool)
                           : static_cast<const void*>(request.device);
  bool cancelled = false;
  uint64_t warmed = 0;
  std::string scratch;
  for (uint64_t i = 0; i < request.pages; ++i) {
    // Re-check the owner's epoch at every page boundary, so Cancel stops
    // a long in-flight run promptly, not just queued ones.
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (owner_epochs_[request.owner] != epoch) {
        cancelled = true;
        break;
      }
    }
    const PageId page = request.first + i;
    if (request.pool != nullptr) {
      if (!request.pool->Get(page).ok()) {
        break;  // Past-end warms are harmless speculation; stop the run.
      }
    } else {
      if (!request.device->ReadRaw(page, &scratch).ok()) {
        break;
      }
    }
    ++warmed;
  }
  std::lock_guard<std::mutex> lock(mu_);
  in_flight_.erase(PendingKey{target, request.first});
  stats_.pages_warmed += warmed;
  if (cancelled) {
    ++stats_.requests_cancelled;
  } else {
    ++stats_.requests_completed;
  }
}

void AsyncFetchQueue::Cancel(const void* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  ++owner_epochs_[owner];
}

void AsyncFetchQueue::Drain() { pool_.Wait(); }

FetchQueueStats AsyncFetchQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace hdov::prefetch
