// BufferPool: the LRU page cache in front of a PageDevice. A walkthrough
// system's searcher reads its tree-node pages through one; a server shares
// one per device across every session (src/server/). Capacity is in pages.
//
//   - The page space is hash-partitioned into shards; each shard has its
//     own mutex, LRU list and hit/miss/eviction counters, so hot pages in
//     different shards never contend on one lock. Each shard holds at most
//     ceil(capacity / shards) pages, so the total can exceed capacity by
//     fewer than `shards` pages; one shard makes the LRU global and the
//     bound exact.
//   - Get returns shared_ptr<const string>: the shared_ptr IS the pin.
//     Eviction (and Clear) only drops the pool's reference; readers
//     holding the page keep it alive, so there is no unpin bookkeeping.
//   - Misses read through PageDevice::ReadRaw, the UNBILLED const path.
//     The pool never touches a SimClock or IoStats: a caller that bills
//     simulated I/O (the searcher) bills its own device on a miss, which
//     Get reports through `hit`.
//   - The device miss read runs outside the shard lock, so a slow pread
//     only blocks readers of the same page's shard, briefly, twice.
// A capacity of 0 means "no caching": every Get is a miss and nothing is
// retained.
//
// Locking order: a shard mutex is a leaf lock — no other lock is ever
// taken while one is held, and ReadRaw is lock-free on the device side.

#ifndef HDOV_STORAGE_BUFFER_POOL_H_
#define HDOV_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/page_device.h"

namespace hdov {

struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

struct BufferPoolOptions {
  size_t capacity_pages = 1024;
  size_t shards = 8;
  // Flight-recorder label of hit/miss events until RegisterWith renames
  // them after its prefix.
  std::string flight_name = "pool";
};

class BufferPool {
 public:
  // `base` must outlive the pool. Concurrent Gets additionally need its
  // const read path (ReadRaw / page_count) to be safe for concurrent
  // callers — FilePageDevice opened read-only qualifies.
  BufferPool(const PageDevice* base, const BufferPoolOptions& options);
  ~BufferPool() { UnregisterViews(); }

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Returns the page contents (zeros when unmaterialized), reading
  // through the base device on a miss; `*hit` (when given) tells which.
  // Thread-safe. The returned page stays valid for the life of the
  // shared_ptr.
  Result<std::shared_ptr<const std::string>> Get(PageId page,
                                                 bool* hit = nullptr);

  // Drops every entry and resets the counters: a cleared pool reports
  // statistics for the work after the Clear only (the walkthrough systems
  // clear between sessions, so per-session views read per-session
  // numbers). Dropped entries do not count as evictions; a page a caller
  // still holds stays valid through its shared_ptr.
  void Clear();

  size_t capacity() const { return capacity_; }

  // Cached entries and hit/miss/eviction totals across shards. Each shard
  // is read under its lock; the sums are approximate under concurrent
  // traffic.
  size_t size() const;
  BufferPoolStats stats() const;

  // Folds stats() into `registry` as `<prefix>.hits`, `.misses`,
  // `.evictions`, `.hit_rate` read-through views, and names the pool's
  // flight events after `prefix`. UnregisterViews(), which the destructor
  // calls, drops them again, so a view never outlives the pool; `registry`
  // must still be alive at that point.
  void RegisterWith(telemetry::MetricsRegistry* registry,
                    const std::string& prefix);

  // Removes the views installed by the last RegisterWith, if any.
  // Idempotent. Must run on the registry's owner thread.
  void UnregisterViews();

 private:
  struct Entry {
    std::shared_ptr<const std::string> data;
    std::list<PageId>::iterator lru_it;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<PageId> lru;  // Front = most recently used.
    std::unordered_map<PageId, Entry> entries;
    BufferPoolStats stats;
  };

  Shard& ShardFor(PageId page) {
    return shards_[static_cast<size_t>(page) % shards_.size()];
  }

  const PageDevice* base_;
  size_t capacity_;
  size_t per_shard_capacity_;
  // Atomic because a Get may record an event while another thread
  // retargets the code in RegisterWith; relaxed is enough, a stale code
  // only mislabels one event.
  std::atomic<uint16_t> flight_code_;
  std::vector<Shard> shards_;
  // Where the stats views are currently registered (null when none).
  telemetry::MetricsRegistry* view_registry_ = nullptr;
  std::string view_prefix_;
};

}  // namespace hdov

#endif  // HDOV_STORAGE_BUFFER_POOL_H_
