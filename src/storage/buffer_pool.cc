#include "storage/buffer_pool.h"

#include <algorithm>

namespace hdov {

BufferPool::BufferPool(const PageDevice* base,
                       const BufferPoolOptions& options)
    : base_(base),
      capacity_(options.capacity_pages),
      flight_code_(telemetry::FlightInternName(options.flight_name)),
      shards_(std::max<size_t>(1, options.shards)) {
  per_shard_capacity_ =
      (capacity_ + shards_.size() - 1) / shards_.size();  // Ceil.
}

Result<std::shared_ptr<const std::string>> BufferPool::Get(PageId page,
                                                           bool* hit) {
  Shard& shard = ShardFor(page);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(page);
    if (it != shard.entries.end()) {
      ++shard.stats.hits;
      telemetry::GlobalFlightRecorder().Record(
          telemetry::FlightEventType::kPoolHit,
          flight_code_.load(std::memory_order_relaxed), page, 0);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      if (hit != nullptr) {
        *hit = true;
      }
      return it->second.data;
    }
    ++shard.stats.misses;
  }
  if (hit != nullptr) {
    *hit = false;
  }

  // Device read outside the lock: concurrent misses on one page may each
  // read it (the page is immutable, so all copies are identical); the
  // insert below re-checks so the shard keeps a single entry. The miss
  // event is recorded after the fill so b carries the fill wall-ns.
  auto data = std::make_shared<std::string>();
  const uint64_t fill_start_ns = telemetry::FlightNowNs();
  HDOV_RETURN_IF_ERROR(base_->ReadRaw(page, data.get()));
  telemetry::GlobalFlightRecorder().Record(
      telemetry::FlightEventType::kPoolMiss,
      flight_code_.load(std::memory_order_relaxed), page,
      telemetry::FlightNowNs() - fill_start_ns);
  std::shared_ptr<const std::string> frozen = std::move(data);

  if (capacity_ == 0) {
    return frozen;  // Pure read-through.
  }
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(page);
  if (it != shard.entries.end()) {
    // A racing miss inserted it first; serve the cached copy and keep the
    // LRU position it already earned.
    return it->second.data;
  }
  shard.lru.push_front(page);
  shard.entries.emplace(page, Entry{frozen, shard.lru.begin()});
  while (shard.entries.size() > per_shard_capacity_) {
    shard.entries.erase(shard.lru.back());
    shard.lru.pop_back();
    ++shard.stats.evictions;
  }
  return frozen;
}

void BufferPool::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.entries.clear();
    shard.stats = BufferPoolStats();
  }
}

size_t BufferPool::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.entries.size();
  }
  return total;
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats total;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.evictions += shard.stats.evictions;
  }
  return total;
}

void BufferPool::RegisterWith(telemetry::MetricsRegistry* registry,
                              const std::string& prefix) {
  UnregisterViews();
  flight_code_.store(telemetry::FlightInternName(prefix),
                     std::memory_order_relaxed);
  view_registry_ = registry;
  view_prefix_ = prefix;
  registry->RegisterView(prefix + ".hits", [this] {
    return static_cast<double>(stats().hits);
  });
  registry->RegisterView(prefix + ".misses", [this] {
    return static_cast<double>(stats().misses);
  });
  registry->RegisterView(prefix + ".evictions", [this] {
    return static_cast<double>(stats().evictions);
  });
  registry->RegisterView(prefix + ".hit_rate",
                         [this] { return stats().HitRate(); });
}

void BufferPool::UnregisterViews() {
  if (view_registry_ != nullptr) {
    view_registry_->UnregisterPrefix(view_prefix_ + ".");
    view_registry_ = nullptr;
    view_prefix_.clear();
  }
}

}  // namespace hdov
