#include "prefetch/fetch_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page_device.h"

namespace hdov::prefetch {
namespace {

std::unique_ptr<PageDevice> MakeDevice(uint64_t pages) {
  auto device = std::make_unique<PageDevice>();
  for (uint64_t i = 0; i < pages; ++i) {
    PageId p = device->Allocate();
    EXPECT_TRUE(device->Write(p, std::string("page-") +
                                     std::to_string(p))
                    .ok());
  }
  device->ResetStats();
  return device;
}

TEST(FetchQueueTest, WarmsRunIntoPool) {
  auto device = MakeDevice(16);
  BufferPoolOptions popt;
  popt.capacity_pages = 64;
  BufferPool pool(device.get(), popt);

  AsyncFetchQueue queue(FetchQueueOptions{.workers = 1});  // Inline.
  int owner = 0;
  queue.Issue({&owner, &pool, nullptr, /*first=*/1, /*pages=*/8});
  queue.Drain();

  FetchQueueStats stats = queue.stats();
  EXPECT_EQ(stats.requests_issued, 1u);
  EXPECT_EQ(stats.requests_completed, 1u);
  EXPECT_EQ(stats.requests_cancelled, 0u);
  EXPECT_EQ(stats.pages_warmed, 8u);
  // The warm populated the shared cache: the next Get of those pages hits.
  BufferPoolStats before = pool.stats();
  for (PageId p = 1; p <= 8; ++p) {
    ASSERT_TRUE(pool.Get(p).ok());
  }
  BufferPoolStats after = pool.stats();
  EXPECT_EQ(after.hits - before.hits, 8u);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(FetchQueueTest, DeviceWarmPathIsUnbilled) {
  auto device = MakeDevice(8);
  AsyncFetchQueue queue(FetchQueueOptions{.workers = 1});
  int owner = 0;
  const uint64_t clock_before = device->clock().NowMicros();
  queue.Issue({&owner, nullptr, device.get(), /*first=*/1, /*pages=*/7});
  queue.Drain();
  EXPECT_EQ(queue.stats().pages_warmed, 7u);
  // ReadRaw warms move no simulated counter and no simulated clock.
  EXPECT_EQ(device->stats().page_reads, 0u);
  EXPECT_EQ(device->stats().seeks, 0u);
  EXPECT_EQ(device->clock().NowMicros(), clock_before);
}

TEST(FetchQueueTest, EmptyAndTargetlessRequestsAreIgnored) {
  auto device = MakeDevice(4);
  AsyncFetchQueue queue(FetchQueueOptions{.workers = 1});
  int owner = 0;
  queue.Issue({&owner, nullptr, device.get(), 1, /*pages=*/0});
  queue.Issue({&owner, nullptr, nullptr, 1, /*pages=*/4});
  queue.Drain();
  FetchQueueStats stats = queue.stats();
  EXPECT_EQ(stats.requests_issued, 0u);
  EXPECT_EQ(stats.pages_warmed, 0u);
}

TEST(FetchQueueTest, PastEndWarmStopsQuietly) {
  auto device = MakeDevice(4);
  AsyncFetchQueue queue(FetchQueueOptions{.workers = 1});
  int owner = 0;
  // Run extends past the device: speculation is allowed to overshoot.
  queue.Issue({&owner, nullptr, device.get(), /*first=*/2, /*pages=*/10});
  queue.Drain();
  FetchQueueStats stats = queue.stats();
  EXPECT_EQ(stats.requests_issued, 1u);
  EXPECT_EQ(stats.requests_completed, 1u);
  EXPECT_EQ(stats.pages_warmed, 2u);  // Pages 2..3 exist; 4+ do not.
}

TEST(FetchQueueTest, CancelBeforeDrainStopsOwnersWork) {
  auto device = MakeDevice(64);
  AsyncFetchQueue queue(FetchQueueOptions{.workers = 2});
  int victim = 0;
  int bystander = 0;
  for (PageId first = 1; first + 8 <= 64; first += 8) {
    queue.Issue({&victim, nullptr, device.get(), first, 8});
  }
  queue.Cancel(&victim);
  // A request issued by another owner after the cancel still completes —
  // and so does one issued by the victim itself (new work, new epoch).
  // First pages distinct from the cancelled batch: a duplicate would be
  // coalesced with a stale-epoch twin still in flight.
  queue.Issue({&bystander, nullptr, device.get(), 2, 4});
  queue.Issue({&victim, nullptr, device.get(), 58, 4});
  queue.Drain();

  FetchQueueStats stats = queue.stats();
  EXPECT_EQ(stats.requests_issued,
            stats.requests_completed + stats.requests_cancelled);
  EXPECT_GE(stats.requests_completed, 2u);  // At least the two post-cancel.
}

TEST(FetchQueueTest, DuplicateInFlightRequestIsCoalesced) {
  auto device = MakeDevice(8);
  // Inline mode: the first Issue completes before returning, so the twin
  // is NOT in flight anymore and must warm again, not dedup.
  AsyncFetchQueue inline_queue(FetchQueueOptions{.workers = 1});
  int owner = 0;
  inline_queue.Issue({&owner, nullptr, device.get(), 1, 4});
  inline_queue.Issue({&owner, nullptr, device.get(), 1, 4});
  inline_queue.Drain();
  EXPECT_EQ(inline_queue.stats().requests_issued, 2u);
  EXPECT_EQ(inline_queue.stats().requests_deduped, 0u);

  // Threaded mode: flood the queue with one identical request; however
  // the scheduler interleaves, every copy is accounted exactly once as
  // issued or deduped, never lost.
  AsyncFetchQueue queue(FetchQueueOptions{.workers = 2});
  constexpr int kCopies = 200;
  for (int i = 0; i < kCopies; ++i) {
    queue.Issue({&owner, nullptr, device.get(), 1, 4});
  }
  queue.Drain();
  FetchQueueStats stats = queue.stats();
  EXPECT_EQ(stats.requests_issued + stats.requests_deduped,
            static_cast<uint64_t>(kCopies));
  EXPECT_EQ(stats.requests_issued,
            stats.requests_completed + stats.requests_cancelled);
}

// The TSan workhorse: issuers, a canceller and a drainer all hammer one
// queue concurrently. Correctness here is "no data race, no lost
// request"; the assertions check the conservation laws.
TEST(FetchQueueTest, ConcurrentIssueCancelDrain) {
  auto device = MakeDevice(256);
  BufferPoolOptions popt;
  popt.capacity_pages = 128;
  BufferPool pool(device.get(), popt);
  AsyncFetchQueue queue(FetchQueueOptions{.workers = 4});

  constexpr int kIssuers = 4;
  constexpr int kRequestsPerIssuer = 64;
  std::vector<int> owners(kIssuers);
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kIssuers; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerIssuer; ++i) {
        AsyncFetchQueue::Request req;
        req.owner = &owners[t];
        if (i % 2 == 0) {
          req.pool = &pool;
        } else {
          req.device = device.get();
        }
        req.first = 1 + static_cast<PageId>((t * 37 + i * 11) % 200);
        req.pages = 1 + (i % 7);
        queue.Issue(req);
        if (i % 16 == 15) {
          queue.Cancel(&owners[t]);  // Mispredict own plan mid-stream.
        }
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      queue.Cancel(&owners[0]);
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < kIssuers; ++t) {
    threads[t].join();
  }
  stop.store(true, std::memory_order_release);
  threads.back().join();
  queue.Drain();

  FetchQueueStats stats = queue.stats();
  EXPECT_EQ(stats.requests_issued,
            stats.requests_completed + stats.requests_cancelled);
  EXPECT_LE(stats.requests_issued + stats.requests_deduped,
            static_cast<uint64_t>(kIssuers * kRequestsPerIssuer));
}

TEST(FetchQueueTest, DestructorDrainsOutstandingWork) {
  auto device = MakeDevice(128);
  {
    AsyncFetchQueue queue(FetchQueueOptions{.workers = 4});
    int owner = 0;
    for (PageId first = 1; first + 4 <= 128; first += 4) {
      queue.Issue({&owner, nullptr, device.get(), first, 4});
    }
    // No Drain: the destructor must not leave workers touching `device`.
  }
  SUCCEED();
}

}  // namespace
}  // namespace hdov::prefetch
