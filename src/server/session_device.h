// SessionDevice: one session's private, billed view over a shared
// read-only base device. N concurrent sessions each wrap the same base
// FilePageDevice (and optionally a BufferPool in front of it); the
// wrapper owns nothing shared — its IoStats, SimClock hookup, and
// sequential-access tracker live in the PageDevice base class, private to
// the session — so the simulated counters a session accumulates are
// bit-identical to playing the same frames against the base device alone,
// no matter how the sessions interleave. Only *real* I/O is shared (and
// deduplicated by the pool).

#ifndef HDOV_SERVER_SESSION_DEVICE_H_
#define HDOV_SERVER_SESSION_DEVICE_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page_device.h"

namespace hdov {

class SessionDevice : public PageDevice {
 public:
  // `base` (and `cache`, when given) must outlive the device. `cache` may
  // be null — misses then read straight through base->ReadRaw. When a
  // cache is given it must front the same base device.
  SessionDevice(const PageDevice* base, BufferPool* cache,
                const DiskModel& model, SimClock* clock)
      : PageDevice(model, clock), base_(base), cache_(cache) {}

  uint64_t page_count() const override { return base_->page_count(); }

  // Billed reads; ReadView fills `scratch`. A null `bytes` (or `out` of
  // ReadRun) bills the simulated cost without touching the file or the
  // cache at all — the searcher's tree-page billing and the model store's
  // fetches use this, since their data is already in memory (shared tree)
  // or never needed (unmaterialized models).
  Status ReadView(PageId page, std::string* scratch,
                  std::string_view* bytes) override;
  Status ReadRun(PageId first, uint64_t count,
                 std::vector<std::string>* out) override;

  // Unbilled read, straight from the base device (no cache).
  Status ReadRaw(PageId page, std::string* out) const override;
  bool IsMaterialized(PageId page) const override;

  // The world is immutable while being served: every mutation fails.
  PageId Allocate() override { return kInvalidPage; }
  PageId AllocateUnmaterialized(uint64_t count) override;
  Status Write(PageId page, std::string_view data) override;
  Status RestoreContents(std::vector<std::string> pages) override;

 private:
  // Fetches one page's contents through the cache (or base) into `out`.
  Status FetchThrough(PageId page, std::string* out);

  const PageDevice* base_;
  BufferPool* cache_;  // May be null.
};

}  // namespace hdov

#endif  // HDOV_SERVER_SESSION_DEVICE_H_
