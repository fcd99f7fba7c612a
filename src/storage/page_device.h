// PageDevice: the simulated disk. Pages are fixed-size; every access is
// billed against a DiskModel (seek + transfer) on a shared SimClock, and
// counted in IoStats. The base class backs pages in memory; extents can
// also be allocated *unmaterialized* so that multi-gigabyte model data can
// be billed for without being stored (reads of such pages return zeros).
// FilePageDevice (storage/file_device.h) implements the same contract
// against a real file while billing the same simulated costs.

#ifndef HDOV_STORAGE_PAGE_DEVICE_H_
#define HDOV_STORAGE_PAGE_DEVICE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "storage/disk_model.h"
#include "storage/io_stats.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"

namespace hdov {

using PageId = uint64_t;
inline constexpr PageId kInvalidPage = ~static_cast<PageId>(0);

// The three billed devices a walkthrough session reads from: what a
// SharedWorldView device factory is asked for, and what the prefetcher
// diverts, gates and warms per device.
enum class SessionDeviceRole { kTree = 0, kStore = 1, kModel = 2 };
inline constexpr int kNumSessionDeviceRoles = 3;

// --- Prefetch accounting hooks (src/prefetch/, docs/prefetch.md) --------
//
// The prefetch subsystem models overlapped I/O on top of the simulated
// cost model with two device-level hooks. Both are inert until installed,
// so a device without a prefetcher bills exactly as before (the zero-drift
// contract CI enforces):
//
//  - a billing *diversion* (PrefetchSink): while installed, BillRead
//    charges the sink — its own IoStats, cost accumulator, and private
//    disk-head tracker — instead of the device's stats and shared clock,
//    and records each page run so the issuer can mark the pages resident.
//    The device's own counters, clock, and head tracker do not move: the
//    diverted cost is the I/O the prefetcher overlaps with rendering.
//
//  - a *residency gate* (PrefetchResidency): while installed, a billed
//    read whose pages are ALL resident is consumed instead of billed —
//    the pages are erased (one-shot: a prefetched page satisfies exactly
//    one read), the consumption counters tick, a kPrefetchUsed flight
//    event is recorded, and neither IoStats, the SimClock, nor the head
//    tracker move (no I/O happened; the data was already in memory).
//    Partially resident runs are billed in full and leave the residency
//    set untouched.

// Accumulator for diverted prefetch billing. One sink per device: the
// seek accounting needs a head tracker private to the device it shadows.
struct PrefetchSink {
  IoStats stats;
  double cost_millis = 0.0;  // DiskModel cost of the diverted reads.
  PageId next_sequential = kInvalidPage;
  std::vector<std::pair<PageId, uint64_t>> runs;  // (first, pages) issued.
};

// One-shot resident-page set consulted by BillRead. `used_*` are ticked
// by the device on every consumed read.
struct PrefetchResidency {
  std::unordered_set<PageId> pages;
  uint64_t used_pages = 0;
  uint64_t used_runs = 0;
};

class PageDevice {
 public:
  // `clock` may be null, in which case the device owns a private clock.
  // When several devices model one physical disk plus its bus, share one
  // clock between them so costs accumulate on a single timeline.
  explicit PageDevice(const DiskModel& model = DiskModel(),
                      SimClock* clock = nullptr);
  virtual ~PageDevice();

  PageDevice(const PageDevice&) = delete;
  PageDevice& operator=(const PageDevice&) = delete;

  const DiskModel& model() const { return model_; }
  uint32_t page_size() const { return model_.page_size; }
  virtual uint64_t page_count() const { return pages_.size(); }

  // Bytes the device would occupy on disk (all allocated pages, whether or
  // not materialized). This is the number Table 2 reports.
  uint64_t SizeBytes() const { return page_count() * page_size(); }

  // Allocates one zero page and returns its id.
  virtual PageId Allocate();

  // Allocates `count` contiguous pages without materializing contents.
  // Returns the first page id. Reads return zero bytes but are billed.
  virtual PageId AllocateUnmaterialized(uint64_t count);

  // Writes `data` (at most page_size bytes) to `page`.
  virtual Status Write(PageId page, std::string_view data);

  // Reads one page, billed: the one virtual single-page read, so a
  // subclass that watches or reroutes billed reads overrides only this
  // (Read goes through it). On success `*bytes` views the page's
  // page_size bytes, either in the device's own storage (the in-memory
  // device: no copy) or in `*scratch`, which the device fills. The view
  // is valid until the next read into the same `scratch`, or until a
  // write, allocation or restore of this device. On error `*bytes` is left
  // as it was and `*scratch` holds unspecified bytes. A null `bytes` asks
  // for no data, and `scratch` may then be null too. What such a read
  // does besides billing is the backend's: the in-memory device bills
  // only, FilePageDevice still preads the page and checks its CRC32C, and
  // SessionDevice touches neither the file nor the cache.
  virtual Status ReadView(PageId page, std::string* scratch,
                          std::string_view* bytes);

  // Reads one page into `out` (resized to page_size) through ReadView; a
  // null `out` bills the read only. On error `out` holds unspecified
  // bytes.
  Status Read(PageId page, std::string* out);

  // Reads `count` consecutive pages starting at `first`. Billed as one
  // seek + `count` transfers. `out` may be null when only the cost and the
  // counters matter (model data fetches).
  virtual Status ReadRun(PageId first, uint64_t count,
                         std::vector<std::string>* out);

  // Unbilled access used by persistence code: reads one page (zeros when
  // unmaterialized) without touching the clock, the counters, or the
  // sequential-access tracker. Never part of a simulated workload.
  virtual Status ReadRaw(PageId page, std::string* out) const;

  // True when `page` has materialized contents (ever written).
  virtual bool IsMaterialized(PageId page) const;

  // Unbilled restore of the full device image: each entry is either a
  // page_size string (materialized) or empty (unmaterialized). Replaces
  // any existing contents and resets the sequential-access tracker.
  virtual Status RestoreContents(std::vector<std::string> pages);

  // Unbilled export of the full device image in RestoreContents form, so a
  // device can be copied across backends:
  //   dst->RestoreContents(src.ExportContents(&pages)) style round trip.
  Status ExportContents(std::vector<std::string>* out) const;

  const IoStats& stats() const { return stats_; }
  void ResetStats() { stats_ = IoStats(); }

  // Forgets the last-accessed position, so the next read is billed a seek
  // regardless of where the previous access ended. Called when a system
  // finishes construction, so a freshly built world and a snapshot-loaded
  // one start their workloads from the same head state.
  void ResetAccessTracker() { next_sequential_ = kInvalidPage; }

  // Folds this device's IoStats counters into `registry` as read-through
  // views named `<prefix>.page_reads`, `.page_writes`, `.seeks`,
  // `.bytes_read`, `.bytes_written` — IoStats stays the storage, the
  // registry reads it live at snapshot time. The device must outlive the
  // registration (unregister the prefix before destroying the device).
  void RegisterWith(telemetry::MetricsRegistry* registry,
                    const std::string& prefix) const;

  SimClock& clock() { return *clock_; }
  const SimClock& clock() const { return *clock_; }

  // Installs / removes the prefetch hooks (see the structs above). Null
  // uninstalls. The installed object must outlive the installation; both
  // are consulted on the billing path only, never on raw reads.
  void set_prefetch_sink(PrefetchSink* sink) { prefetch_sink_ = sink; }
  void set_prefetch_residency(PrefetchResidency* residency) {
    prefetch_residency_ = residency;
  }
  PrefetchSink* prefetch_sink() const { return prefetch_sink_; }

 protected:
  // Charges `pages` transfers starting at `first`; adds a seek when the
  // access does not continue the previous one. Subclasses bill through
  // these so simulated counters stay identical across backends.
  void BillRead(PageId first, uint64_t pages);
  void BillWrite(PageId page);

  DiskModel model_;
  IoStats stats_;

 private:
  SimClock own_clock_;
  SimClock* clock_;
  // Flight-recorder code of this device's events; "device" until
  // RegisterWith names it after the registration prefix. Mutable because
  // RegisterWith is const (it only wires read-through views).
  mutable uint16_t flight_code_;
  // Materialized page contents; empty string = unmaterialized (zeros).
  std::vector<std::string> pages_;
  PageId next_sequential_ = kInvalidPage;  // Page after the last access.
  PrefetchSink* prefetch_sink_ = nullptr;            // Diversion; may be null.
  PrefetchResidency* prefetch_residency_ = nullptr;  // Gate; may be null.
};

// RAII billing diversion: installs `sink` on construction, uninstalls on
// destruction. Used around a speculative prefetch pass so every billed
// read inside lands in the sink instead of the frame's counters.
class ScopedPrefetchBilling {
 public:
  ScopedPrefetchBilling(PageDevice* device, PrefetchSink* sink)
      : device_(device) {
    device_->set_prefetch_sink(sink);
  }
  ~ScopedPrefetchBilling() { device_->set_prefetch_sink(nullptr); }

  ScopedPrefetchBilling(const ScopedPrefetchBilling&) = delete;
  ScopedPrefetchBilling& operator=(const ScopedPrefetchBilling&) = delete;

 private:
  PageDevice* device_;
};

}  // namespace hdov

#endif  // HDOV_STORAGE_PAGE_DEVICE_H_
