// VisibilityStore: the interface behind the storage schemes for
// view-variant V-pages (§4). There are four schemes in two classes:
// HorizontalStore (horizontal_store.h) and the clustered VerticalStore
// (vertical_store.h), whose vertical, indexed-vertical and (our extension)
// bitmap-vertical schemes differ only in their V-page-index segment.
//
// Usage at query time:
//   store->BeginCell(cell);             // "flips" the cell context
//   store->GetVPage(node_id, &page, &visible);
//
// All schemes bill their I/O on the PageDevice they were built over, so
// the harness reads storage sizes (Table 2) and I/O counts (Figs. 7/8)
// straight off the device.

#ifndef HDOV_HDOV_VISIBILITY_STORE_H_
#define HDOV_HDOV_VISIBILITY_STORE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/coding.h"
#include "common/result.h"
#include "common/status.h"
#include "hdov/vpage.h"
#include "scene/cell_grid.h"
#include "storage/page_device.h"

namespace hdov {

// The build-time input: V-pages of every node for one cell, indexed by
// node_id. An empty VPage means the node is invisible in the cell.
struct CellVPageSet {
  std::vector<VPage> pages;
};

// Per-store access counters, attributing V-page traffic to its scheme
// (the telemetry layer exposes them as `<prefix>.store.<scheme>.*`).
struct VisibilityStoreStats {
  uint64_t vpage_fetches = 0;      // V-page records read from the file.
  uint64_t invisible_lookups = 0;  // Lookups answered in memory (no I/O).
  uint64_t cell_flips = 0;         // BeginCell calls that switched cells.
};

class VisibilityStore {
 public:
  VisibilityStore();
  virtual ~VisibilityStore() = default;

  // A store is its device layout plus query state; copying one would
  // also copy its serial.
  VisibilityStore(const VisibilityStore&) = delete;
  VisibilityStore& operator=(const VisibilityStore&) = delete;

  // Process-unique: no two stores ever share one, even when a store is
  // built where a destroyed one lived. A store's V-pages never change, so
  // (serial, cell, node) names the same V-page for the life of the
  // process; HdovSearcher keys its memo on it.
  uint64_t serial() const { return serial_; }

  virtual std::string_view name() const = 0;

  // Switches the query context to `cell`. Vertical schemes pay the
  // V-page-index segment "flip" here; calling it again with the same cell
  // is free.
  virtual Status BeginCell(CellId cell) = 0;

  // Fetches the current cell's V-page of node `node_id`. Sets *visible to
  // false (leaving `page` empty) when the node has no V-page in this cell.
  virtual Status GetVPage(uint32_t node_id, VPage* page, bool* visible) = 0;

  // Total bytes occupied on the device (the Table 2 number).
  virtual uint64_t SizeBytes() const = 0;

  virtual PageDevice* device() const = 0;

  // Serializes the store's device-resident layout metadata (extents,
  // directories, V-page file layout) so the store can be reattached to a
  // restored device image by the matching static Load() of its class.
  virtual void EncodeMeta(std::string* dst) const = 0;

  const VisibilityStoreStats& telemetry_stats() const { return tstats_; }

  // Registers read-through views over the per-store counters as
  // `<prefix>.store.<name()>.vpage_fetches` / `.invisible_lookups` /
  // `.cell_flips`. The store must outlive the registration.
  void RegisterTelemetry(telemetry::MetricsRegistry* registry,
                         const std::string& prefix) const;

 protected:
  VisibilityStoreStats tstats_;

 private:
  const uint64_t serial_;
};

// VPageFile: shared helper managing fixed-size V-page records packed into
// device pages (records never span pages). Reads go through a one-page
// cache so a DFS-ordered scan of a cell's V-pages reads each page once.
// The cache is the device's ReadView of that page, not a copy: the store
// must not write or restore its device while the file is in use.
class VPageFile {
 public:
  // `record_size` = VPageRecordSize(tree fanout).
  VPageFile(PageDevice* device, size_t record_size);

  // The cached view may point into this object's own scratch buffer.
  VPageFile(const VPageFile&) = delete;
  VPageFile& operator=(const VPageFile&) = delete;

  size_t records_per_page() const { return records_per_page_; }

  // Appends a record during build; returns its slot number. Records are
  // buffered and written out page by page; call FinishBuild() once done.
  Result<uint64_t> AppendRecord(std::string_view record);

  // Flushes the final partially filled page.
  Status FinishBuild();

  // Reads the record at `slot` (billed unless served by the page cache).
  Status ReadRecord(uint64_t slot, VPage* page);

  void InvalidateCache() {
    cached_page_ = kInvalidPage;
    cached_ = {};
  }

  uint64_t num_records() const { return next_slot_; }

  // Serializes the built layout (record count + device pages) / restores
  // it into a freshly constructed VPageFile over the same device image and
  // record size. RestoreMeta leaves the file in the post-FinishBuild state.
  void EncodeMeta(std::string* dst) const;
  Status RestoreMeta(Decoder* decoder);

 private:
  Status FlushPending();

  PageDevice* device_;
  size_t record_size_;
  size_t records_per_page_;
  uint64_t next_slot_ = 0;
  std::vector<PageId> pages_;  // Device page of each full record page.
  std::string pending_;        // Partially filled build page.
  // One-page read cache: `cached_` views page `cached_page_`, in the
  // device's storage or in `scratch_`.
  PageId cached_page_ = kInvalidPage;
  std::string_view cached_;
  std::string scratch_;
};

}  // namespace hdov

#endif  // HDOV_HDOV_VISIBILITY_STORE_H_
