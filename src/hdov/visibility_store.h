// VisibilityStore: the interface behind the paper's three storage schemes
// for view-variant V-pages (§4): horizontal, vertical, indexed-vertical.
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
  virtual ~VisibilityStore() = default;

  virtual std::string_view name() const = 0;

  // Switches the query context to `cell`. Vertical schemes pay the
  // V-page-index segment "flip" here; calling it again with the same cell
  // is free.
  virtual Status BeginCell(CellId cell) = 0;

  // Fetches the current cell's V-page of node `node_id`. Sets *visible to
  // false (leaving `page` empty) when the node has no V-page in this cell.
  virtual Status GetVPage(uint32_t node_id, VPage* page, bool* visible) = 0;

  // Fast-path introspection for the flat searcher (see flat_tree.h):
  // fills `nodes`/`slots` with the current cell's visible node ids
  // (ascending) and their V-page record slots, answered from the store's
  // in-memory segment with no I/O and no counter ticks — BeginCell
  // already billed the segment flip. Returns false when the scheme keeps
  // no in-memory segment (horizontal) or no cell is active; callers then
  // fall back to GetVPage per node.
  virtual bool FillSegment(std::vector<uint32_t>* nodes,
                           std::vector<uint64_t>* slots) const {
    (void)nodes;
    (void)slots;
    return false;
  }

  // Reads the V-page record at `slot` (obtained from FillSegment), billed
  // exactly like the visible tail of GetVPage: one record read plus one
  // vpage_fetches tick. Only schemes whose FillSegment returns true
  // implement it.
  virtual Status ReadVPageAt(uint64_t slot, VPage* page) {
    (void)slot;
    (void)page;
    return Status::Unimplemented(
        "visibility store: no slot-addressed read fast path");
  }

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
};

// VPageFile: shared helper managing fixed-size V-page records packed into
// device pages (records never span pages). Reads go through a one-page
// cache so a DFS-ordered scan of a cell's V-pages reads each page once.
class VPageFile {
 public:
  // `record_size` = VPageRecordSize(tree fanout).
  VPageFile(PageDevice* device, size_t record_size);

  size_t records_per_page() const { return records_per_page_; }

  // Appends a record during build; returns its slot number. Records are
  // buffered and written out page by page; call FinishBuild() once done.
  Result<uint64_t> AppendRecord(std::string_view record);

  // Flushes the final partially filled page.
  Status FinishBuild();

  // Reads the record at `slot` (billed unless served by the page cache).
  Status ReadRecord(uint64_t slot, VPage* page);

  void InvalidateCache() { cached_page_ = kInvalidPage; }

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
  // One-page read cache.
  PageId cached_page_ = kInvalidPage;
  std::string cache_;
};

}  // namespace hdov

#endif  // HDOV_HDOV_VISIBILITY_STORE_H_
