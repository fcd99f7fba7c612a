// The clustered storage schemes: vertical (paper §4.2), indexed-vertical
// (§4.3) and our bitmap-vertical extension. All three keep the V-pages of
// visible nodes only, clustered per cell in depth-first node order so a
// query's V-page accesses form a near-sequential scan, plus a V-page-index
// of one segment per cell. Changing cells "flips" the segment: one
// sequential read of it. The schemes differ only in how a segment names
// the cell's visible nodes:
//
//   kPointers  N_node 8-byte slot pointers, nil for invisible nodes;
//              fixed-size, cell c at c * N_node * 8 bytes (vertical).
//   kPairs     one (node u32, slot u64) pair per visible node, so the
//              segment and the flip are O(N_vnode); variable-size, found
//              through a memory-resident (offset, length) directory
//              (indexed-vertical).
//   kBitmap    one bit per node; fixed-size, cell c at c * ceil(N_node/8)
//              bytes. A visible node's slot is the cell's base slot (kept
//              in memory) plus the number of visible nodes before it, so
//              no pointer is stored at all (bitmap-vertical).
//
// BeginCell decodes any segment into one node -> slot table, so GetVPage is
// one array read whatever the encoding.

#ifndef HDOV_HDOV_VERTICAL_STORE_H_
#define HDOV_HDOV_VERTICAL_STORE_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "hdov/hdov_tree.h"
#include "hdov/visibility_store.h"
#include "storage/paged_file.h"

namespace hdov {

class VerticalStore : public VisibilityStore {
 public:
  enum class Segment : uint8_t { kPointers, kPairs, kBitmap };

  static Result<std::unique_ptr<VerticalStore>> Build(
      Segment segment, const HdovTree& tree,
      const std::vector<CellVPageSet>& cells, PageDevice* device);

  // Reattaches a built store to a restored device image from EncodeMeta
  // output (no I/O billed).
  static Result<std::unique_ptr<VerticalStore>> Load(Segment segment,
                                                     const HdovTree& tree,
                                                     std::string_view meta,
                                                     PageDevice* device);

  std::string_view name() const override;
  Status BeginCell(CellId cell) override;
  Status GetVPage(uint32_t node_id, VPage* page, bool* visible) override;
  uint64_t SizeBytes() const override { return device_->SizeBytes(); }
  PageDevice* device() const override { return device_; }
  void EncodeMeta(std::string* dst) const override;

 private:
  static constexpr uint64_t kNilSlot = ~static_cast<uint64_t>(0);

  VerticalStore(Segment segment, PageDevice* device, const HdovTree& tree);

  Status DecodeSegment(std::string_view payload, CellId cell);

  const Segment segment_;
  PageDevice* device_;
  const uint32_t num_nodes_;
  PagedFile index_file_;        // One contiguous V-page-index blob.
  Extent index_extent_;
  uint32_t num_cells_ = 0;
  uint64_t segment_bytes_ = 0;  // kPointers, kBitmap: bytes per segment.
  // kPairs: per-cell (byte offset, byte length). At 16 bytes per cell it
  // is negligible next to the segments (the paper's cost formula likewise
  // counts only the segment entries).
  std::vector<std::pair<uint64_t, uint64_t>> segment_dir_;
  std::vector<uint64_t> cell_base_;  // kBitmap: first slot of each cell.
  VPageFile vpages_;                 // Per-cell clustered V-pages.
  CellId current_cell_ = kInvalidCell;
  std::vector<uint64_t> slots_;  // Current cell: node -> slot, or kNilSlot.
};

}  // namespace hdov

#endif  // HDOV_HDOV_VERTICAL_STORE_H_
