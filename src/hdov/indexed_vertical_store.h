// Indexed-vertical storage scheme (paper §4.3): like the vertical scheme,
// but the per-cell V-page-index segment stores only the visible nodes as
// (offset-number, pointer) pairs, making the segments variable-length and
// the cell flip O(N_vnode) instead of O(N_node).

#ifndef HDOV_HDOV_INDEXED_VERTICAL_STORE_H_
#define HDOV_HDOV_INDEXED_VERTICAL_STORE_H_

#include <memory>

#include "common/result.h"
#include "hdov/hdov_tree.h"
#include "hdov/visibility_store.h"
#include "storage/paged_file.h"

namespace hdov {

class IndexedVerticalStore : public VisibilityStore {
 public:
  static Result<std::unique_ptr<IndexedVerticalStore>> Build(
      const HdovTree& tree, const std::vector<CellVPageSet>& cells,
      PageDevice* device);

  // Reattaches a built store to a restored device image from EncodeMeta
  // output (no I/O billed).
  static Result<std::unique_ptr<IndexedVerticalStore>> Load(
      const HdovTree& tree, std::string_view meta, PageDevice* device);

  std::string_view name() const override { return "indexed-vertical"; }
  Status BeginCell(CellId cell) override;
  Status GetVPage(uint32_t node_id, VPage* page, bool* visible) override;
  uint64_t SizeBytes() const override { return device_->SizeBytes(); }
  PageDevice* device() const override { return device_; }
  void EncodeMeta(std::string* dst) const override;

 private:
  IndexedVerticalStore(PageDevice* device, size_t record_size)
      : device_(device), index_file_(device), vpages_(device, record_size) {}

  PageDevice* device_;
  PagedFile index_file_;  // One contiguous blob of variable segments.
  Extent index_extent_;
  // Per-cell (byte offset, byte length) directory. Kept memory-resident;
  // at 16 bytes per cell it is negligible next to the segments themselves
  // (the paper's cost formula likewise counts only the segment entries).
  std::vector<std::pair<uint64_t, uint64_t>> segment_dir_;
  VPageFile vpages_;
  CellId current_cell_ = kInvalidCell;
  // Current segment: visible node ids (ascending) and their slots.
  std::vector<uint32_t> seg_nodes_;
  std::vector<uint64_t> seg_slots_;
};

}  // namespace hdov

#endif  // HDOV_HDOV_INDEXED_VERTICAL_STORE_H_
