// Horizontal storage scheme (paper §4.1): every node keeps an array of
// V-pages indexed by cell id, so a V-page slot is reserved for every
// (node, cell) pair whether or not the node is visible there. One V-page
// access per visited node; no cell-flip cost; very large storage
// (size_vpage * c * N_node) and scattered (seek-heavy) reads, because the
// V-pages of one cell are spread across the whole file.

#ifndef HDOV_HDOV_HORIZONTAL_STORE_H_
#define HDOV_HDOV_HORIZONTAL_STORE_H_

#include <memory>

#include "common/result.h"
#include "hdov/hdov_tree.h"
#include "hdov/visibility_store.h"

namespace hdov {

class HorizontalStore : public VisibilityStore {
 public:
  static Result<std::unique_ptr<HorizontalStore>> Build(
      const HdovTree& tree, const std::vector<CellVPageSet>& cells,
      PageDevice* device);

  // Reattaches a built store to a restored device image from EncodeMeta
  // output (no I/O billed).
  static Result<std::unique_ptr<HorizontalStore>> Load(const HdovTree& tree,
                                                       std::string_view meta,
                                                       PageDevice* device);

  std::string_view name() const override { return "horizontal"; }
  Status BeginCell(CellId cell) override;
  Status GetVPage(uint32_t node_id, VPage* page, bool* visible) override;
  uint64_t SizeBytes() const override { return device_->SizeBytes(); }
  PageDevice* device() const override { return device_; }
  void EncodeMeta(std::string* dst) const override;

 private:
  HorizontalStore(PageDevice* device, size_t record_size, uint32_t num_cells)
      : device_(device), file_(device, record_size), num_cells_(num_cells) {}

  PageDevice* device_;
  VPageFile file_;
  uint32_t num_cells_;
  CellId current_cell_ = kInvalidCell;
};

}  // namespace hdov

#endif  // HDOV_HDOV_HORIZONTAL_STORE_H_
