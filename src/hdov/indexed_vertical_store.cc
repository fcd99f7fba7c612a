#include "hdov/indexed_vertical_store.h"

#include <algorithm>

#include "common/coding.h"

namespace hdov {

Result<std::unique_ptr<IndexedVerticalStore>> IndexedVerticalStore::Build(
    const HdovTree& tree, const std::vector<CellVPageSet>& cells,
    PageDevice* device) {
  if (cells.empty()) {
    return Status::InvalidArgument("indexed-vertical store: no cells");
  }
  const size_t record_size = VPageRecordSize(tree.fanout());
  auto store = std::unique_ptr<IndexedVerticalStore>(
      new IndexedVerticalStore(device, record_size));

  // Pass 1: clustered V-pages of visible nodes, per cell in DFS order.
  std::vector<std::vector<std::pair<uint32_t, uint64_t>>> entries(
      cells.size());
  for (size_t c = 0; c < cells.size(); ++c) {
    const CellVPageSet& cell = cells[c];
    if (cell.pages.size() != tree.num_nodes()) {
      return Status::InvalidArgument(
          "indexed-vertical store: cell V-page set size mismatch");
    }
    for (size_t node = 0; node < tree.num_nodes(); ++node) {
      const VPage& page = cell.pages[node];
      if (page.empty() || !VPageVisible(page)) {
        continue;
      }
      HDOV_ASSIGN_OR_RETURN(
          uint64_t slot,
          store->vpages_.AppendRecord(SerializeVPage(page, tree.fanout())));
      entries[c].emplace_back(static_cast<uint32_t>(node), slot);
    }
  }
  HDOV_RETURN_IF_ERROR(store->vpages_.FinishBuild());

  // Pass 2: sparse per-cell segments of (offset number, pointer) pairs,
  // packed back to back in one contiguous file; the tiny per-cell
  // directory (offset, length) stays memory-resident.
  std::string blob;
  store->segment_dir_.reserve(cells.size());
  for (size_t c = 0; c < cells.size(); ++c) {
    const uint64_t offset = blob.size();
    for (const auto& [node, slot] : entries[c]) {
      EncodeFixed32(&blob, node);
      EncodeFixed64(&blob, slot);
    }
    store->segment_dir_.emplace_back(offset, blob.size() - offset);
  }
  HDOV_ASSIGN_OR_RETURN(store->index_extent_,
                        store->index_file_.Append(blob));
  return store;
}

Result<std::unique_ptr<IndexedVerticalStore>> IndexedVerticalStore::Load(
    const HdovTree& tree, std::string_view meta, PageDevice* device) {
  Decoder decoder(meta);
  auto store = std::unique_ptr<IndexedVerticalStore>(
      new IndexedVerticalStore(device, VPageRecordSize(tree.fanout())));
  HDOV_RETURN_IF_ERROR(DecodeExtent(&decoder, &store->index_extent_));
  uint64_t cells = 0;
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&cells));
  store->segment_dir_.resize(cells);
  for (auto& [offset, length] : store->segment_dir_) {
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&offset));
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&length));
  }
  HDOV_RETURN_IF_ERROR(store->vpages_.RestoreMeta(&decoder));
  return store;
}

void IndexedVerticalStore::EncodeMeta(std::string* dst) const {
  EncodeExtent(dst, index_extent_);
  EncodeFixed64(dst, segment_dir_.size());
  for (const auto& [offset, length] : segment_dir_) {
    EncodeFixed64(dst, offset);
    EncodeFixed64(dst, length);
  }
  vpages_.EncodeMeta(dst);
}

Status IndexedVerticalStore::BeginCell(CellId cell) {
  if (cell >= segment_dir_.size()) {
    return Status::OutOfRange("indexed-vertical store: cell out of range");
  }
  if (cell == current_cell_) {
    return Status::OK();
  }
  ++tstats_.cell_flips;
  const auto [offset, length] = segment_dir_[cell];
  HDOV_ASSIGN_OR_RETURN(std::string payload,
                        index_file_.ReadRange(index_extent_, offset, length));
  Decoder decoder(payload);
  const uint32_t count =
      static_cast<uint32_t>(length / (sizeof(uint32_t) + sizeof(uint64_t)));
  seg_nodes_.resize(count);
  seg_slots_.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&seg_nodes_[i]));
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&seg_slots_[i]));
  }
  current_cell_ = cell;
  vpages_.InvalidateCache();
  return Status::OK();
}

Status IndexedVerticalStore::GetVPage(uint32_t node_id, VPage* page,
                                      bool* visible) {
  if (current_cell_ == kInvalidCell) {
    return Status::FailedPrecondition(
        "indexed-vertical store: BeginCell first");
  }
  auto it = std::lower_bound(seg_nodes_.begin(), seg_nodes_.end(), node_id);
  if (it == seg_nodes_.end() || *it != node_id) {
    ++tstats_.invisible_lookups;
    page->clear();
    *visible = false;
    return Status::OK();
  }
  const size_t idx = static_cast<size_t>(it - seg_nodes_.begin());
  HDOV_RETURN_IF_ERROR(vpages_.ReadRecord(seg_slots_[idx], page));
  ++tstats_.vpage_fetches;
  *visible = true;
  return Status::OK();
}

}  // namespace hdov
