#include "hdov/vertical_store.h"

#include "common/coding.h"

namespace hdov {

Result<std::unique_ptr<VerticalStore>> VerticalStore::Build(
    const HdovTree& tree, const std::vector<CellVPageSet>& cells,
    PageDevice* device) {
  if (cells.empty()) {
    return Status::InvalidArgument("vertical store: no cells");
  }
  const size_t record_size = VPageRecordSize(tree.fanout());
  auto store = std::unique_ptr<VerticalStore>(
      new VerticalStore(device, record_size));

  // Pass 1: write the clustered V-pages (visible nodes only, node_id ==
  // DFS order) and remember each one's slot.
  std::vector<std::vector<uint64_t>> pointers(cells.size());
  for (size_t c = 0; c < cells.size(); ++c) {
    const CellVPageSet& cell = cells[c];
    if (cell.pages.size() != tree.num_nodes()) {
      return Status::InvalidArgument(
          "vertical store: cell V-page set size mismatch");
    }
    pointers[c].assign(tree.num_nodes(), kNilPointer);
    for (size_t node = 0; node < tree.num_nodes(); ++node) {
      const VPage& page = cell.pages[node];
      if (page.empty() || !VPageVisible(page)) {
        continue;
      }
      HDOV_ASSIGN_OR_RETURN(
          uint64_t slot,
          store->vpages_.AppendRecord(SerializeVPage(page, tree.fanout())));
      pointers[c][node] = slot;
    }
  }
  HDOV_RETURN_IF_ERROR(store->vpages_.FinishBuild());

  // Pass 2: the V-page-index — one contiguous file of c segments, each
  // exactly N_node pointers, exactly as the paper lays it out.
  store->segment_bytes_ = tree.num_nodes() * sizeof(uint64_t);
  std::string blob;
  blob.reserve(cells.size() * store->segment_bytes_);
  for (size_t c = 0; c < cells.size(); ++c) {
    for (uint64_t ptr : pointers[c]) {
      EncodeFixed64(&blob, ptr);
    }
  }
  HDOV_ASSIGN_OR_RETURN(store->index_extent_,
                        store->index_file_.Append(blob));
  store->num_cells_ = static_cast<uint32_t>(cells.size());
  return store;
}

Result<std::unique_ptr<VerticalStore>> VerticalStore::Load(
    const HdovTree& tree, std::string_view meta, PageDevice* device) {
  Decoder decoder(meta);
  auto store = std::unique_ptr<VerticalStore>(
      new VerticalStore(device, VPageRecordSize(tree.fanout())));
  HDOV_RETURN_IF_ERROR(DecodeExtent(&decoder, &store->index_extent_));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&store->segment_bytes_));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&store->num_cells_));
  HDOV_RETURN_IF_ERROR(store->vpages_.RestoreMeta(&decoder));
  return store;
}

void VerticalStore::EncodeMeta(std::string* dst) const {
  EncodeExtent(dst, index_extent_);
  EncodeFixed64(dst, segment_bytes_);
  EncodeFixed32(dst, num_cells_);
  vpages_.EncodeMeta(dst);
}

Status VerticalStore::BeginCell(CellId cell) {
  if (cell >= num_cells_) {
    return Status::OutOfRange("vertical store: cell out of range");
  }
  if (cell == current_cell_) {
    return Status::OK();
  }
  ++tstats_.cell_flips;
  // Flip the segment: one sequential scan of N_node pointers.
  HDOV_ASSIGN_OR_RETURN(
      std::string payload,
      index_file_.ReadRange(index_extent_, cell * segment_bytes_,
                            segment_bytes_));
  Decoder decoder(payload);
  segment_.assign(payload.size() / sizeof(uint64_t), kNilPointer);
  for (uint64_t& ptr : segment_) {
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&ptr));
  }
  current_cell_ = cell;
  vpages_.InvalidateCache();
  return Status::OK();
}

Status VerticalStore::GetVPage(uint32_t node_id, VPage* page, bool* visible) {
  if (current_cell_ == kInvalidCell) {
    return Status::FailedPrecondition("vertical store: BeginCell first");
  }
  if (node_id >= segment_.size()) {
    return Status::OutOfRange("vertical store: node out of range");
  }
  const uint64_t ptr = segment_[node_id];
  if (ptr == kNilPointer) {
    // Invisible node: answered from the in-memory segment, no I/O.
    ++tstats_.invisible_lookups;
    page->clear();
    *visible = false;
    return Status::OK();
  }
  HDOV_RETURN_IF_ERROR(vpages_.ReadRecord(ptr, page));
  ++tstats_.vpage_fetches;
  *visible = true;
  return Status::OK();
}

}  // namespace hdov
