#include "hdov/vertical_store.h"

#include <bit>
#include <limits>
#include <tuple>

#include "common/coding.h"

namespace hdov {

VerticalStore::VerticalStore(Segment segment, PageDevice* device,
                             const HdovTree& tree)
    : segment_(segment), device_(device),
      num_nodes_(static_cast<uint32_t>(tree.num_nodes())),
      index_file_(device),
      segment_bytes_(segment == Segment::kPointers ? num_nodes_ * uint64_t{8}
                     : segment == Segment::kBitmap ? (num_nodes_ + 7) / 8
                                                   : 0),
      vpages_(device, VPageRecordSize(tree.fanout())) {}

std::string_view VerticalStore::name() const {
  switch (segment_) {
    case Segment::kPointers:
      return "vertical";
    case Segment::kPairs:
      return "indexed-vertical";
    case Segment::kBitmap:
      return "bitmap-vertical";
  }
  return "unknown";
}

Result<std::unique_ptr<VerticalStore>> VerticalStore::Build(
    Segment segment, const HdovTree& tree,
    const std::vector<CellVPageSet>& cells, PageDevice* device) {
  auto store = std::unique_ptr<VerticalStore>(
      new VerticalStore(segment, device, tree));
  const std::string label = std::string(store->name()) + " store: ";
  if (cells.empty()) {
    return Status::InvalidArgument(label + "no cells");
  }
  // One pass over the cells writes the clustered V-pages (visible nodes
  // only, node_id == DFS order) and encodes each cell's segment into the
  // index blob, which goes to the device after the last V-page.
  std::string blob;
  blob.reserve(cells.size() * store->segment_bytes_);
  for (const CellVPageSet& cell : cells) {
    if (cell.pages.size() != store->num_nodes_) {
      return Status::InvalidArgument(label + "cell V-page set size mismatch");
    }
    const uint64_t offset = blob.size();
    if (segment == Segment::kBitmap) {
      store->cell_base_.push_back(store->vpages_.num_records());
      blob.resize(offset + store->segment_bytes_, '\0');
    }
    for (uint32_t node = 0; node < store->num_nodes_; ++node) {
      const VPage& page = cell.pages[node];
      uint64_t slot = kNilSlot;
      if (!page.empty() && VPageVisible(page)) {
        HDOV_ASSIGN_OR_RETURN(slot, store->vpages_.AppendRecord(SerializeVPage(
                                        page, tree.fanout())));
      }
      switch (segment) {
        case Segment::kPointers:
          EncodeFixed64(&blob, slot);
          break;
        case Segment::kPairs:
          if (slot != kNilSlot) {
            EncodeFixed32(&blob, node);
            EncodeFixed64(&blob, slot);
          }
          break;
        case Segment::kBitmap:
          if (slot != kNilSlot) {
            blob[offset + node / 8] |= static_cast<char>(1u << (node % 8));
          }
          break;
      }
    }
    if (segment == Segment::kPairs) {
      store->segment_dir_.emplace_back(offset, blob.size() - offset);
    }
  }
  HDOV_RETURN_IF_ERROR(store->vpages_.FinishBuild());
  HDOV_ASSIGN_OR_RETURN(store->index_extent_,
                        store->index_file_.Append(blob));
  store->num_cells_ = static_cast<uint32_t>(cells.size());
  return store;
}

Result<std::unique_ptr<VerticalStore>> VerticalStore::Load(
    Segment segment, const HdovTree& tree, std::string_view meta,
    PageDevice* device) {
  auto store = std::unique_ptr<VerticalStore>(
      new VerticalStore(segment, device, tree));
  const std::string label = std::string(store->name()) + " store: ";
  Decoder decoder(meta);
  HDOV_RETURN_IF_ERROR(DecodeExtent(&decoder, &store->index_extent_));
  if (segment == Segment::kPointers) {
    uint64_t segment_bytes = 0;
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&segment_bytes));
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&store->num_cells_));
    if (segment_bytes != store->segment_bytes_) {
      return Status::Corruption(label + "segment size does not fit the tree");
    }
  } else {
    // Pairs keep a 16-byte directory entry per cell, bitmaps an 8-byte
    // base slot: check the count against what is left before sizing
    // anything from it.
    uint64_t cells = 0;
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&cells));
    const size_t entry_bytes = segment == Segment::kPairs ? 16 : 8;
    if (cells > decoder.remaining() / entry_bytes ||
        cells > std::numeric_limits<uint32_t>::max()) {
      return Status::Corruption(label + "cell count past meta end");
    }
    store->num_cells_ = static_cast<uint32_t>(cells);
    if (segment == Segment::kPairs) {
      store->segment_dir_.resize(cells);
      for (auto& [offset, length] : store->segment_dir_) {
        HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&offset));
        HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&length));
        const uint64_t extent_bytes = store->index_extent_.byte_length;
        if (length > extent_bytes || offset > extent_bytes - length) {
          return Status::Corruption(label + "segment past index end");
        }
      }
    } else {
      store->cell_base_.resize(cells);
      for (uint64_t& base : store->cell_base_) {
        HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&base));
      }
    }
  }
  HDOV_RETURN_IF_ERROR(store->vpages_.RestoreMeta(&decoder));
  return store;
}

void VerticalStore::EncodeMeta(std::string* dst) const {
  EncodeExtent(dst, index_extent_);
  switch (segment_) {
    case Segment::kPointers:
      EncodeFixed64(dst, segment_bytes_);
      EncodeFixed32(dst, num_cells_);
      break;
    case Segment::kPairs:
      EncodeFixed64(dst, segment_dir_.size());
      for (const auto& [offset, length] : segment_dir_) {
        EncodeFixed64(dst, offset);
        EncodeFixed64(dst, length);
      }
      break;
    case Segment::kBitmap:
      EncodeFixed64(dst, cell_base_.size());
      for (uint64_t base : cell_base_) {
        EncodeFixed64(dst, base);
      }
      break;
  }
  vpages_.EncodeMeta(dst);
}

Status VerticalStore::BeginCell(CellId cell) {
  if (cell >= num_cells_) {
    return Status::OutOfRange(std::string(name()) +
                              " store: cell out of range");
  }
  if (cell == current_cell_) {
    return Status::OK();
  }
  ++tstats_.cell_flips;
  // Flip the segment: one sequential read of it.
  uint64_t offset = cell * segment_bytes_;
  uint64_t length = segment_bytes_;
  if (segment_ == Segment::kPairs) {
    std::tie(offset, length) = segment_dir_[cell];
  }
  HDOV_ASSIGN_OR_RETURN(std::string payload,
                        index_file_.ReadRange(index_extent_, offset, length));
  // A segment that fails to decode leaves no cell current.
  current_cell_ = kInvalidCell;
  HDOV_RETURN_IF_ERROR(DecodeSegment(payload, cell));
  current_cell_ = cell;
  vpages_.InvalidateCache();
  return Status::OK();
}

Status VerticalStore::DecodeSegment(std::string_view payload, CellId cell) {
  Decoder decoder(payload);
  switch (segment_) {
    case Segment::kPointers:
      slots_.resize(num_nodes_);
      for (uint64_t& slot : slots_) {
        HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&slot));
      }
      break;
    case Segment::kPairs:
      slots_.assign(num_nodes_, kNilSlot);
      while (decoder.remaining() > 0) {
        uint32_t node = 0;
        uint64_t slot = 0;
        HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&node));
        HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&slot));
        if (node >= num_nodes_) {
          return Status::Corruption("indexed-vertical store: node past tree");
        }
        slots_[node] = slot;
      }
      break;
    case Segment::kBitmap: {
      slots_.assign(num_nodes_, kNilSlot);
      // Visible nodes' V-pages follow the cell's base slot in node order:
      // a node's slot is the base plus its rank among the visible nodes.
      uint64_t slot = cell_base_[cell];
      for (size_t byte = 0; byte < payload.size(); ++byte) {
        for (auto bits = static_cast<uint8_t>(payload[byte]); bits != 0;
             bits &= bits - 1) {
          const size_t node = byte * 8 + std::countr_zero(bits);
          if (node < num_nodes_) {
            slots_[node] = slot++;
          }
        }
      }
      break;
    }
  }
  return Status::OK();
}

Status VerticalStore::GetVPage(uint32_t node_id, VPage* page, bool* visible) {
  if (current_cell_ == kInvalidCell) {
    return Status::FailedPrecondition(std::string(name()) +
                                      " store: BeginCell first");
  }
  if (node_id >= num_nodes_) {
    return Status::OutOfRange(std::string(name()) +
                              " store: node out of range");
  }
  const uint64_t slot = slots_[node_id];
  if (slot == kNilSlot) {
    // Invisible node: answered from the in-memory segment, no I/O.
    ++tstats_.invisible_lookups;
    page->clear();
    *visible = false;
    return Status::OK();
  }
  HDOV_RETURN_IF_ERROR(vpages_.ReadRecord(slot, page));
  ++tstats_.vpage_fetches;
  *visible = true;
  return Status::OK();
}

}  // namespace hdov
