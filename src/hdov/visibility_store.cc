#include "hdov/visibility_store.h"

#include <algorithm>
#include <cassert>

namespace hdov {

void VisibilityStore::RegisterTelemetry(telemetry::MetricsRegistry* registry,
                                        const std::string& prefix) const {
  const VisibilityStoreStats* stats = &tstats_;
  const std::string base = prefix + ".store." + std::string(name());
  registry->RegisterView(base + ".vpage_fetches", [stats] {
    return static_cast<double>(stats->vpage_fetches);
  });
  registry->RegisterView(base + ".invisible_lookups", [stats] {
    return static_cast<double>(stats->invisible_lookups);
  });
  registry->RegisterView(base + ".cell_flips", [stats] {
    return static_cast<double>(stats->cell_flips);
  });
}

VPageFile::VPageFile(PageDevice* device, size_t record_size)
    : device_(device), record_size_(record_size),
      records_per_page_(std::max<size_t>(1, device->page_size() /
                                                record_size)) {
  pending_.reserve(device->page_size());
}

Result<uint64_t> VPageFile::AppendRecord(std::string_view record) {
  if (record.size() != record_size_) {
    return Status::InvalidArgument("vpage file: wrong record size");
  }
  pending_.append(record);
  uint64_t slot = next_slot_++;
  if (next_slot_ % records_per_page_ == 0) {
    HDOV_RETURN_IF_ERROR(FlushPending());
  }
  return slot;
}

Status VPageFile::FinishBuild() {
  if (!pending_.empty()) {
    HDOV_RETURN_IF_ERROR(FlushPending());
  }
  return Status::OK();
}

Status VPageFile::FlushPending() {
  if (pending_.empty()) {
    return Status::OK();
  }
  PageId page = device_->Allocate();
  HDOV_RETURN_IF_ERROR(device_->Write(page, pending_));
  pages_.push_back(page);
  pending_.clear();
  return Status::OK();
}

void VPageFile::EncodeMeta(std::string* dst) const {
  EncodeFixed64(dst, next_slot_);
  EncodeFixed64(dst, pages_.size());
  for (PageId page : pages_) {
    EncodeFixed64(dst, page);
  }
}

Status VPageFile::RestoreMeta(Decoder* decoder) {
  uint64_t records = 0;
  uint64_t page_count = 0;
  HDOV_RETURN_IF_ERROR(decoder->DecodeFixed64(&records));
  HDOV_RETURN_IF_ERROR(decoder->DecodeFixed64(&page_count));
  std::vector<PageId> pages(page_count);
  for (PageId& page : pages) {
    HDOV_RETURN_IF_ERROR(decoder->DecodeFixed64(&page));
    if (page >= device_->page_count()) {
      return Status::Corruption("vpage file: page id past device end");
    }
  }
  const uint64_t needed =
      (records + records_per_page_ - 1) / records_per_page_;
  if (needed != page_count) {
    return Status::Corruption("vpage file: record/page count mismatch");
  }
  next_slot_ = records;
  pages_ = std::move(pages);
  pending_.clear();
  InvalidateCache();
  return Status::OK();
}

Status VPageFile::ReadRecord(uint64_t slot, VPage* page) {
  if (slot >= next_slot_) {
    return Status::OutOfRange("vpage file: slot out of range");
  }
  const uint64_t page_index = slot / records_per_page_;
  if (page_index >= pages_.size()) {
    return Status::FailedPrecondition(
        "vpage file: reading before FinishBuild()");
  }
  const PageId device_page = pages_[page_index];
  if (device_page != cached_page_) {
    HDOV_RETURN_IF_ERROR(device_->Read(device_page, &cache_));
    cached_page_ = device_page;
  }
  const size_t offset = (slot % records_per_page_) * record_size_;
  return ParseVPage(std::string_view(cache_).substr(offset, record_size_),
                    page);
}

}  // namespace hdov
