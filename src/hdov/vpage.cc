#include "hdov/vpage.h"

#include <cstddef>
#include <cstring>
#include <type_traits>

#include "common/coding.h"

namespace hdov {

std::string SerializeVPage(const VPage& page, size_t capacity) {
  std::string out;
  out.reserve(VPageRecordSize(capacity));
  EncodeFixed32(&out, static_cast<uint32_t>(page.size()));
  for (const VdEntry& e : page) {
    EncodeFloat(&out, e.dov);
    EncodeFixed32(&out, e.nvo);
  }
  out.resize(VPageRecordSize(capacity), '\0');
  return out;
}

// The record's entries are VdEntry's in-memory layout (little-endian, as
// everything in common/coding.h), so they decode with one copy.
static_assert(sizeof(VdEntry) == sizeof(float) + sizeof(uint32_t));
static_assert(offsetof(VdEntry, nvo) == sizeof(float));
static_assert(std::is_trivially_copyable_v<VdEntry>);

Status ParseVPage(std::string_view data, VPage* page) {
  Decoder decoder(data);
  uint32_t count = 0;
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&count));
  // Check before resizing so a corrupt count cannot drive the allocation.
  if (decoder.remaining() < uint64_t{count} * sizeof(VdEntry)) {
    return Status::Corruption("vpage: entry count exceeds record");
  }
  page->resize(count);
  if (count > 0) {
    std::memcpy(page->data(), data.data() + decoder.position(),
                count * sizeof(VdEntry));
  }
  return Status::OK();
}

double VPageDovSum(const VPage& page) {
  double sum = 0.0;
  for (const VdEntry& e : page) {
    sum += e.dov;
  }
  return sum;
}

uint64_t VPageNvoSum(const VPage& page) {
  uint64_t sum = 0;
  for (const VdEntry& e : page) {
    sum += e.nvo;
  }
  return sum;
}

bool VPageVisible(const VPage& page) {
  for (const VdEntry& e : page) {
    if (e.dov > 0.0f) {
      return true;
    }
  }
  return false;
}

}  // namespace hdov
