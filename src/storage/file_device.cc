#include "storage/file_device.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/coding.h"
#include "common/crc32c.h"

namespace hdov {

namespace {

constexpr uint32_t kFileDeviceMagic = 0x66644856;  // Bytes "VHdf" on disk.
constexpr uint32_t kFileDeviceVersion = 1;
// magic, version, page_size, reserved, page_count, materialized,
// table_offset, table_length, table_crc, header_crc.
constexpr size_t kHeaderBytes = 4 * 4 + 4 * 8 + 4 + 4;
constexpr size_t kTableEntryBytes = 1 + 8 + 4;

uint64_t RoundUpToPage(uint64_t bytes, uint32_t page_size) {
  return (bytes + page_size - 1) / page_size * page_size;
}

std::string Errno(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

}  // namespace

// ---------------------------------------------------------------------------
// FileHandle

Result<std::shared_ptr<FileHandle>> FileHandle::Open(const std::string& path,
                                                     Mode mode) {
  int flags = 0;
  switch (mode) {
    case Mode::kReadOnly:
      flags = O_RDONLY;
      break;
    case Mode::kReadWrite:
      flags = O_RDWR;
      break;
    case Mode::kCreateTruncate:
      flags = O_RDWR | O_CREAT | O_TRUNC;
      break;
  }
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IoError(Errno("file handle: cannot open", path));
  }
  return std::shared_ptr<FileHandle>(
      new FileHandle(fd, path, mode != Mode::kReadOnly));
}

FileHandle::~FileHandle() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status FileHandle::PreadExact(uint64_t offset, void* buf, size_t n) const {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    ssize_t got = ::pread(fd_, p, n, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::IoError(Errno("file handle: pread", path_));
    }
    if (got == 0) {
      return Status::Corruption("file handle: short read from " + path_);
    }
    p += got;
    offset += static_cast<uint64_t>(got);
    n -= static_cast<size_t>(got);
  }
  return Status::OK();
}

Status FileHandle::PwriteExact(uint64_t offset, const void* buf, size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    ssize_t put = ::pwrite(fd_, p, n, static_cast<off_t>(offset));
    if (put < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::IoError(Errno("file handle: pwrite", path_));
    }
    p += put;
    offset += static_cast<uint64_t>(put);
    n -= static_cast<size_t>(put);
  }
  return Status::OK();
}

Status FileHandle::Fsync() {
  if (::fsync(fd_) != 0) {
    return Status::IoError(Errno("file handle: fsync", path_));
  }
  return Status::OK();
}

Result<uint64_t> FileHandle::Size() const {
  off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end < 0) {
    return Status::IoError(Errno("file handle: lseek", path_));
  }
  return static_cast<uint64_t>(end);
}

Result<std::string> FileHandle::ReadRange(uint64_t offset,
                                          uint64_t length) const {
  HDOV_ASSIGN_OR_RETURN(uint64_t size, Size());
  if (offset > size || length > size - offset) {
    return Status::Corruption("file handle: range past the end of " + path_);
  }
  std::string bytes(length, '\0');
  HDOV_RETURN_IF_ERROR(PreadExact(offset, bytes.data(), bytes.size()));
  return bytes;
}

// ---------------------------------------------------------------------------
// PersistStats

void PersistStats::RegisterWith(telemetry::MetricsRegistry* registry,
                                const std::string& prefix) const {
  const PersistStats* stats = this;
  const auto view = [&](const char* name, auto field) {
    registry->RegisterView(prefix + name, [stats, field] {
      return static_cast<double>(stats->*field);
    });
  };
  view(".bytes_written", &PersistStats::bytes_written);
  view(".bytes_read", &PersistStats::bytes_read);
  view(".fsyncs", &PersistStats::fsyncs);
  view(".checksum_verifications", &PersistStats::checksum_verifications);
  view(".checksum_failures", &PersistStats::checksum_failures);
  view(".load_millis", &PersistStats::load_millis);
}

// ---------------------------------------------------------------------------
// FilePageDevice

FilePageDevice::FilePageDevice(std::shared_ptr<FileHandle> file,
                               uint64_t region_offset, const DiskModel& model,
                               SimClock* clock, PersistStats* persist)
    : PageDevice(model, clock),
      file_(std::move(file)),
      region_offset_(region_offset),
      persist_(persist) {}

Result<std::unique_ptr<FilePageDevice>> FilePageDevice::Create(
    const std::string& path, const DiskModel& model, SimClock* clock,
    PersistStats* persist) {
  HDOV_ASSIGN_OR_RETURN(auto file,
                        FileHandle::Open(path, FileHandle::Mode::kCreateTruncate));
  return CreateAt(std::move(file), 0, model, clock, persist);
}

Result<std::unique_ptr<FilePageDevice>> FilePageDevice::Open(
    const std::string& path, const DiskModel& model, SimClock* clock,
    PersistStats* persist) {
  HDOV_ASSIGN_OR_RETURN(auto file,
                        FileHandle::Open(path, FileHandle::Mode::kReadOnly));
  return OpenAt(std::move(file), 0, model, clock, persist);
}

Result<std::unique_ptr<FilePageDevice>> FilePageDevice::CreateAt(
    std::shared_ptr<FileHandle> file, uint64_t region_offset,
    const DiskModel& model, SimClock* clock, PersistStats* persist) {
  if (!file->writable()) {
    return Status::InvalidArgument(
        "file device: create needs a writable handle");
  }
  return std::unique_ptr<FilePageDevice>(new FilePageDevice(
      std::move(file), region_offset, model, clock, persist));
}

Result<std::unique_ptr<FilePageDevice>> FilePageDevice::OpenAt(
    std::shared_ptr<FileHandle> file, uint64_t region_offset,
    const DiskModel& model, SimClock* clock, PersistStats* persist) {
  std::unique_ptr<FilePageDevice> device(new FilePageDevice(
      std::move(file), region_offset, model, clock, persist));
  HDOV_RETURN_IF_ERROR(device->LoadExisting());
  return device;
}

Status FilePageDevice::LoadExisting() {
  std::string header(page_size(), '\0');
  HDOV_RETURN_IF_ERROR(
      file_->PreadExact(region_offset_, header.data(), header.size()));
  if (persist_ != nullptr) {
    persist_->bytes_read += header.size();
  }
  Decoder decoder(header);
  uint32_t magic = 0, version = 0, file_page_size = 0, reserved = 0;
  uint64_t page_count = 0, materialized = 0, table_offset = 0,
           table_length = 0;
  uint32_t table_crc = 0, header_crc = 0;
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&magic));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&version));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&file_page_size));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&reserved));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&page_count));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&materialized));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&table_offset));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&table_length));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&table_crc));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&header_crc));
  if (magic != kFileDeviceMagic) {
    return Status::Corruption("file device: bad magic in " + file_->path());
  }
  if (version != kFileDeviceVersion) {
    return Status::Corruption("file device: unsupported version in " +
                              file_->path());
  }
  if (persist_ != nullptr) {
    ++persist_->checksum_verifications;
  }
  if (header_crc !=
      Crc32c(std::string_view(header.data(), kHeaderBytes - 4))) {
    if (persist_ != nullptr) {
      ++persist_->checksum_failures;
    }
    return Status::Corruption("file device: header checksum mismatch in " +
                              file_->path());
  }
  if (file_page_size != page_size()) {
    return Status::InvalidArgument(
        "file device: file page size does not match the device model");
  }
  // Division, not page_count * kTableEntryBytes, so a forged count cannot
  // wrap into agreement; the table must then fit in the file, which bounds
  // page_count before the entries are sized.
  if (table_length % kTableEntryBytes != 0 ||
      table_length / kTableEntryBytes != page_count ||
      table_offset > UINT64_MAX - region_offset_) {
    return Status::Corruption("file device: inconsistent table length in " +
                              file_->path());
  }
  HDOV_ASSIGN_OR_RETURN(
      std::string table,
      file_->ReadRange(region_offset_ + table_offset, table_length));
  if (persist_ != nullptr) {
    persist_->bytes_read += table.size();
    ++persist_->checksum_verifications;
  }
  if (table_crc != Crc32c(table)) {
    if (persist_ != nullptr) {
      ++persist_->checksum_failures;
    }
    return Status::Corruption("file device: page table checksum mismatch in " +
                              file_->path());
  }
  std::vector<PageEntry> entries(page_count);
  Decoder table_decoder(table);
  for (uint64_t i = 0; i < page_count; ++i) {
    uint8_t state = static_cast<uint8_t>(table[i * kTableEntryBytes]);
    HDOV_RETURN_IF_ERROR(table_decoder.Skip(1));
    PageEntry& entry = entries[i];
    HDOV_RETURN_IF_ERROR(table_decoder.DecodeFixed64(&entry.slot));
    HDOV_RETURN_IF_ERROR(table_decoder.DecodeFixed32(&entry.crc));
    entry.materialized = state;
    if (state != 0 && entry.slot >= materialized) {
      return Status::Corruption("file device: slot index out of range in " +
                                file_->path());
    }
  }
  table_ = std::move(entries);
  materialized_count_ = materialized;
  region_length_ = RoundUpToPage(table_offset + table_length, page_size());
  return Status::OK();
}

PageId FilePageDevice::Allocate() {
  PageId id = table_.size();
  PageEntry entry;
  entry.materialized = 1;
  entry.slot = materialized_count_++;
  // Materialize the zero page on disk so later reads (and CRC checks) see
  // exactly what the in-memory device would serve.
  std::string zeros(page_size(), '\0');
  entry.crc = Crc32c(zeros);
  table_.push_back(entry);
  Status status =
      file_->PwriteExact(SlotFileOffset(entry.slot), zeros.data(), zeros.size());
  (void)status;  // Allocation cannot report; Write/Sync surface I/O errors.
  if (persist_ != nullptr) {
    persist_->bytes_written += zeros.size();
  }
  return id;
}

PageId FilePageDevice::AllocateUnmaterialized(uint64_t count) {
  PageId first = table_.size();
  table_.resize(table_.size() + count);
  return first;
}

Status FilePageDevice::WriteSlot(PageId page, std::string_view data) {
  PageEntry& entry = table_[page];
  if (entry.materialized == 0) {
    entry.materialized = 1;
    entry.slot = materialized_count_++;
  }
  std::string padded(page_size(), '\0');
  padded.replace(0, data.size(), data);
  entry.crc = Crc32c(padded);
  HDOV_RETURN_IF_ERROR(
      file_->PwriteExact(SlotFileOffset(entry.slot), padded.data(),
                         padded.size()));
  if (persist_ != nullptr) {
    persist_->bytes_written += padded.size();
  }
  return Status::OK();
}

Status FilePageDevice::Write(PageId page, std::string_view data) {
  if (page >= table_.size()) {
    return Status::OutOfRange("file device: write past end");
  }
  if (data.size() > page_size()) {
    return Status::InvalidArgument("file device: record exceeds page size");
  }
  HDOV_RETURN_IF_ERROR(WriteSlot(page, data));
  BillWrite(page);
  return Status::OK();
}

Status FilePageDevice::FetchPage(PageId page, std::string* out) const {
  const PageEntry& entry = table_[page];
  // Per-call buffer: this path must stay safe for concurrent readers, so
  // there is deliberately no shared scratch space. `out` is only assigned
  // after the checksum verifies, preserving untouched-output-on-error.
  std::string buffer(page_size(), '\0');
  HDOV_RETURN_IF_ERROR(file_->PreadExact(SlotFileOffset(entry.slot),
                                         buffer.data(), buffer.size()));
  if (persist_ != nullptr) {
    persist_->bytes_read += buffer.size();
    ++persist_->checksum_verifications;
  }
  if (Crc32c(buffer) != entry.crc) {
    if (persist_ != nullptr) {
      ++persist_->checksum_failures;
    }
    return Status::Corruption("file device: page checksum mismatch in " +
                              file_->path());
  }
  if (out != nullptr) {
    *out = std::move(buffer);
  }
  return Status::OK();
}

Status FilePageDevice::Read(PageId page, std::string* out) {
  if (page >= table_.size()) {
    return Status::OutOfRange("file device: read past end");
  }
  BillRead(page, 1);
  if (table_[page].materialized == 0) {
    if (out != nullptr) {
      out->assign(page_size(), '\0');
    }
    return Status::OK();
  }
  return FetchPage(page, out);
}

Status FilePageDevice::ReadRun(PageId first, uint64_t count,
                               std::vector<std::string>* out) {
  if (count == 0) {
    return Status::OK();
  }
  if (count > table_.size() || first > table_.size() - count) {
    return Status::OutOfRange("file device: run read past end");
  }
  BillRead(first, count);
  if (out == nullptr) {
    return Status::OK();
  }
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    if (table_[first + i].materialized == 0) {
      out->emplace_back(page_size(), '\0');
    } else {
      out->emplace_back();
      HDOV_RETURN_IF_ERROR(FetchPage(first + i, &out->back()));
    }
  }
  return Status::OK();
}

Status FilePageDevice::ReadRaw(PageId page, std::string* out) const {
  if (page >= table_.size()) {
    return Status::OutOfRange("file device: raw read past end");
  }
  if (table_[page].materialized == 0) {
    out->assign(page_size(), '\0');
    return Status::OK();
  }
  return FetchPage(page, out);
}

bool FilePageDevice::IsMaterialized(PageId page) const {
  return page < table_.size() && table_[page].materialized != 0;
}

Status FilePageDevice::RestoreContents(std::vector<std::string> pages) {
  table_.clear();
  materialized_count_ = 0;
  table_.resize(pages.size());
  for (PageId id = 0; id < pages.size(); ++id) {
    const std::string& page = pages[id];
    if (page.empty()) {
      continue;  // Unmaterialized.
    }
    if (page.size() != page_size()) {
      return Status::InvalidArgument(
          "file device: restored page has wrong size");
    }
    HDOV_RETURN_IF_ERROR(WriteSlot(id, page));
  }
  return Status::OK();
}

Status FilePageDevice::Sync() {
  if (!file_->writable()) {
    return Status::FailedPrecondition("file device: handle is read-only");
  }
  std::string table;
  table.reserve(table_.size() * kTableEntryBytes);
  for (const PageEntry& entry : table_) {
    table.push_back(static_cast<char>(entry.materialized));
    EncodeFixed64(&table, entry.slot);
    EncodeFixed32(&table, entry.crc);
  }
  const uint64_t table_offset = page_size() * (1 + materialized_count_);
  HDOV_RETURN_IF_ERROR(
      file_->PwriteExact(region_offset_ + table_offset, table.data(),
                         table.size()));

  std::string header;
  EncodeFixed32(&header, kFileDeviceMagic);
  EncodeFixed32(&header, kFileDeviceVersion);
  EncodeFixed32(&header, page_size());
  EncodeFixed32(&header, 0);  // Reserved.
  EncodeFixed64(&header, table_.size());
  EncodeFixed64(&header, materialized_count_);
  EncodeFixed64(&header, table_offset);
  EncodeFixed64(&header, table.size());
  EncodeFixed32(&header, Crc32c(table));
  EncodeFixed32(&header, Crc32c(header));
  header.resize(page_size(), '\0');
  HDOV_RETURN_IF_ERROR(
      file_->PwriteExact(region_offset_, header.data(), header.size()));
  HDOV_RETURN_IF_ERROR(file_->Fsync());
  if (persist_ != nullptr) {
    persist_->bytes_written += table.size() + header.size();
    ++persist_->fsyncs;
  }
  region_length_ = RoundUpToPage(table_offset + table.size(), page_size());
  return Status::OK();
}

}  // namespace hdov
