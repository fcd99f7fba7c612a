#include "persist/snapshot.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>

#include "common/coding.h"
#include "common/crc32c.h"

namespace hdov {

namespace {

constexpr uint64_t kSnapshotMagic = 0x50414E53564F4448ull;  // "HDOVSNAP".
// magic, version, page_size, section_count, reserved, catalog_offset,
// catalog_length, catalog_crc, superblock_crc.
constexpr size_t kSuperblockBytes = 8 + 4 + 4 + 4 + 4 + 8 + 8 + 4 + 4;

uint64_t RoundUpTo(uint64_t value, uint64_t align) {
  return (value + align - 1) / align * align;
}

// Wall-clock timer feeding PersistStats::load_millis.
class LoadTimer {
 public:
  explicit LoadTimer(PersistStats* stats)
      : stats_(stats), start_(std::chrono::steady_clock::now()) {}
  ~LoadTimer() {
    if (stats_ != nullptr) {
      stats_->load_millis +=
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start_)
              .count();
    }
  }

 private:
  PersistStats* stats_;
  std::chrono::steady_clock::time_point start_;
};

Status FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  HDOV_ASSIGN_OR_RETURN(auto handle,
                        FileHandle::Open(dir, FileHandle::Mode::kReadOnly));
  return handle->Fsync();
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotWriter

SnapshotWriter::SnapshotWriter(std::string final_path, std::string temp_path,
                               std::shared_ptr<FileHandle> file,
                               uint32_t page_size, PersistStats* stats)
    : final_path_(std::move(final_path)),
      temp_path_(std::move(temp_path)),
      file_(std::move(file)),
      page_size_(page_size),
      stats_(stats),
      next_offset_(page_size) {}

SnapshotWriter::~SnapshotWriter() {
  if (!committed_) {
    ::unlink(temp_path_.c_str());
  }
}

Result<std::unique_ptr<SnapshotWriter>> SnapshotWriter::Create(
    const std::string& path, uint32_t page_size, PersistStats* stats) {
  if (page_size < kSuperblockBytes) {
    return Status::InvalidArgument("snapshot: page size too small");
  }
  std::string temp = path + ".tmp";
  HDOV_ASSIGN_OR_RETURN(
      auto file, FileHandle::Open(temp, FileHandle::Mode::kCreateTruncate));
  return std::unique_ptr<SnapshotWriter>(new SnapshotWriter(
      path, std::move(temp), std::move(file), page_size, stats));
}

Status SnapshotWriter::CheckName(const std::string& name) const {
  if (name.empty()) {
    return Status::InvalidArgument("snapshot: empty section name");
  }
  for (const Entry& entry : entries_) {
    if (entry.name == name) {
      return Status::AlreadyExists("snapshot: duplicate section " + name);
    }
  }
  return Status::OK();
}

Status SnapshotWriter::AddBlob(const std::string& name,
                               std::string_view bytes) {
  HDOV_RETURN_IF_ERROR(CheckName(name));
  Entry entry;
  entry.name = name;
  entry.kind = SectionKind::kBlob;
  entry.offset = next_offset_;
  entry.length = bytes.size();
  entry.crc = Crc32c(bytes);
  HDOV_RETURN_IF_ERROR(
      file_->PwriteExact(entry.offset, bytes.data(), bytes.size()));
  if (stats_ != nullptr) {
    stats_->bytes_written += bytes.size();
  }
  next_offset_ = RoundUpTo(entry.offset + entry.length, page_size_);
  entries_.push_back(std::move(entry));
  return Status::OK();
}

Status SnapshotWriter::AddDevice(const std::string& name,
                                 const PageDevice& device) {
  HDOV_RETURN_IF_ERROR(CheckName(name));
  if (device.page_size() != page_size_) {
    return Status::InvalidArgument(
        "snapshot: device page size differs from snapshot page size");
  }
  Entry entry;
  entry.name = name;
  entry.kind = SectionKind::kDevice;
  entry.offset = next_offset_;
  HDOV_ASSIGN_OR_RETURN(
      auto region, FilePageDevice::CreateAt(file_, entry.offset,
                                            device.model(), nullptr, stats_));
  std::vector<std::string> pages;
  HDOV_RETURN_IF_ERROR(device.ExportContents(&pages));
  HDOV_RETURN_IF_ERROR(region->RestoreContents(std::move(pages)));
  HDOV_RETURN_IF_ERROR(region->Sync());
  entry.length = region->region_length();
  next_offset_ = RoundUpTo(entry.offset + entry.length, page_size_);
  entries_.push_back(std::move(entry));
  return Status::OK();
}

Status SnapshotWriter::Commit() {
  if (committed_) {
    return Status::FailedPrecondition("snapshot: already committed");
  }
  std::string catalog;
  EncodeFixed32(&catalog, static_cast<uint32_t>(entries_.size()));
  for (const Entry& entry : entries_) {
    EncodeFixed32(&catalog, static_cast<uint32_t>(entry.name.size()));
    catalog.append(entry.name);
    catalog.push_back(static_cast<char>(entry.kind));
    EncodeFixed64(&catalog, entry.offset);
    EncodeFixed64(&catalog, entry.length);
    EncodeFixed32(&catalog, entry.crc);
  }
  const uint64_t catalog_offset = next_offset_;
  HDOV_RETURN_IF_ERROR(
      file_->PwriteExact(catalog_offset, catalog.data(), catalog.size()));

  std::string superblock;
  EncodeFixed64(&superblock, kSnapshotMagic);
  EncodeFixed32(&superblock, kSnapshotVersion);
  EncodeFixed32(&superblock, page_size_);
  EncodeFixed32(&superblock, static_cast<uint32_t>(entries_.size()));
  EncodeFixed32(&superblock, 0);  // Reserved.
  EncodeFixed64(&superblock, catalog_offset);
  EncodeFixed64(&superblock, catalog.size());
  EncodeFixed32(&superblock, Crc32c(catalog));
  EncodeFixed32(&superblock, Crc32c(superblock));
  superblock.resize(page_size_, '\0');
  HDOV_RETURN_IF_ERROR(
      file_->PwriteExact(0, superblock.data(), superblock.size()));
  HDOV_RETURN_IF_ERROR(file_->Fsync());
  if (stats_ != nullptr) {
    stats_->bytes_written += catalog.size() + superblock.size();
    ++stats_->fsyncs;
  }
  if (std::rename(temp_path_.c_str(), final_path_.c_str()) != 0) {
    return Status::IoError("snapshot: rename to " + final_path_ + " failed");
  }
  committed_ = true;
  HDOV_RETURN_IF_ERROR(FsyncParentDir(final_path_));
  if (stats_ != nullptr) {
    ++stats_->fsyncs;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SnapshotLoader

Result<std::unique_ptr<SnapshotLoader>> SnapshotLoader::Open(
    const std::string& path, PersistStats* stats) {
  LoadTimer timer(stats);
  HDOV_ASSIGN_OR_RETURN(auto file,
                        FileHandle::Open(path, FileHandle::Mode::kReadOnly));
  std::unique_ptr<SnapshotLoader> loader(
      new SnapshotLoader(path, std::move(file), stats));

  std::string superblock(kSuperblockBytes, '\0');
  HDOV_RETURN_IF_ERROR(
      loader->file_->PreadExact(0, superblock.data(), superblock.size()));
  Decoder decoder(superblock);
  uint64_t magic = 0;
  uint32_t version = 0, page_size = 0, section_count = 0, reserved = 0;
  uint64_t catalog_offset = 0, catalog_length = 0;
  uint32_t catalog_crc = 0, superblock_crc = 0;
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&magic));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&version));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&page_size));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&section_count));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&reserved));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&catalog_offset));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&catalog_length));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&catalog_crc));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&superblock_crc));
  if (magic != kSnapshotMagic) {
    return Status::Corruption("snapshot: bad magic in " + path);
  }
  if (version != kSnapshotVersion) {
    return Status::Corruption("snapshot: unsupported version in " + path);
  }
  if (stats != nullptr) {
    ++stats->checksum_verifications;
    stats->bytes_read += superblock.size();
  }
  if (superblock_crc != Crc32c(std::string_view(superblock.data(),
                                                kSuperblockBytes - 4))) {
    if (stats != nullptr) {
      ++stats->checksum_failures;
    }
    return Status::Corruption("snapshot: superblock checksum mismatch in " +
                              path);
  }
  loader->page_size_ = page_size;

  HDOV_ASSIGN_OR_RETURN(
      std::string catalog,
      loader->file_->ReadRange(catalog_offset, catalog_length));
  if (stats != nullptr) {
    ++stats->checksum_verifications;
    stats->bytes_read += catalog.size();
  }
  if (catalog_crc != Crc32c(catalog)) {
    if (stats != nullptr) {
      ++stats->checksum_failures;
    }
    return Status::Corruption("snapshot: catalog checksum mismatch in " +
                              path);
  }
  Decoder cat(catalog);
  uint32_t count = 0;
  HDOV_RETURN_IF_ERROR(cat.DecodeFixed32(&count));
  if (count != section_count) {
    return Status::Corruption("snapshot: catalog count mismatch in " + path);
  }
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    HDOV_RETURN_IF_ERROR(cat.DecodeFixed32(&name_len));
    if (cat.remaining() < name_len + 1) {
      return Status::Corruption("snapshot: truncated catalog in " + path);
    }
    std::string name(catalog.data() + cat.position(), name_len);
    HDOV_RETURN_IF_ERROR(cat.Skip(name_len));
    const uint8_t kind = static_cast<uint8_t>(catalog[cat.position()]);
    HDOV_RETURN_IF_ERROR(cat.Skip(1));
    Entry entry;
    if (kind > static_cast<uint8_t>(SectionKind::kDevice)) {
      return Status::Corruption("snapshot: unknown section kind in " + path);
    }
    entry.kind = static_cast<SectionKind>(kind);
    HDOV_RETURN_IF_ERROR(cat.DecodeFixed64(&entry.offset));
    HDOV_RETURN_IF_ERROR(cat.DecodeFixed64(&entry.length));
    HDOV_RETURN_IF_ERROR(cat.DecodeFixed32(&entry.crc));
    loader->sections_.emplace(std::move(name), entry);
  }
  return loader;
}

std::vector<std::string> SnapshotLoader::SectionNames() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const auto& [name, entry] : sections_) {
    names.push_back(name);
  }
  return names;
}

Result<const SnapshotLoader::Entry*> SnapshotLoader::Find(
    const std::string& name, SectionKind kind) const {
  auto it = sections_.find(name);
  if (it == sections_.end()) {
    return Status::NotFound("snapshot: no section named " + name);
  }
  if (it->second.kind != kind) {
    return Status::InvalidArgument("snapshot: section " + name +
                                   " has a different kind");
  }
  return &it->second;
}

Result<std::string> SnapshotLoader::ReadBlob(const std::string& name) const {
  LoadTimer timer(stats_);
  HDOV_ASSIGN_OR_RETURN(const Entry* entry, Find(name, SectionKind::kBlob));
  HDOV_ASSIGN_OR_RETURN(std::string bytes,
                        file_->ReadRange(entry->offset, entry->length));
  if (stats_ != nullptr) {
    ++stats_->checksum_verifications;
    stats_->bytes_read += bytes.size();
  }
  if (Crc32c(bytes) != entry->crc) {
    if (stats_ != nullptr) {
      ++stats_->checksum_failures;
    }
    return Status::Corruption("snapshot: section " + name +
                              " checksum mismatch");
  }
  return bytes;
}

Status SnapshotLoader::RestoreDevice(const std::string& name,
                                     PageDevice* dst) const {
  LoadTimer timer(stats_);
  HDOV_ASSIGN_OR_RETURN(const Entry* entry, Find(name, SectionKind::kDevice));
  HDOV_ASSIGN_OR_RETURN(
      auto region, FilePageDevice::OpenAt(file_, entry->offset, dst->model(),
                                          nullptr, stats_));
  std::vector<std::string> pages;
  HDOV_RETURN_IF_ERROR(region->ExportContents(&pages));
  return dst->RestoreContents(std::move(pages));
}

Result<std::unique_ptr<FilePageDevice>> SnapshotLoader::OpenDevice(
    const std::string& name, const DiskModel& model, SimClock* clock) const {
  LoadTimer timer(stats_);
  HDOV_ASSIGN_OR_RETURN(const Entry* entry, Find(name, SectionKind::kDevice));
  return FilePageDevice::OpenAt(file_, entry->offset, model, clock, stats_);
}

}  // namespace hdov
