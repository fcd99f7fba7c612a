// FilePageDevice: the PageDevice contract served from a real file with
// pread/pwrite. Materialized pages are packed page-aligned in write order
// ("slots"); a per-page table (state, slot, CRC32C) plus a header make the
// region self-describing. Simulated costs (IoStats, SimClock) are billed
// through the shared base-class helpers so counters stay bit-identical to
// the in-memory device regardless of backend.
//
// Region layout, offsets relative to `region_offset`:
//
//   [0, page_size)                      header (magic, version, geometry,
//                                       table location, CRCs)
//   [page_size, page_size*(1+M))        M materialized page slots, packed
//   [table_offset, +table_length)       page table: one entry per logical
//                                       page {state u8, slot u64, crc u32}
//
// The header and table are written by Sync() (followed by fsync); until
// then only page data has been written. A region can live at offset 0 of
// its own file (Create/Open) or embedded inside a larger file such as a
// snapshot (CreateAt/OpenAt with a shared FileHandle).

#ifndef HDOV_STORAGE_FILE_DEVICE_H_
#define HDOV_STORAGE_FILE_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/page_device.h"

namespace hdov {

// Thin RAII wrapper over a POSIX file descriptor with whole-buffer
// pread/pwrite helpers. Shared (via shared_ptr) between several embedded
// FilePageDevice regions of one snapshot file.
class FileHandle {
 public:
  enum class Mode { kReadOnly, kReadWrite, kCreateTruncate };

  static Result<std::shared_ptr<FileHandle>> Open(const std::string& path,
                                                  Mode mode);
  ~FileHandle();

  FileHandle(const FileHandle&) = delete;
  FileHandle& operator=(const FileHandle&) = delete;

  const std::string& path() const { return path_; }
  bool writable() const { return writable_; }

  // Reads/writes exactly `n` bytes at `offset`; short transfer => error.
  Status PreadExact(uint64_t offset, void* buf, size_t n) const;
  Status PwriteExact(uint64_t offset, const void* buf, size_t n);
  Status Fsync();
  Result<uint64_t> Size() const;

  // The bytes of [offset, offset + length), after an overflow-safe check
  // that the range lies inside the file: a length read from a header
  // never sizes a buffer past the file (Corruption instead).
  Result<std::string> ReadRange(uint64_t offset, uint64_t length) const;

 private:
  FileHandle(int fd, std::string path, bool writable)
      : fd_(fd), path_(std::move(path)), writable_(writable) {}

  int fd_;
  std::string path_;
  bool writable_;
};

// Durability counters for the persistence layer, surfaced through the
// metrics registry as `persist.*` views. One struct is typically shared
// by every file device of a snapshot plus its writer/loader. The integer
// counters are relaxed atomics because the read-side accounting runs on
// the (thread-safe, const) ReadRaw path, which several server sessions
// may drive concurrently through shared base devices.
struct PersistStats {
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> fsyncs{0};
  std::atomic<uint64_t> checksum_verifications{0};
  std::atomic<uint64_t> checksum_failures{0};
  double load_millis = 0.0;  // Filled by SnapshotLoader (single-threaded).

  // Registers read-through views `<prefix>.bytes_written`, `.bytes_read`,
  // `.fsyncs`, `.checksum_verifications`, `.checksum_failures`,
  // `.load_millis`. The struct must outlive the registration.
  void RegisterWith(telemetry::MetricsRegistry* registry,
                    const std::string& prefix) const;
};

class FilePageDevice : public PageDevice {
 public:
  // Fresh empty region at offset 0 of `path` (created/truncated).
  static Result<std::unique_ptr<FilePageDevice>> Create(
      const std::string& path, const DiskModel& model = DiskModel(),
      SimClock* clock = nullptr, PersistStats* persist = nullptr);

  // Opens an existing region at offset 0 of `path` read-only.
  static Result<std::unique_ptr<FilePageDevice>> Open(
      const std::string& path, const DiskModel& model = DiskModel(),
      SimClock* clock = nullptr, PersistStats* persist = nullptr);

  // Fresh empty region embedded at `region_offset` of a shared file.
  static Result<std::unique_ptr<FilePageDevice>> CreateAt(
      std::shared_ptr<FileHandle> file, uint64_t region_offset,
      const DiskModel& model = DiskModel(), SimClock* clock = nullptr,
      PersistStats* persist = nullptr);

  // Opens an existing region embedded at `region_offset`. Header and page
  // table are read and CRC-verified up front; page data is verified on
  // each read.
  static Result<std::unique_ptr<FilePageDevice>> OpenAt(
      std::shared_ptr<FileHandle> file, uint64_t region_offset,
      const DiskModel& model = DiskModel(), SimClock* clock = nullptr,
      PersistStats* persist = nullptr);

  // PageDevice contract. Billing is identical to the in-memory device.
  uint64_t page_count() const override { return table_.size(); }
  PageId Allocate() override;
  PageId AllocateUnmaterialized(uint64_t count) override;
  Status Write(PageId page, std::string_view data) override;
  // Fills `scratch` with the page and publishes the view only after its
  // CRC32C matches. A null `bytes` still reads and checks the page (into
  // a per-thread buffer when `scratch` is null too).
  Status ReadView(PageId page, std::string* scratch,
                  std::string_view* bytes) override;
  Status ReadRun(PageId first, uint64_t count,
                 std::vector<std::string>* out) override;
  Status ReadRaw(PageId page, std::string* out) const override;
  bool IsMaterialized(PageId page) const override;
  Status RestoreContents(std::vector<std::string> pages) override;

  // Writes the page table and header, then fsyncs. Until Sync() the region
  // on disk has no valid header. Requires a writable handle.
  Status Sync();

  // Bytes of file the region spans after the last Sync (header + data +
  // table, rounded up to a page boundary). Zero before the first Sync.
  uint64_t region_length() const { return region_length_; }

  const std::shared_ptr<FileHandle>& file() const { return file_; }

 private:
  struct PageEntry {
    uint8_t materialized = 0;
    uint64_t slot = 0;    // Data-slot index; valid when materialized.
    uint32_t crc = 0;     // CRC32C of page contents; valid when materialized.
  };

  FilePageDevice(std::shared_ptr<FileHandle> file, uint64_t region_offset,
                 const DiskModel& model, SimClock* clock,
                 PersistStats* persist);

  uint64_t SlotFileOffset(uint64_t slot) const {
    return region_offset_ + page_size() * (1 + slot);
  }
  // pwrite of one page of payload (pads to page_size), CRC bookkeeping.
  Status WriteSlot(PageId page, std::string_view data);
  // pread of a materialized page into `buffer` (resized to page_size) +
  // CRC verification. On a mismatch `buffer` holds the bad bytes.
  Status FetchPage(PageId page, std::string* buffer) const;

  Status LoadExisting();

  std::shared_ptr<FileHandle> file_;
  uint64_t region_offset_;
  PersistStats* persist_;          // May be null.
  // Shared state. Once a region has been opened (or synced) the table is
  // only mutated by the writer-side calls (Allocate/Write/Restore/Sync);
  // the const read path (ReadRaw/FetchPage/IsMaterialized) takes no locks
  // and is safe for concurrent readers as long as no writer is active —
  // pread is positional and each thread reads into a buffer of its own.
  std::vector<PageEntry> table_;
  uint64_t materialized_count_ = 0;
  uint64_t region_length_ = 0;
};

}  // namespace hdov

#endif  // HDOV_STORAGE_FILE_DEVICE_H_
