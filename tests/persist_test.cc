#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"
#include "persist/snapshot.h"
#include "persist/world_codec.h"
#include "storage/buffer_pool.h"
#include "storage/file_device.h"
#include "telemetry/telemetry.h"
#include "temp_path.h"
#include "walkthrough/experiment_testbed.h"
#include "walkthrough/visual_system.h"

namespace hdov {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- crc32c

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 (iSCSI) B.4 check values, through both paths: the dispatched
  // one (the SSE4.2 instruction on x86-64 CPUs that have it) and the table
  // fallback.
  std::string ascending(32, '\0');
  std::string descending(32, '\0');
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  const std::pair<std::string, uint32_t> cases[] = {
      {"", 0u},
      {std::string(32, '\0'), 0x8A9136AAu},
      {std::string(32, '\xFF'), 0x62A8AB43u},
      {ascending, 0x46DD794Eu},
      {descending, 0x113FDB5Cu},
      {"123456789", 0xE3069283u},
  };
  for (const auto& [bytes, crc] : cases) {
    EXPECT_EQ(Crc32c(bytes), crc);
    EXPECT_EQ(Crc32cExtendPortable(0, bytes.data(), bytes.size()), crc);
  }
}

TEST(Crc32cTest, DispatchedMatchesPortable) {
  Rng rng(31);
  std::string buffer(5000 + 16, '\0');
  for (char& c : buffer) {
    c = static_cast<char>(rng.NextUint64(256));
  }
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t start = rng.NextUint64(16);  // Unaligned starts.
    const size_t length = rng.NextUint64(5001);
    const uint32_t seed = static_cast<uint32_t>(rng.NextUint64());
    const char* data = buffer.data() + start;
    const uint32_t expected = Crc32cExtendPortable(seed, data, length);
    ASSERT_EQ(Crc32cExtend(seed, data, length), expected)
        << "start " << start << " length " << length << " seed " << seed;
    // The same bytes chained in two pieces from a non-zero seed.
    const size_t split = rng.NextUint64(length + 1);
    ASSERT_EQ(Crc32cExtend(Crc32cExtend(seed, data, split), data + split,
                           length - split),
              expected)
        << "start " << start << " length " << length << " split " << split;
  }
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32cExtend(0, data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, Crc32c(data)) << "split at " << split;
  }
}

// --------------------------------------------------------- file device

TEST(FilePageDeviceTest, RoundTripThroughReopen) {
  const std::string path = TempPath("hdov_file_device_test.bin");
  PersistStats stats;
  {
    auto device = FilePageDevice::Create(path, DiskModel(), nullptr, &stats);
    ASSERT_TRUE(device.ok()) << device.status().ToString();
    PageId a = (*device)->Allocate();
    ASSERT_TRUE((*device)->Write(a, "page a contents").ok());
    PageId sparse = (*device)->AllocateUnmaterialized(3);
    PageId b = (*device)->Allocate();
    ASSERT_TRUE((*device)->Write(b, "page b contents").ok());
    (void)sparse;
    ASSERT_TRUE((*device)->Sync().ok());
  }
  EXPECT_GT(stats.bytes_written, 0u);
  EXPECT_GT(stats.fsyncs, 0u);

  auto reopened = FilePageDevice::Open(path, DiskModel(), nullptr, &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->page_count(), 5u);
  std::string data;
  ASSERT_TRUE((*reopened)->Read(0, &data).ok());
  EXPECT_EQ(data.substr(0, 15), "page a contents");
  ASSERT_TRUE((*reopened)->Read(1, &data).ok());  // Unmaterialized.
  EXPECT_EQ(data, std::string((*reopened)->page_size(), '\0'));
  ASSERT_TRUE((*reopened)->Read(4, &data).ok());
  EXPECT_EQ(data.substr(0, 15), "page b contents");
  EXPECT_GT(stats.checksum_verifications, 0u);
  EXPECT_EQ(stats.checksum_failures, 0u);
  std::remove(path.c_str());
}

TEST(FilePageDeviceTest, BillingMatchesMemoryDevice) {
  const std::string path = TempPath("hdov_file_device_billing.bin");
  auto file = FilePageDevice::Create(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  PageDevice memory;

  // Identical operation sequence against both backends.
  const auto drive = [](PageDevice* device) {
    PageId a = device->Allocate();
    EXPECT_TRUE(device->Write(a, "alpha").ok());
    PageId run = device->AllocateUnmaterialized(6);
    PageId b = device->Allocate();
    EXPECT_TRUE(device->Write(b, "beta").ok());
    std::string data;
    EXPECT_TRUE(device->Read(a, &data).ok());
    EXPECT_TRUE(device->ReadRun(run, 6, nullptr).ok());
    EXPECT_TRUE(device->Read(b, &data).ok());
    EXPECT_TRUE(device->Read(b, &data).ok());  // Repeat: back-seek.
  };
  drive(file->get());
  drive(&memory);

  const IoStats& f = (*file)->stats();
  const IoStats& m = memory.stats();
  EXPECT_EQ(f.page_reads, m.page_reads);
  EXPECT_EQ(f.page_writes, m.page_writes);
  EXPECT_EQ(f.seeks, m.seeks);
  EXPECT_EQ(f.bytes_read, m.bytes_read);
  EXPECT_EQ(f.bytes_written, m.bytes_written);
  EXPECT_DOUBLE_EQ((*file)->clock().NowMillis(), memory.clock().NowMillis());
  std::remove(path.c_str());
}

TEST(FilePageDeviceTest, ConcurrentRawReadsAreSafe) {
  // Regression for the shared scratch buffer: FetchPage staged every read
  // through one `mutable std::string`, so two threads on the const read
  // path scribbled over each other's pages. Reads now use per-call
  // buffers; run under TSan this must be race-free, and the content
  // checks below catch cross-thread corruption anywhere.
  const std::string path = TempPath("hdov_file_device_concurrent.bin");
  constexpr int kPages = 16;
  {
    auto device = FilePageDevice::Create(path);
    ASSERT_TRUE(device.ok()) << device.status().ToString();
    for (int i = 0; i < kPages; ++i) {
      PageId p = (*device)->Allocate();
      ASSERT_TRUE(
          (*device)->Write(p, "payload of page " + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*device)->Sync().ok());
  }
  auto device = FilePageDevice::Open(path);
  ASSERT_TRUE(device.ok()) << device.status().ToString();

  constexpr int kThreads = 4;
  constexpr int kIters = 300;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string data;
      for (int i = 0; i < kIters; ++i) {
        const int page = (t * 5 + i * 3) % kPages;
        const std::string expected =
            "payload of page " + std::to_string(page);
        if (!(*device)->ReadRaw(page, &data).ok() ||
            data.substr(0, expected.size()) != expected) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  std::remove(path.c_str());
}

TEST(FilePageDeviceTest, CorruptedPageFailsChecksum) {
  const std::string path = TempPath("hdov_file_device_corrupt.bin");
  PersistStats stats;
  {
    auto device = FilePageDevice::Create(path, DiskModel(), nullptr, &stats);
    ASSERT_TRUE(device.ok());
    PageId p = (*device)->Allocate();
    ASSERT_TRUE((*device)->Write(p, "precious payload").ok());
    ASSERT_TRUE((*device)->Sync().ok());
  }
  {
    // Flip one byte inside the page's data slot (slot 0 lives one page
    // into the region).
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(DiskModel().page_size + 3);
    f.put('X');
  }
  auto device = FilePageDevice::Open(path, DiskModel(), nullptr, &stats);
  ASSERT_TRUE(device.ok()) << device.status().ToString();
  std::string data;
  Status read = (*device)->Read(0, &data);
  EXPECT_TRUE(read.IsCorruption()) << read.ToString();
  EXPECT_GT(stats.checksum_failures, 0u);
  std::remove(path.c_str());
}

TEST(FilePageDeviceTest, ViewIsPublishedOnlyAfterChecksumMatches) {
  const std::string path = TempPath("hdov_file_device_view.bin");
  PersistStats stats;
  {
    auto device = FilePageDevice::Create(path, DiskModel(), nullptr, &stats);
    ASSERT_TRUE(device.ok());
    for (const char* payload : {"page zero", "page one"}) {
      PageId p = (*device)->Allocate();
      ASSERT_TRUE((*device)->Write(p, payload).ok());
    }
    ASSERT_TRUE((*device)->Sync().ok());
  }
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(DiskModel().page_size + 3);  // Inside page 0's data slot.
    f.put('X');
  }
  auto device = FilePageDevice::Open(path, DiskModel(), nullptr, &stats);
  ASSERT_TRUE(device.ok()) << device.status().ToString();
  const uint64_t verified = stats.checksum_verifications;
  const uint64_t failed = stats.checksum_failures;

  const std::string sentinel = "not a page";
  std::string scratch;
  std::string_view bytes = sentinel;
  EXPECT_TRUE((*device)->ReadView(0, &scratch, &bytes).IsCorruption());
  EXPECT_EQ(bytes.data(), sentinel.data());
  EXPECT_EQ(bytes.size(), sentinel.size());

  ASSERT_TRUE((*device)->ReadView(1, &scratch, &bytes).ok());
  EXPECT_EQ(bytes.data(), scratch.data());
  ASSERT_EQ(bytes.size(), DiskModel().page_size);
  EXPECT_EQ(bytes.substr(0, 8), "page one");

  // A read that asks for no bytes (the searcher's node-page billing,
  // Read(page, nullptr)) still reads and checks the page, every time,
  // though the buffer it reads into still holds the intact page.
  const uint64_t bytes_read = stats.bytes_read;
  constexpr uint64_t kRounds = 3;
  for (uint64_t round = 0; round < kRounds; ++round) {
    EXPECT_TRUE((*device)->Read(1, nullptr).ok()) << round;
    EXPECT_TRUE((*device)->ReadView(0, nullptr, nullptr).IsCorruption())
        << round;
  }
  EXPECT_EQ(stats.checksum_verifications - verified, 2 + 2 * kRounds);
  EXPECT_EQ(stats.checksum_failures - failed, 1 + kRounds);
  EXPECT_EQ(stats.bytes_read - bytes_read,
            2 * kRounds * DiskModel().page_size);
  EXPECT_EQ((*device)->stats().page_reads, 2 + 2 * kRounds);
  std::remove(path.c_str());
}

TEST(FilePageDeviceTest, RawReadsReuseTheCallersBuffer) {
  // The prefetch queue warms page after page through one string: a raw
  // read must land in that string's storage, not a fresh allocation, and
  // a page that fails its checksum must still leave the string alone.
  const std::string path = TempPath("hdov_file_device_raw_reuse.bin");
  constexpr int kPages = 8;
  {
    auto device = FilePageDevice::Create(path);
    ASSERT_TRUE(device.ok()) << device.status().ToString();
    for (int i = 0; i < kPages; ++i) {
      PageId p = (*device)->Allocate();
      ASSERT_TRUE(
          (*device)->Write(p, "raw page " + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*device)->Sync().ok());
  }
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(DiskModel().page_size + 3);  // Inside page 0's data slot.
    f.put('X');
  }
  auto device = FilePageDevice::Open(path);
  ASSERT_TRUE(device.ok()) << device.status().ToString();

  std::string data;
  ASSERT_TRUE((*device)->ReadRaw(1, &data).ok());
  const char* storage = data.data();
  for (int round = 0; round < 3; ++round) {
    for (int page = 1; page < kPages; ++page) {
      ASSERT_TRUE((*device)->ReadRaw(page, &data).ok());
      EXPECT_EQ(data.data(), storage) << page;
      ASSERT_EQ(data.size(), DiskModel().page_size);
      const std::string expected = "raw page " + std::to_string(page);
      EXPECT_EQ(data.substr(0, expected.size()), expected);
      EXPECT_EQ(data[expected.size()], '\0');
    }
  }
  const std::string before = data;
  EXPECT_TRUE((*device)->ReadRaw(0, &data).IsCorruption());
  EXPECT_EQ(data, before);
  EXPECT_EQ(data.data(), storage);
  std::remove(path.c_str());
}

// Little-endian field access for forging headers in place.
uint64_t GetFixed(const std::string& bytes, size_t at, int width) {
  uint64_t value = 0;
  for (int i = width - 1; i >= 0; --i) {
    value = (value << 8) | static_cast<uint8_t>(bytes[at + i]);
  }
  return value;
}

void PutFixed(std::string* bytes, size_t at, uint64_t value, int width) {
  for (int i = 0; i < width; ++i) {
    (*bytes)[at + i] = static_cast<char>(value >> (8 * i));
  }
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteWholeFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// -------------------------------------------------------------- snapshot

TEST(SnapshotTest, BlobRoundTripAndAtomicCommit) {
  const std::string path = TempPath("hdov_snapshot_blobs.hdov");
  std::remove(path.c_str());
  {
    auto writer = SnapshotWriter::Create(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE((*writer)->AddBlob("alpha", "first blob").ok());
    ASSERT_TRUE((*writer)->AddBlob("beta", std::string(9000, 'b')).ok());
    // Nothing visible at the final path until Commit.
    EXPECT_FALSE(fs::exists(path));
    ASSERT_TRUE((*writer)->Commit().ok());
    EXPECT_TRUE(fs::exists(path));
  }
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  auto loader = SnapshotLoader::Open(path);
  ASSERT_TRUE(loader.ok()) << loader.status().ToString();
  EXPECT_TRUE((*loader)->Contains("alpha"));
  EXPECT_FALSE((*loader)->Contains("gamma"));
  auto alpha = (*loader)->ReadBlob("alpha");
  ASSERT_TRUE(alpha.ok());
  EXPECT_EQ(*alpha, "first blob");
  auto beta = (*loader)->ReadBlob("beta");
  ASSERT_TRUE(beta.ok());
  EXPECT_EQ(beta->size(), 9000u);
  EXPECT_TRUE((*loader)->ReadBlob("gamma").status().IsNotFound());
  std::remove(path.c_str());
}

TEST(SnapshotTest, UncommittedWriterLeavesNothingBehind) {
  const std::string path = TempPath("hdov_snapshot_abandoned.hdov");
  std::remove(path.c_str());
  {
    auto writer = SnapshotWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AddBlob("alpha", "doomed").ok());
    // Destroyed without Commit.
  }
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(SnapshotTest, CorruptedBlobDetected) {
  const std::string path = TempPath("hdov_snapshot_corrupt.hdov");
  {
    auto writer = SnapshotWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AddBlob("alpha", std::string(100, 'a')).ok());
    ASSERT_TRUE((*writer)->Commit().ok());
  }
  {
    // The first section starts one page in; damage a byte of it.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(DiskModel().page_size + 7);
    f.put('!');
  }
  PersistStats stats;
  auto loader = SnapshotLoader::Open(path, &stats);
  ASSERT_TRUE(loader.ok()) << loader.status().ToString();
  Status read = (*loader)->ReadBlob("alpha").status();
  EXPECT_TRUE(read.IsCorruption()) << read.ToString();
  EXPECT_GT(stats.checksum_failures, 0u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, ForgedLengthsAreCorruption) {
  // Every length a loader takes from a header is checked against the file
  // before it sizes a buffer. Each case forges one field and re-signs the
  // header, so only the bounds checks stand between it and the allocation.
  const uint64_t kHuge = uint64_t{1} << 40;
  const std::string path = TempPath("forged.bin");

  // A file device region. Header fields: page_count @16, table_offset @32,
  // table_length @40, table_crc @48, header_crc @52 over [0, 52).
  {
    auto device = FilePageDevice::Create(path);
    ASSERT_TRUE(device.ok()) << device.status().ToString();
    ASSERT_TRUE((*device)->Write((*device)->Allocate(), "page").ok());
    ASSERT_TRUE((*device)->Sync().ok());
  }
  const std::string region = ReadWholeFile(path);
  const uint64_t table_offset = GetFixed(region, 32, 8);
  const auto open_forged = [&](uint64_t page_count, uint64_t table_length,
                               uint32_t table_crc) {
    std::string forged = region;
    PutFixed(&forged, 16, page_count, 8);
    PutFixed(&forged, 40, table_length, 8);
    PutFixed(&forged, 48, table_crc, 4);
    PutFixed(&forged, 52, Crc32c(std::string_view(forged.data(), 52)), 4);
    WriteWholeFile(path, forged);
    return FilePageDevice::Open(path).status();
  };
  // 2^40 pages with the table length to match: the table lies past the end.
  Status s = open_forged(kHuge, kHuge * 13, GetFixed(region, 48, 4));
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // A page count whose product with the 13-byte entry wraps to a 12-byte
  // table that is really there and carries a valid CRC.
  uint64_t inverse = 13;  // Newton's iteration for 13^-1 mod 2^64.
  for (int i = 0; i < 5; ++i) {
    inverse *= 2 - 13 * inverse;
  }
  ASSERT_EQ(13 * inverse, 1u);
  s = open_forged(12 * inverse, 12,
                  Crc32c(std::string_view(region.data() + table_offset, 12)));
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  // A snapshot with one blob. Superblock fields: catalog_offset @24,
  // catalog_length @32, catalog_crc @40, superblock_crc @44 over [0, 44).
  // The catalog's one entry: count u32, name_len u32, "alpha", kind u8,
  // offset u64, then the blob length u64 @22.
  {
    auto writer = SnapshotWriter::Create(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE((*writer)->AddBlob("alpha", "first blob").ok());
    ASSERT_TRUE((*writer)->Commit().ok());
  }
  const std::string snapshot = ReadWholeFile(path);
  const uint64_t catalog_offset = GetFixed(snapshot, 24, 8);
  const auto resign = [](std::string* bytes) {
    PutFixed(bytes, 44, Crc32c(std::string_view(bytes->data(), 44)), 4);
  };
  std::string forged = snapshot;
  PutFixed(&forged, 32, kHuge, 8);
  resign(&forged);
  WriteWholeFile(path, forged);
  s = SnapshotLoader::Open(path).status();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  forged = snapshot;
  PutFixed(&forged, catalog_offset + 22, kHuge, 8);
  const uint64_t catalog_length = GetFixed(snapshot, 32, 8);
  PutFixed(&forged, 40,
           Crc32c(std::string_view(forged.data() + catalog_offset,
                                   catalog_length)),
           4);
  resign(&forged);
  WriteWholeFile(path, forged);
  auto loader = SnapshotLoader::Open(path);
  ASSERT_TRUE(loader.ok()) << loader.status().ToString();
  s = (*loader)->ReadBlob("alpha").status();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  std::remove(path.c_str());
}

TEST(SnapshotTest, DeviceSectionRoundTrip) {
  const std::string path = TempPath("hdov_snapshot_device.hdov");
  PageDevice source;
  PageId a = source.Allocate();
  ASSERT_TRUE(source.Write(a, "device payload").ok());
  source.AllocateUnmaterialized(5);
  PageId b = source.Allocate();
  ASSERT_TRUE(source.Write(b, "tail page").ok());
  {
    auto writer = SnapshotWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AddDevice("dev", source).ok());
    ASSERT_TRUE((*writer)->Commit().ok());
  }
  auto loader = SnapshotLoader::Open(path);
  ASSERT_TRUE(loader.ok());

  PageDevice restored;
  ASSERT_TRUE((*loader)->RestoreDevice("dev", &restored).ok());
  ASSERT_EQ(restored.page_count(), source.page_count());
  std::string expect, got;
  for (PageId p = 0; p < source.page_count(); ++p) {
    EXPECT_EQ(source.IsMaterialized(p), restored.IsMaterialized(p));
    ASSERT_TRUE(source.ReadRaw(p, &expect).ok());
    ASSERT_TRUE(restored.ReadRaw(p, &got).ok());
    EXPECT_EQ(expect, got) << "page " << p;
  }

  auto opened = (*loader)->OpenDevice("dev", DiskModel(), nullptr);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_EQ((*opened)->page_count(), source.page_count());
  for (PageId p = 0; p < source.page_count(); ++p) {
    ASSERT_TRUE(source.ReadRaw(p, &expect).ok());
    ASSERT_TRUE((*opened)->ReadRaw(p, &got).ok());
    EXPECT_EQ(expect, got) << "page " << p;
  }
  std::remove(path.c_str());
}

TEST(PageDeviceTest, SparseImageStaysSmall) {
  // A device section records unmaterialized pages in its page table only:
  // 100,000 of them (400 MB logical) grow the snapshot by 13 bytes each,
  // rounded up to a page.
  const auto snapshot_bytes = [](const std::string& path,
                                 const PageDevice& device) -> uint64_t {
    auto writer = SnapshotWriter::Create(path);
    EXPECT_TRUE(writer.ok()) << writer.status().ToString();
    EXPECT_TRUE((*writer)->AddDevice("dev", device).ok());
    EXPECT_TRUE((*writer)->Commit().ok());
    const uint64_t bytes = fs::file_size(path);
    std::remove(path.c_str());
    return bytes;
  };
  PageDevice empty;
  PageDevice sparse;
  sparse.AllocateUnmaterialized(100000);
  const uint64_t page = DiskModel().page_size;
  const uint64_t table = 100000 * 13;
  EXPECT_EQ(snapshot_bytes(TempPath("sparse.hdov"), sparse) -
                snapshot_bytes(TempPath("empty.hdov"), empty),
            (table + page - 1) / page * page);
}

// ----------------------------------------------------------- world codec

TEST(WorldCodecTest, SceneRoundTripsBitExactly) {
  TestbedOptions topt;
  topt.blocks = 3;
  topt.cells = 3;
  auto bed = BuildTestbed(topt);
  ASSERT_TRUE(bed.ok()) << bed.status().ToString();

  std::string bytes;
  EncodeScene(bed->scene, &bytes);
  auto scene = DecodeScene(bytes);
  ASSERT_TRUE(scene.ok()) << scene.status().ToString();
  ASSERT_EQ(scene->size(), bed->scene.size());
  for (ObjectId id = 0; id < scene->size(); ++id) {
    const Object& in = bed->scene.object(id);
    const Object& out = scene->object(id);
    EXPECT_EQ(out.id, in.id);
    EXPECT_EQ(out.kind, in.kind);
    EXPECT_TRUE(out.mbr == in.mbr);
    ASSERT_EQ(out.lods.num_levels(), in.lods.num_levels());
    for (size_t l = 0; l < in.lods.num_levels(); ++l) {
      EXPECT_EQ(out.lods.level(l).triangle_count,
                in.lods.level(l).triangle_count);
      EXPECT_EQ(out.lods.level(l).byte_size, in.lods.level(l).byte_size);
    }
  }
  EXPECT_TRUE(scene->bounds() == bed->scene.bounds());

  std::string table_bytes;
  EncodeVisibilityTable(bed->table, &table_bytes);
  auto table = DecodeVisibilityTable(table_bytes);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->num_cells(), bed->table.num_cells());
  for (CellId c = 0; c < table->num_cells(); ++c) {
    EXPECT_EQ(table->cell(c).ids, bed->table.cell(c).ids);
    EXPECT_EQ(table->cell(c).dov, bed->table.cell(c).dov);
  }
}

// ------------------------------------------------- world round trip

class WorldRoundTripTest : public ::testing::Test {
 protected:
  static constexpr const char* kPath = "hdov_world_roundtrip.hdov";

  void SetUp() override {
    path_ = TempPath(kPath);
    TestbedOptions topt;
    topt.blocks = 4;
    topt.cells = 4;
    auto bed = BuildTestbed(topt);
    ASSERT_TRUE(bed.ok()) << bed.status().ToString();
    bed_ = std::make_unique<Testbed>(std::move(*bed));

    auto writer = SnapshotWriter::Create(path_);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(
        WriteWorldSnapshot(writer->get(), *bed_, DefaultVisualOptions())
            .ok());
    ASSERT_TRUE((*writer)->Commit().ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Runs the fig7-style query workload and returns per-query results plus
  // the I/O counter, simulated-clock and tree-cache deltas (all zero
  // without a cache) through the out-params.
  static void Drive(VisualSystem* system, const Aabb& bounds,
                    std::vector<std::vector<RetrievedLod>>* results,
                    IoStats* io, double* millis, BufferPoolStats* cache) {
    telemetry::Telemetry tel;
    system->AttachTelemetry(&tel, "rt");
    system->ResetRuntime();  // Also clears the tree cache and its counters.
    system->ResetIoStats();
    std::vector<Vec3> viewpoints;
    for (int i = 0; i < 8; ++i) {
      const double t = (i + 0.5) / 8.0;
      viewpoints.emplace_back(
          bounds.min.x + t * (bounds.max.x - bounds.min.x),
          bounds.min.y + (1.0 - t) * (bounds.max.y - bounds.min.y), 1.7);
    }
    const double t0 = system->clock().NowMillis();
    for (double eta : {0.0, 0.001, 0.004}) {
      system->set_eta(eta);
      for (const Vec3& p : viewpoints) {
        std::vector<RetrievedLod> result;
        ASSERT_TRUE(
            system->Query(p, /*fetch_models=*/true, &result, nullptr).ok());
        results->push_back(std::move(result));
      }
    }
    *io = system->TotalIoStats();
    *millis = system->clock().NowMillis() - t0;
    const telemetry::MetricsSnapshot snap = tel.metrics().Snapshot();
    auto counter = [&snap](const char* name) {
      const telemetry::MetricSample* sample = snap.Find(name);
      return sample == nullptr ? 0 : static_cast<uint64_t>(sample->value);
    };
    *cache = {counter("rt.cache.tree.hits"), counter("rt.cache.tree.misses"),
              counter("rt.cache.tree.evictions")};
    system->DetachTelemetry();
  }

  // Also returns the built system's tree-cache traffic through `cache`.
  static void ExpectIdentical(VisualSystem* built, VisualSystem* loaded,
                              const Aabb& bounds, BufferPoolStats* cache) {
    std::vector<std::vector<RetrievedLod>> built_results, loaded_results;
    IoStats built_io, loaded_io;
    double built_ms = 0.0, loaded_ms = 0.0;
    BufferPoolStats loaded_cache;
    Drive(built, bounds, &built_results, &built_io, &built_ms, cache);
    Drive(loaded, bounds, &loaded_results, &loaded_io, &loaded_ms,
          &loaded_cache);

    // Bit-identical result sets...
    ASSERT_EQ(built_results.size(), loaded_results.size());
    for (size_t q = 0; q < built_results.size(); ++q) {
      ASSERT_EQ(built_results[q].size(), loaded_results[q].size())
          << "query " << q;
      for (size_t i = 0; i < built_results[q].size(); ++i) {
        const RetrievedLod& a = built_results[q][i];
        const RetrievedLod& b = loaded_results[q][i];
        EXPECT_EQ(a.owner, b.owner);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.model, b.model);
        EXPECT_EQ(a.lod_level, b.lod_level);
        EXPECT_EQ(a.byte_size, b.byte_size);
        EXPECT_EQ(a.triangle_count, b.triangle_count);
      }
    }
    // ...and identical simulated counters.
    EXPECT_EQ(built_io.page_reads, loaded_io.page_reads);
    EXPECT_EQ(built_io.seeks, loaded_io.seeks);
    EXPECT_EQ(built_io.bytes_read, loaded_io.bytes_read);
    EXPECT_DOUBLE_EQ(built_ms, loaded_ms);
    EXPECT_EQ(cache->hits, loaded_cache.hits);
    EXPECT_EQ(cache->misses, loaded_cache.misses);
    EXPECT_EQ(cache->evictions, loaded_cache.evictions);
  }

  std::string path_;
  std::unique_ptr<Testbed> bed_;
};

TEST_F(WorldRoundTripTest, LoadedWorldMatchesTestbed) {
  auto loader = SnapshotLoader::Open(path_);
  ASSERT_TRUE(loader.ok());
  auto loaded = LoadWorldSections(**loader);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->scene.size(), bed_->scene.size());
  EXPECT_EQ(loaded->grid.num_cells(), bed_->grid.num_cells());
  EXPECT_EQ(loaded->table.num_cells(), bed_->table.num_cells());
}

TEST_F(WorldRoundTripTest, EverySchemeMatchesInBothLoadModes) {
  PersistStats stats;
  auto loader = SnapshotLoader::Open(path_, &stats);
  ASSERT_TRUE(loader.ok());
  auto loaded_bed = LoadWorldSections(**loader);
  ASSERT_TRUE(loaded_bed.ok());

  for (StorageScheme scheme :
       {StorageScheme::kHorizontal, StorageScheme::kVertical,
        StorageScheme::kIndexedVertical, StorageScheme::kBitmapVertical}) {
    // Uncached, and a one-page tree cache: the tree spans more pages, so
    // the cache evicts and its misses bill the tree device.
    for (size_t cache_pages : {0u, 1u}) {
      SCOPED_TRACE(testing::Message() << StorageSchemeName(scheme)
                                      << " tree_cache_pages " << cache_pages);
      VisualOptions vopt = DefaultVisualOptions();
      vopt.scheme = scheme;
      vopt.tree_cache_pages = cache_pages;
      auto built = VisualSystem::Create(&bed_->scene, &bed_->grid,
                                        &bed_->table, vopt);
      ASSERT_TRUE(built.ok()) << built.status().ToString();

      for (SnapshotLoadMode mode : {SnapshotLoadMode::kMemoryResident,
                                    SnapshotLoadMode::kFileBacked}) {
        auto loaded = VisualSystem::CreateFromSnapshot(
            **loader, &loaded_bed->scene, &loaded_bed->grid, vopt, mode);
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
        BufferPoolStats cache;
        ExpectIdentical(built->get(), loaded->get(), bed_->scene.bounds(),
                        &cache);
        if (cache_pages > 0) {
          EXPECT_GT(cache.hits, 0u);
          EXPECT_GT(cache.evictions, 0u);
        }
      }
    }
  }
  EXPECT_GT(stats.load_millis, 0.0);
  EXPECT_GT(stats.checksum_verifications, 0u);
  EXPECT_EQ(stats.checksum_failures, 0u);
}

}  // namespace
}  // namespace hdov
