#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "common/coding.h"
#include "common/crc32c.h"
#include "hdov/builder.h"
#include "hdov/hdov_tree.h"
#include "hdov/horizontal_store.h"
#include "hdov/search.h"
#include "hdov/visibility_store.h"
#include "hdov/vpage.h"
#include "scene/city_generator.h"
#include "storage/file_device.h"
#include "temp_path.h"

namespace hdov {
namespace {

TEST(VPageTest, SerializeRoundTrip) {
  VPage page = {{0.25f, 3}, {0.0f, 0}, {0.125f, 1}};
  std::string record = SerializeVPage(page, 8);
  EXPECT_EQ(record.size(), VPageRecordSize(8));
  VPage back;
  ASSERT_TRUE(ParseVPage(record, &back).ok());
  ASSERT_EQ(back.size(), 3u);
  EXPECT_FLOAT_EQ(back[0].dov, 0.25f);
  EXPECT_EQ(back[0].nvo, 3u);
  EXPECT_FLOAT_EQ(back[2].dov, 0.125f);
}

TEST(VPageTest, EmptyPageSerializes) {
  std::string record = SerializeVPage(VPage(), 4);
  VPage back = {{1.0f, 1}};
  ASSERT_TRUE(ParseVPage(record, &back).ok());
  EXPECT_TRUE(back.empty());
}

TEST(VPageTest, Aggregates) {
  VPage page = {{0.25f, 3}, {0.0f, 0}, {0.125f, 2}};
  EXPECT_NEAR(VPageDovSum(page), 0.375, 1e-6);
  EXPECT_EQ(VPageNvoSum(page), 5u);
  EXPECT_TRUE(VPageVisible(page));
  EXPECT_FALSE(VPageVisible(VPage{{0.0f, 0}}));
}

TEST(VPageTest, TruncatedRecordIsCorruption) {
  VPage page = {{0.5f, 1}};
  std::string record = SerializeVPage(page, 4);
  VPage back;
  EXPECT_TRUE(ParseVPage(std::string_view(record).substr(0, 5), &back)
                  .IsCorruption());
  // Too short for the count itself.
  EXPECT_TRUE(ParseVPage(std::string_view(record).substr(0, 3), &back)
                  .IsCorruption());
  EXPECT_TRUE(ParseVPage(std::string_view(), &back).IsCorruption());
}

TEST(VPageTest, HugeCountIsCorruption) {
  // A 4-byte record claiming 2^32 - 1 entries must fail on its length,
  // not reserve 32 GiB first.
  std::string record;
  EncodeFixed32(&record, 0xFFFFFFFFu);
  VPage back;
  EXPECT_TRUE(ParseVPage(record, &back).IsCorruption());
  // One entry more than a capacity-4 record holds; the page is untouched.
  std::string full = SerializeVPage({{0.5f, 1}, {0.25f, 2}}, 4);
  full.replace(0, 4, std::string("\x05\0\0\0", 4));
  back = {{1.0f, 7}};
  EXPECT_TRUE(ParseVPage(full, &back).IsCorruption());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].nvo, 7u);
}

TEST(VPageTest, ParseKeepsEveryBit) {
  // Negative zero, a NaN payload, a denormal and the extremes come back
  // with the bits they were written with.
  const uint32_t dov_bits[] = {0x80000000u, 0x7FC00123u, 0x00000001u,
                               0x7F7FFFFFu, 0x3E800000u};
  VPage page;
  for (uint32_t bits : dov_bits) {
    VdEntry e;
    std::memcpy(&e.dov, &bits, sizeof(bits));
    e.nvo = ~bits;
    page.push_back(e);
  }
  const std::string record = SerializeVPage(page, 8);
  VPage back;
  ASSERT_TRUE(ParseVPage(record, &back).ok());
  ASSERT_EQ(back.size(), page.size());
  for (size_t i = 0; i < page.size(); ++i) {
    uint32_t bits = 0;
    std::memcpy(&bits, &back[i].dov, sizeof(bits));
    EXPECT_EQ(bits, dov_bits[i]) << "entry " << i;
    EXPECT_EQ(back[i].nvo, ~dov_bits[i]) << "entry " << i;
  }
}

TEST(HdovManifestTest, HugeNodeCountIsCorruption) {
  // A 20-byte manifest: num_nodes = 2^32 - 1, then fanout and s_ratio.
  std::string manifest;
  EncodeFixed32(&manifest, 0xFFFFFFFFu);
  EncodeFixed64(&manifest, 8);
  EncodeDouble(&manifest, 0.5);
  PageDevice device;
  Result<HdovTree> tree = HdovTree::FromManifest(&device, manifest);
  ASSERT_FALSE(tree.ok());
  EXPECT_TRUE(tree.status().IsCorruption()) << tree.status().ToString();
}

// Shared fixture: a small proxy city with precomputed visibility and a
// built HDoV-tree, reused across all tests in this suite.
class HdovFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CityOptions copt;
    copt.mode = GeometryMode::kProxy;
    copt.blocks_x = 4;
    copt.blocks_y = 4;
    scene_ = new Scene(std::move(*GenerateCity(copt)));

    CellGridOptions gopt;
    gopt.cells_x = 4;
    gopt.cells_y = 4;
    grid_ = new CellGrid(std::move(*CellGrid::Build(scene_->bounds(), gopt)));

    PrecomputeOptions popt;
    popt.dov.cubemap.face_resolution = 24;
    popt.samples_per_cell = 1;
    table_ = new VisibilityTable(
        std::move(*PrecomputeVisibility(*scene_, *grid_, popt)));

    model_device_ = new PageDevice();
    models_ = new ModelStore(model_device_);
    HdovBuildOptions bopt;
    bopt.rtree.max_entries = 8;
    bopt.rtree.min_entries = 3;
    Result<HdovTree> tree = HdovBuilder::Build(*scene_, models_, bopt);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    tree_ = new HdovTree(std::move(*tree));
  }

  static void TearDownTestSuite() {
    delete tree_;
    delete models_;
    delete model_device_;
    delete table_;
    delete grid_;
    delete scene_;
  }

  static Scene* scene_;
  static CellGrid* grid_;
  static VisibilityTable* table_;
  static PageDevice* model_device_;
  static ModelStore* models_;
  static HdovTree* tree_;
};

Scene* HdovFixture::scene_ = nullptr;
CellGrid* HdovFixture::grid_ = nullptr;
VisibilityTable* HdovFixture::table_ = nullptr;
PageDevice* HdovFixture::model_device_ = nullptr;
ModelStore* HdovFixture::models_ = nullptr;
HdovTree* HdovFixture::tree_ = nullptr;

TEST_F(HdovFixture, BuilderInvariants) {
  EXPECT_TRUE(tree_->CheckInvariants().ok());
  EXPECT_GT(tree_->num_nodes(), 1u);
  EXPECT_EQ(tree_->fanout(), 8u);
  EXPECT_GT(tree_->s_ratio(), 0.0);
  EXPECT_LT(tree_->s_ratio(), 1.0);
  // Every object has registered models for all LoD levels.
  ASSERT_EQ(tree_->object_models().size(), scene_->size());
  for (ObjectId id = 0; id < scene_->size(); ++id) {
    EXPECT_EQ(tree_->object_models()[id].size(),
              scene_->object(id).lods.num_levels());
  }
}

TEST_F(HdovFixture, InternalLodsCoarserThanChildren) {
  for (size_t n = 0; n < tree_->num_nodes(); ++n) {
    const HdovNode& node = tree_->node(n);
    uint32_t child_triangles = 0;
    if (node.is_leaf) {
      for (const HdovEntry& e : node.entries) {
        child_triangles +=
            scene_->object(static_cast<ObjectId>(e.child))
                .lods.finest()
                .triangle_count;
      }
    } else {
      for (const HdovEntry& e : node.entries) {
        child_triangles += tree_->node(static_cast<size_t>(e.child))
                               .internal_lods.finest()
                               .triangle_count;
      }
    }
    // The finest internal LoD is a strict reduction (up to the minimum
    // triangle clamp).
    EXPECT_LE(node.internal_lods.finest().triangle_count,
              std::max<uint32_t>(16, child_triangles));
  }
}

TEST_F(HdovFixture, PackReadNodeRoundTrip) {
  PageDevice device;
  HdovTree copy = *tree_;  // Pack assigns page ids; use a scratch copy.
  ASSERT_TRUE(copy.Pack(&device).ok());
  for (size_t n = 0; n < copy.num_nodes(); ++n) {
    const HdovNode& node = copy.node(n);
    ASSERT_NE(node.page, kInvalidPage);
    Result<HdovNode> back =
        HdovTree::ReadNode(&device, node.page, node.page_offset);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->is_leaf, node.is_leaf);
    EXPECT_EQ(back->node_id, node.node_id);
    ASSERT_EQ(back->entries.size(), node.entries.size());
    for (size_t i = 0; i < node.entries.size(); ++i) {
      EXPECT_EQ(back->entries[i].mbr, node.entries[i].mbr);
      EXPECT_EQ(back->entries[i].child, node.entries[i].child);
      EXPECT_EQ(back->entries[i].leaf_descendants,
                node.entries[i].leaf_descendants);
    }
    EXPECT_EQ(back->internal_lod_models, node.internal_lod_models);
  }
}

TEST_F(HdovFixture, CellVPagesDovSumAttribute) {
  // Paper attribute 2: an internal entry's DoV equals the sum of the DoVs
  // in the node it points to; same for NVO.
  for (CellId c = 0; c < table_->num_cells(); ++c) {
    CellVPageSet set = ComputeCellVPages(*tree_, table_->cell(c));
    ASSERT_EQ(set.pages.size(), tree_->num_nodes());
    for (size_t n = 0; n < tree_->num_nodes(); ++n) {
      const HdovNode& node = tree_->node(n);
      const VPage& page = set.pages[n];
      if (page.empty()) {
        continue;
      }
      ASSERT_EQ(page.size(), node.entries.size());
      if (node.is_leaf) {
        for (size_t i = 0; i < page.size(); ++i) {
          float truth = table_->cell(c).DovOf(
              static_cast<ObjectId>(node.entries[i].child));
          EXPECT_FLOAT_EQ(page[i].dov, truth);
          EXPECT_EQ(page[i].nvo, truth > 0.0f ? 1u : 0u);
        }
      } else {
        for (size_t i = 0; i < page.size(); ++i) {
          const VPage& child_page =
              set.pages[static_cast<size_t>(node.entries[i].child)];
          if (child_page.empty()) {
            EXPECT_FLOAT_EQ(page[i].dov, 0.0f);
            EXPECT_EQ(page[i].nvo, 0u);
          } else {
            EXPECT_NEAR(page[i].dov, VPageDovSum(child_page), 1e-4);
            EXPECT_EQ(page[i].nvo, VPageNvoSum(child_page));
          }
        }
      }
    }
  }
}

TEST_F(HdovFixture, VisibleNodeHasVisibleChild) {
  // Paper attribute 3.
  CellVPageSet set = ComputeCellVPages(*tree_, table_->cell(0));
  for (size_t n = 0; n < tree_->num_nodes(); ++n) {
    const HdovNode& node = tree_->node(n);
    const VPage& page = set.pages[n];
    if (page.empty() || node.is_leaf) {
      continue;
    }
    bool has_visible_child = false;
    for (const HdovEntry& e : node.entries) {
      if (!set.pages[static_cast<size_t>(e.child)].empty()) {
        has_visible_child = true;
      }
    }
    EXPECT_TRUE(has_visible_child);
  }
}

class StoreSchemes : public HdovFixture,
                     public ::testing::WithParamInterface<StorageScheme> {};

TEST_P(StoreSchemes, ReturnsExactVPages) {
  PageDevice device;
  Result<std::unique_ptr<VisibilityStore>> store =
      BuildStore(GetParam(), *tree_, *table_, &device);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->name(), StorageSchemeName(GetParam()));

  for (CellId c = 0; c < table_->num_cells(); ++c) {
    CellVPageSet expected = ComputeCellVPages(*tree_, table_->cell(c));
    ASSERT_TRUE((*store)->BeginCell(c).ok());
    for (size_t n = 0; n < tree_->num_nodes(); ++n) {
      VPage page;
      bool visible = false;
      ASSERT_TRUE(
          (*store)->GetVPage(static_cast<uint32_t>(n), &page, &visible).ok());
      const VPage& truth = expected.pages[n];
      EXPECT_EQ(visible, !truth.empty()) << "cell " << c << " node " << n;
      if (!truth.empty()) {
        ASSERT_EQ(page.size(), truth.size());
        for (size_t i = 0; i < truth.size(); ++i) {
          EXPECT_FLOAT_EQ(page[i].dov, truth[i].dov);
          EXPECT_EQ(page[i].nvo, truth[i].nvo);
        }
      }
    }
  }
}

TEST_P(StoreSchemes, RequiresBeginCell) {
  PageDevice device;
  Result<std::unique_ptr<VisibilityStore>> store =
      BuildStore(GetParam(), *tree_, *table_, &device);
  ASSERT_TRUE(store.ok());
  VPage page;
  bool visible = false;
  EXPECT_EQ((*store)->GetVPage(0, &page, &visible).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE((*store)->BeginCell(table_->num_cells() + 5).ok());
  // A node past the tree is out of range in every scheme, not invisible.
  ASSERT_TRUE((*store)->BeginCell(0).ok());
  for (uint32_t node : {static_cast<uint32_t>(tree_->num_nodes()),
                        std::numeric_limits<uint32_t>::max()}) {
    EXPECT_EQ((*store)->GetVPage(node, &page, &visible).code(),
              StatusCode::kOutOfRange)
        << "node " << node;
  }
}

// Store metadata is untrusted input: a count claiming more entries than
// the meta holds, or a meta cut short anywhere, is Corruption before
// anything is sized from it.
TEST_P(StoreSchemes, CorruptMetaIsCorruption) {
  PageDevice device;
  auto store = BuildStore(GetParam(), *tree_, *table_, &device);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::string meta;
  (*store)->EncodeMeta(&meta);
  ASSERT_TRUE(LoadStore(GetParam(), *tree_, meta, &device).ok());
  const auto expect_corruption = [&](std::string_view bad,
                                     const std::string& what) {
    Status status;
    EXPECT_NO_THROW(
        status = LoadStore(GetParam(), *tree_, bad, &device).status())
        << what;
    EXPECT_TRUE(status.IsCorruption()) << what << ": " << status.ToString();
  };
  const auto fixed64_at = [&](size_t offset) {
    uint64_t value = 0;
    Decoder decoder(std::string_view(meta).substr(offset));
    EXPECT_TRUE(decoder.DecodeFixed64(&value).ok());
    return value;
  };

  // The V-page file's meta ends the store's: its page count, then one id
  // per page. Its pages are the device's, less the index extent's (whose
  // page count follows its first page at the meta's start).
  const bool horizontal = GetParam() == StorageScheme::kHorizontal;
  const uint64_t vpage_pages =
      device.page_count() - (horizontal ? 0 : fixed64_at(8));
  std::vector<size_t> count_offsets = {meta.size() - 8 * vpage_pages - 8};
  ASSERT_EQ(fixed64_at(count_offsets[0]), vpage_pages);
  if (GetParam() == StorageScheme::kIndexedVertical ||
      GetParam() == StorageScheme::kBitmapVertical) {
    // The per-cell directory or base-slot count follows the index extent.
    count_offsets.push_back(24);
    ASSERT_EQ(fixed64_at(24), table_->num_cells());
  }
  for (size_t offset : count_offsets) {
    std::string inflated = meta;
    std::string count;
    EncodeFixed64(&count, uint64_t{1} << 62);
    inflated.replace(offset, count.size(), count);
    expect_corruption(inflated, "count at " + std::to_string(offset));
  }
  {
    // A record count whose page count wraps to zero: the V-page file's
    // meta claims 2^64 - 1 records in no pages.
    std::string wrapped = meta.substr(0, count_offsets[0] - 8);
    EncodeFixed64(&wrapped, ~uint64_t{0});
    EncodeFixed64(&wrapped, 0);
    expect_corruption(wrapped, "record count 2^64 - 1 in no pages");
  }
  for (size_t length = 0; length < meta.size(); ++length) {
    expect_corruption(std::string_view(meta).substr(0, length),
                      "truncated to " + std::to_string(length));
  }
}

// A V-page page with one flipped byte on a file-backed store: every read
// of it is Corruption, and the failed read leaves nothing behind that a
// later lookup on another page could decode.
TEST_F(HdovFixture, FlippedVPageByteIsCorruptionOnEveryRead) {
  std::vector<CellVPageSet> cells;
  for (CellId c = 0; c < table_->num_cells(); ++c) {
    cells.push_back(ComputeCellVPages(*tree_, table_->cell(c)));
  }
  PageDevice memory;
  auto built = HorizontalStore::Build(*tree_, cells, &memory);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::string meta;
  (*built)->EncodeMeta(&meta);

  const std::string path = TempPath("vpages.bin");
  {
    auto file = FilePageDevice::Create(path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    std::vector<std::string> pages;
    ASSERT_TRUE(memory.ExportContents(&pages).ok());
    ASSERT_TRUE((*file)->RestoreContents(std::move(pages)).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  {
    // Every page is materialized, so device page 0 (slot 0: node 0 in
    // cell 0) is the first data slot, one page into the file.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(DiskModel().page_size + 3);
    f.put('X');
  }
  auto device = FilePageDevice::Open(path);
  ASSERT_TRUE(device.ok()) << device.status().ToString();
  auto store = HorizontalStore::Load(*tree_, meta, device->get());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->BeginCell(0).ok());

  // A node whose cell-0 record lies on a later, intact page.
  const uint64_t per_page =
      DiskModel().page_size / VPageRecordSize(tree_->fanout());
  uint32_t intact = 1;
  while (uint64_t{intact} * table_->num_cells() < per_page) {
    ++intact;
  }
  ASSERT_LT(intact, tree_->num_nodes());
  const VPage& truth = cells[0].pages[intact];
  const auto expect_intact = [&] {
    VPage page;
    bool visible = false;
    ASSERT_TRUE((*store)->GetVPage(intact, &page, &visible).ok());
    ASSERT_EQ(visible, !truth.empty());
    ASSERT_EQ(page.size(), truth.size());
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ(page[i].dov, truth[i].dov);
      EXPECT_EQ(page[i].nvo, truth[i].nvo);
    }
  };

  expect_intact();
  VPage page;
  bool visible = false;
  EXPECT_TRUE((*store)->GetVPage(0, &page, &visible).IsCorruption());
  EXPECT_TRUE((*store)->GetVPage(0, &page, &visible).IsCorruption());
  // The failed reads dropped the cached page: the intact one is read (and
  // billed) again and decodes to its own records.
  const uint64_t reads = (*device)->stats().page_reads;
  expect_intact();
  EXPECT_EQ((*device)->stats().page_reads, reads + 1);
  std::remove(path.c_str());
}

// Pins each scheme's bytes and billing: the CRC32C of its EncodeMeta bytes
// and of its device image, its size, its device IoStats and its counters
// after a fixed sweep that rotates over the cells (each flipped twice in a
// row, the second free) and reads every node's V-page. Any change to how a
// store lays out, loads or reads its V-pages must keep these values.
TEST_P(StoreSchemes, LayoutAndBillingArePinned) {
  struct Pin {
    uint32_t meta_crc;
    uint32_t image_crc;
    uint64_t size_bytes;
    uint64_t page_reads, page_writes, seeks, bytes_read, bytes_written;
    uint64_t vpage_fetches, invisible_lookups, cell_flips;
  };
  static const std::map<StorageScheme, Pin> kPins = {
      {StorageScheme::kHorizontal,
       {3300884268u, 1822610413u, 16384, 120, 4, 33, 491520, 16384,
        384, 168, 32}},
      {StorageScheme::kVertical,
       {2996013201u, 966149040u, 12288, 66, 3, 50, 270336, 12288,
        216, 168, 32}},
      {StorageScheme::kIndexedVertical,
       {3658151891u, 3223687596u, 12288, 66, 3, 50, 270336, 12288,
        216, 168, 32}},
      {StorageScheme::kBitmapVertical,
       {4278653534u, 383044681u, 12288, 66, 3, 50, 270336, 12288,
        216, 168, 32}},
  };
  PageDevice device;
  auto store = BuildStore(GetParam(), *tree_, *table_, &device);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::string meta;
  (*store)->EncodeMeta(&meta);
  std::vector<std::string> pages;
  ASSERT_TRUE(device.ExportContents(&pages).ok());
  uint32_t image_crc = 0;
  for (const std::string& page : pages) {
    image_crc = Crc32cExtend(image_crc, page.data(), page.size());
  }

  const uint32_t cells = table_->num_cells();
  for (uint32_t i = 0; i < 2 * cells; ++i) {
    const CellId cell = (i * 5 + 1) % cells;
    ASSERT_TRUE((*store)->BeginCell(cell).ok());
    ASSERT_TRUE((*store)->BeginCell(cell).ok());
    for (uint32_t n = 0; n < tree_->num_nodes(); ++n) {
      VPage page;
      bool visible = false;
      ASSERT_TRUE((*store)->GetVPage(n, &page, &visible).ok());
    }
  }
  const IoStats& io = device.stats();
  const VisibilityStoreStats& st = (*store)->telemetry_stats();
  const Pin got = {Crc32c(meta),       image_crc,
                   (*store)->SizeBytes(), io.page_reads,
                   io.page_writes,     io.seeks,
                   io.bytes_read,      io.bytes_written,
                   st.vpage_fetches,   st.invisible_lookups,
                   st.cell_flips};
  const Pin& want = kPins.at(GetParam());
  const auto fields = [](const Pin& p) {
    return std::vector<uint64_t>{p.meta_crc,      p.image_crc,
                                 p.size_bytes,    p.page_reads,
                                 p.page_writes,   p.seeks,
                                 p.bytes_read,    p.bytes_written,
                                 p.vpage_fetches, p.invisible_lookups,
                                 p.cell_flips};
  };
  std::string line;
  for (uint64_t v : fields(got)) {
    line += (line.empty() ? "" : ", ") + std::to_string(v);
  }
  EXPECT_EQ(fields(got), fields(want)) << "got {" << line << "}";
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, StoreSchemes,
                         ::testing::Values(StorageScheme::kHorizontal,
                                           StorageScheme::kVertical,
                                           StorageScheme::kIndexedVertical,
                                           StorageScheme::kBitmapVertical));

TEST(StorageCostTest, Table2Ordering) {
  // Table 2's shape: horizontal >> vertical >= indexed-vertical. This
  // needs a city big enough that a cell hides a good share of the nodes
  // (N_vnode < N_node), so it builds its own larger scene.
  CityOptions copt;
  copt.mode = GeometryMode::kProxy;
  copt.blocks_x = 8;
  copt.blocks_y = 8;
  Result<Scene> city = GenerateCity(copt);
  ASSERT_TRUE(city.ok());
  CellGridOptions gopt;
  gopt.cells_x = 8;
  gopt.cells_y = 8;
  Result<CellGrid> grid = CellGrid::Build(city->bounds(), gopt);
  ASSERT_TRUE(grid.ok());
  PrecomputeOptions popt;
  popt.dov.cubemap.face_resolution = 16;
  popt.samples_per_cell = 1;
  Result<VisibilityTable> table = PrecomputeVisibility(*city, *grid, popt);
  ASSERT_TRUE(table.ok());

  PageDevice model_device;
  ModelStore models(&model_device);
  HdovBuildOptions bopt;
  bopt.rtree.max_entries = 8;
  bopt.rtree.min_entries = 3;
  Result<HdovTree> tree = HdovBuilder::Build(*city, &models, bopt);
  ASSERT_TRUE(tree.ok());

  PageDevice dev_h, dev_v, dev_iv;
  auto h = BuildStore(StorageScheme::kHorizontal, *tree, *table, &dev_h);
  auto v = BuildStore(StorageScheme::kVertical, *tree, *table, &dev_v);
  auto iv =
      BuildStore(StorageScheme::kIndexedVertical, *tree, *table, &dev_iv);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(iv.ok());
  EXPECT_GT((*h)->SizeBytes(), (*v)->SizeBytes());
  EXPECT_GT((*h)->SizeBytes(), (*iv)->SizeBytes());
  // Indexed-vertical is at worst marginally bigger than vertical (when
  // almost everything is visible) and smaller otherwise.
  EXPECT_LE((*iv)->SizeBytes(), (*v)->SizeBytes() + 2 * 4096u);
  EXPECT_GT((*iv)->SizeBytes(), 0u);
}

TEST_F(HdovFixture, SearchZeroEtaRetrievesAllVisibleObjects) {
  PageDevice device;
  auto store =
      BuildStore(StorageScheme::kIndexedVertical, *tree_, *table_, &device);
  ASSERT_TRUE(store.ok());
  HdovSearcher searcher(tree_, scene_, models_, nullptr);
  SearchOptions opt;
  opt.eta = 0.0;
  for (CellId c = 0; c < table_->num_cells(); ++c) {
    std::vector<RetrievedLod> result;
    ASSERT_TRUE(searcher.Search(store->get(), c, opt, &result).ok());
    std::set<uint64_t> retrieved;
    for (const RetrievedLod& lod : result) {
      EXPECT_EQ(lod.kind, RetrievedLod::Kind::kObject);
      retrieved.insert(lod.owner);
      // Eq. 6 LoD selection at the true DoV.
      const Object& obj = scene_->object(static_cast<ObjectId>(lod.owner));
      double k = std::min(static_cast<double>(lod.dov) / kMaxDov, 1.0);
      EXPECT_EQ(lod.lod_level, obj.lods.LevelForBlend(k));
    }
    // Exactly the cell's visible set.
    const CellVisibility& truth = table_->cell(c);
    ASSERT_EQ(retrieved.size(), truth.ids.size()) << "cell " << c;
    for (ObjectId id : truth.ids) {
      EXPECT_TRUE(retrieved.count(id)) << "missing object " << id;
    }
  }
}

TEST_F(HdovFixture, SearchCoversEveryVisibleObject) {
  // Every truly visible object must be represented: either by its own LoD
  // or by an internal LoD of an ancestor node.
  PageDevice device;
  auto store =
      BuildStore(StorageScheme::kIndexedVertical, *tree_, *table_, &device);
  ASSERT_TRUE(store.ok());
  HdovSearcher searcher(tree_, scene_, models_, nullptr);

  // Object -> covering nodes map.
  std::vector<std::vector<size_t>> object_ancestors(scene_->size());
  for (size_t n = 0; n < tree_->num_nodes(); ++n) {
    const HdovNode& node = tree_->node(n);
    if (!node.is_leaf) {
      continue;
    }
    for (const HdovEntry& e : node.entries) {
      object_ancestors[e.child].push_back(n);
    }
  }
  // Parent links.
  std::vector<size_t> parent(tree_->num_nodes(), SIZE_MAX);
  for (size_t n = 0; n < tree_->num_nodes(); ++n) {
    const HdovNode& node = tree_->node(n);
    if (node.is_leaf) {
      continue;
    }
    for (const HdovEntry& e : node.entries) {
      parent[static_cast<size_t>(e.child)] = n;
    }
  }

  for (double eta : {0.0005, 0.002, 0.01}) {
    SearchOptions opt;
    opt.eta = eta;
    for (CellId c = 0; c < table_->num_cells(); ++c) {
      std::vector<RetrievedLod> result;
      ASSERT_TRUE(searcher.Search(store->get(), c, opt, &result).ok());
      std::set<uint64_t> object_lods;
      std::set<uint64_t> internal_nodes;
      for (const RetrievedLod& lod : result) {
        if (lod.kind == RetrievedLod::Kind::kObject) {
          object_lods.insert(lod.owner);
        } else {
          internal_nodes.insert(lod.owner);
        }
      }
      for (ObjectId id : table_->cell(c).ids) {
        bool covered = object_lods.count(id) > 0;
        // Walk ancestors.
        size_t n = object_ancestors[id].empty() ? SIZE_MAX
                                                : object_ancestors[id][0];
        while (!covered && n != SIZE_MAX) {
          covered = internal_nodes.count(n) > 0;
          n = parent[n];
        }
        EXPECT_TRUE(covered)
            << "object " << id << " uncovered at eta " << eta;
      }
    }
  }
}

TEST_F(HdovFixture, LargerEtaNeverRetrievesMoreRepresentations) {
  // With the Eq. 4 heuristic disabled, a larger eta terminates descents at
  // the same or higher nodes, so the result set can only shrink. (Bytes
  // are deliberately NOT monotone — an internal LoD can outweigh a handful
  // of barely visible descendants, which is exactly why Eq. 4 exists.)
  PageDevice device;
  auto store =
      BuildStore(StorageScheme::kIndexedVertical, *tree_, *table_, &device);
  ASSERT_TRUE(store.ok());
  HdovSearcher searcher(tree_, scene_, models_, nullptr);
  for (CellId c = 0; c < table_->num_cells(); ++c) {
    size_t previous_count = SIZE_MAX;
    for (double eta : {0.0, 0.0005, 0.002, 0.008, 0.05}) {
      SearchOptions opt;
      opt.eta = eta;
      opt.heuristic = TerminationHeuristic::kNone;  // Pure eta semantics.
      std::vector<RetrievedLod> result;
      ASSERT_TRUE(searcher.Search(store->get(), c, opt, &result).ok());
      EXPECT_LE(result.size(), previous_count)
          << "cell " << c << " eta " << eta;
      previous_count = result.size();
    }
  }
}

TEST_F(HdovFixture, LargeEtaTriggersInternalTerminations) {
  PageDevice device;
  auto store =
      BuildStore(StorageScheme::kIndexedVertical, *tree_, *table_, &device);
  ASSERT_TRUE(store.ok());
  HdovSearcher searcher(tree_, scene_, models_, nullptr);
  SearchOptions opt;
  opt.eta = 0.05;
  uint64_t terminations = 0;
  for (CellId c = 0; c < table_->num_cells(); ++c) {
    std::vector<RetrievedLod> result;
    SearchStats stats;
    ASSERT_TRUE(searcher.Search(store->get(), c, opt, &result, &stats).ok());
    terminations += stats.internal_terminations;
  }
  EXPECT_GT(terminations, 0u);
}

TEST_F(HdovFixture, SearchStatsAreConsistent) {
  PageDevice device;
  auto store =
      BuildStore(StorageScheme::kIndexedVertical, *tree_, *table_, &device);
  ASSERT_TRUE(store.ok());
  HdovSearcher searcher(tree_, scene_, models_, nullptr);
  SearchOptions opt;
  opt.eta = 0.002;
  std::vector<RetrievedLod> result;
  SearchStats stats;
  ASSERT_TRUE(searcher.Search(store->get(), 0, opt, &result, &stats).ok());
  EXPECT_GT(stats.nodes_visited, 0u);
  EXPECT_EQ(stats.nodes_visited, stats.vpages_fetched);
  EXPECT_LE(stats.nodes_visited, tree_->num_nodes());
}

TEST_F(HdovFixture, NodePageBillingChargesTreeDevice) {
  PageDevice tree_device;
  HdovTree copy = *tree_;
  ASSERT_TRUE(copy.Pack(&tree_device).ok());
  PageDevice store_device;
  auto store = BuildStore(StorageScheme::kIndexedVertical, copy, *table_,
                          &store_device);
  ASSERT_TRUE(store.ok());
  tree_device.ResetStats();
  HdovSearcher searcher(&copy, scene_, models_, &tree_device);
  SearchOptions opt;
  opt.eta = 0.001;
  std::vector<RetrievedLod> result;
  SearchStats stats;
  ASSERT_TRUE(searcher.Search(store->get(), 1, opt, &result, &stats).ok());
  // Several nodes share a page, so the traversal reads at most one page
  // per visited node and at least one page overall.
  EXPECT_GT(tree_device.stats().page_reads, 0u);
  EXPECT_LE(tree_device.stats().page_reads, stats.nodes_visited);
}

TEST_F(HdovFixture, CostModelHeuristicCoversAndSavesTriangles) {
  PageDevice device;
  auto store =
      BuildStore(StorageScheme::kIndexedVertical, *tree_, *table_, &device);
  ASSERT_TRUE(store.ok());
  HdovSearcher searcher(tree_, scene_, models_, nullptr);

  uint64_t eq4_triangles = 0;
  uint64_t cost_triangles = 0;
  for (CellId c = 0; c < table_->num_cells(); ++c) {
    for (TerminationHeuristic heuristic :
         {TerminationHeuristic::kEq4, TerminationHeuristic::kCostModel}) {
      SearchOptions opt;
      opt.eta = 0.01;
      opt.heuristic = heuristic;
      std::vector<RetrievedLod> result;
      ASSERT_TRUE(searcher.Search(store->get(), c, opt, &result).ok());
      uint64_t triangles = 0;
      for (const RetrievedLod& lod : result) {
        triangles += lod.triangle_count;
      }
      (heuristic == TerminationHeuristic::kEq4 ? eq4_triangles
                                               : cost_triangles) += triangles;
    }
  }
  // The cost model only terminates when the internal LoD is estimated
  // lighter, so aggregate triangles cannot exceed Eq. 4's by much.
  EXPECT_LE(cost_triangles, eq4_triangles + eq4_triangles / 10);
}

TEST_F(HdovFixture, SubtreeTriangleSumsMatchScene) {
  const HdovNode& root = tree_->node(tree_->root_index());
  uint64_t total = 0;
  for (const HdovEntry& e : root.entries) {
    total += e.subtree_triangles;
  }
  EXPECT_EQ(total, scene_->TotalFinestTriangles());
}

TEST_F(HdovFixture, PrioritizeRetrievalOrdersFrustumFirst) {
  PageDevice device;
  auto store =
      BuildStore(StorageScheme::kIndexedVertical, *tree_, *table_, &device);
  ASSERT_TRUE(store.ok());
  HdovSearcher searcher(tree_, scene_, models_, nullptr);
  SearchOptions opt;
  opt.eta = 0.001;
  std::vector<RetrievedLod> result;
  Vec3 eye = scene_->bounds().Center();
  eye.z = 1.7;
  CellId cell = grid_->ClampedCellForPoint(eye);
  ASSERT_TRUE(searcher.Search(store->get(), cell, opt, &result).ok());
  ASSERT_GT(result.size(), 2u);

  Frustum frustum(eye, Vec3(1, 0, 0), FrustumOptions{});
  std::vector<RetrievedLod> ordered = result;
  PrioritizeRetrieval(frustum, *tree_, *scene_, &ordered);

  // Same multiset of representations.
  auto key = [](const RetrievedLod& lod) {
    return std::make_pair(static_cast<int>(lod.kind), lod.owner);
  };
  std::multiset<std::pair<int, uint64_t>> before, after;
  for (const RetrievedLod& lod : result) before.insert(key(lod));
  for (const RetrievedLod& lod : ordered) after.insert(key(lod));
  EXPECT_EQ(before, after);

  // All in-frustum representations precede all out-of-frustum ones, and
  // the in-frustum prefix is sorted by descending DoV.
  auto in_frustum = [&](const RetrievedLod& lod) {
    const Aabb& mbr =
        lod.kind == RetrievedLod::Kind::kObject
            ? scene_->object(static_cast<ObjectId>(lod.owner)).mbr
            : tree_->node(static_cast<size_t>(lod.owner)).BoundingBox();
    return frustum.IntersectsBox(mbr);
  };
  bool seen_outside = false;
  float last_dov = std::numeric_limits<float>::infinity();
  for (const RetrievedLod& lod : ordered) {
    if (in_frustum(lod)) {
      EXPECT_FALSE(seen_outside) << "in-frustum entry after outside entry";
      EXPECT_LE(lod.dov, last_dov + 1e-7f);
      last_dov = lod.dov;
    } else {
      seen_outside = true;
    }
  }
}

TEST_F(HdovFixture, PrioritizeRetrievalIsStableOnTies) {
  // Duplicated representations of one object carry identical sort keys
  // (same MBR, same DoV) whichever way the frustum faces; a stable
  // prioritization must keep their input order. lod_level marks it.
  auto make_ties = [&](uint64_t object) {
    std::vector<RetrievedLod> result;
    for (uint32_t marker = 0; marker < 4; ++marker) {
      RetrievedLod lod;
      lod.kind = RetrievedLod::Kind::kObject;
      lod.owner = object;
      lod.lod_level = marker;
      lod.dov = 0.25f;
      result.push_back(lod);
    }
    return result;
  };
  const Aabb mbr = scene_->object(0).mbr;
  const Vec3 center = mbr.Center();
  // Facing the object (everything in-frustum, DoV ties) and facing away
  // (everything out-of-frustum, distance ties): both groups must preserve
  // input order.
  for (double facing : {1.0, -1.0}) {
    SCOPED_TRACE(facing > 0 ? "in-frustum ties" : "out-of-frustum ties");
    Vec3 eye = center - Vec3(facing * (mbr.Extent().x + 50.0), 0, 0);
    eye.z = 1.7;
    Frustum frustum(eye, Vec3(1, 0, 0), FrustumOptions{});
    std::vector<RetrievedLod> ordered = make_ties(0);
    PrioritizeRetrieval(frustum, *tree_, *scene_, &ordered);
    ASSERT_EQ(ordered.size(), 4u);
    for (uint32_t marker = 0; marker < 4; ++marker) {
      EXPECT_EQ(ordered[marker].lod_level, marker);
    }
  }
}

TEST_F(HdovFixture, FullPersistenceRoundTrip) {
  // Pack + manifest -> node pages copied onto a fresh device -> reload ->
  // identical search results through the restored tree.
  PageDevice device;
  HdovTree packed = *tree_;
  ASSERT_TRUE(packed.Pack(&device).ok());
  std::string manifest;
  ASSERT_TRUE(packed.EncodeManifest(&manifest).ok());
  std::vector<std::string> pages;
  ASSERT_TRUE(device.ExportContents(&pages).ok());

  PageDevice restored_device;
  ASSERT_TRUE(restored_device.RestoreContents(std::move(pages)).ok());
  Result<HdovTree> restored =
      HdovTree::FromManifest(&restored_device, manifest);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_nodes(), tree_->num_nodes());
  EXPECT_EQ(restored->fanout(), tree_->fanout());
  EXPECT_EQ(restored->object_models(), tree_->object_models());

  // Search equivalence on the restored tree.
  PageDevice store_device;
  auto store = BuildStore(StorageScheme::kIndexedVertical, *restored,
                          *table_, &store_device);
  ASSERT_TRUE(store.ok());
  PageDevice store_device2;
  auto store2 = BuildStore(StorageScheme::kIndexedVertical, *tree_, *table_,
                           &store_device2);
  ASSERT_TRUE(store2.ok());
  HdovSearcher restored_searcher(&*restored, scene_, models_, nullptr);
  HdovSearcher original_searcher(tree_, scene_, models_, nullptr);
  SearchOptions opt;
  opt.eta = 0.002;
  for (CellId c = 0; c < table_->num_cells(); ++c) {
    std::vector<RetrievedLod> a, b;
    ASSERT_TRUE(restored_searcher.Search(store->get(), c, opt, &a).ok());
    ASSERT_TRUE(original_searcher.Search(store2->get(), c, opt, &b).ok());
    ASSERT_EQ(a.size(), b.size()) << "cell " << c;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].owner, b[i].owner);
      EXPECT_EQ(a[i].lod_level, b[i].lod_level);
      EXPECT_EQ(a[i].model, b[i].model);
    }
  }
}

// Packs a copy of `tree` onto `device` and returns its manifest cut just
// after the object-count field (`object_count` written there) or, with
// `levels` set, just after the first object's level-count field (`levels`
// written there).
std::string InflatedManifest(const HdovTree& tree, PageDevice* device,
                             uint32_t object_count,
                             std::optional<uint32_t> levels) {
  HdovTree packed = tree;
  EXPECT_TRUE(packed.Pack(device).ok());
  std::string manifest;
  EXPECT_TRUE(packed.EncodeManifest(&manifest).ok());
  const size_t objects_at = 20 + 12 * packed.num_nodes();
  manifest.resize(objects_at);
  EncodeFixed32(&manifest, object_count);
  if (levels.has_value()) {
    EncodeFixed32(&manifest, *levels);
  }
  return manifest;
}

TEST_F(HdovFixture, ManifestHugeObjectCountIsCorruption) {
  PageDevice device;
  const std::string manifest =
      InflatedManifest(*tree_, &device, 0xFFFFFFFFu, std::nullopt);
  Result<HdovTree> tree = HdovTree::FromManifest(&device, manifest);
  ASSERT_FALSE(tree.ok());
  EXPECT_TRUE(tree.status().IsCorruption()) << tree.status().ToString();
}

TEST_F(HdovFixture, ManifestHugeLevelCountIsCorruption) {
  PageDevice device;
  const std::string manifest = InflatedManifest(*tree_, &device, 1,
                                                0xFFFFFFFFu);
  Result<HdovTree> tree = HdovTree::FromManifest(&device, manifest);
  ASSERT_FALSE(tree.ok());
  EXPECT_TRUE(tree.status().IsCorruption()) << tree.status().ToString();
}

TEST(HdovBuilderTest, FullGeometryBuildsInternalMeshes) {
  CityOptions copt;
  copt.mode = GeometryMode::kFull;
  copt.blocks_x = 2;
  copt.blocks_y = 2;
  copt.park_fraction = 0.0;
  copt.facade_columns = 3;
  copt.facade_rows = 4;
  Result<Scene> city = GenerateCity(copt);
  ASSERT_TRUE(city.ok());

  PageDevice device;
  ModelStore models(&device);
  HdovBuildOptions bopt;
  bopt.rtree.max_entries = 4;
  bopt.rtree.min_entries = 2;
  bopt.build_internal_meshes = true;
  Result<HdovTree> tree = HdovBuilder::Build(*city, &models, bopt);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ASSERT_TRUE(tree->CheckInvariants().ok());

  for (size_t n = 0; n < tree->num_nodes(); ++n) {
    const HdovNode& node = tree->node(n);
    // Every node carries real internal LoD meshes that are coarser than
    // the subtree they stand in for.
    uint64_t subtree = 0;
    for (const HdovEntry& e : node.entries) {
      subtree += e.subtree_triangles;
    }
    for (size_t level = 0; level < node.internal_lods.num_levels();
         ++level) {
      const LodLevel& lod = node.internal_lods.level(level);
      EXPECT_FALSE(lod.mesh.empty()) << "node " << n << " level " << level;
      EXPECT_TRUE(lod.mesh.Validate().ok());
      EXPECT_EQ(lod.triangle_count, lod.mesh.triangle_count());
      EXPECT_LT(lod.triangle_count, subtree);
      // The internal LoD geometrically covers its subtree's extent
      // (allowing simplification slack of 20% per axis).
      Aabb node_box = node.BoundingBox();
      Aabb lod_box = lod.mesh.BoundingBox();
      Vec3 slack = node_box.Extent() * 0.2 + Vec3(1, 1, 1);
      EXPECT_GE(lod_box.min.x, node_box.min.x - slack.x);
      EXPECT_LE(lod_box.max.x, node_box.max.x + slack.x);
      EXPECT_GE(lod_box.min.z, node_box.min.z - slack.z);
      EXPECT_LE(lod_box.max.z, node_box.max.z + slack.z);
    }
  }
}

TEST(HdovBuilderTest, RejectsEmptyScene) {
  Scene empty;
  PageDevice device;
  ModelStore models(&device);
  EXPECT_TRUE(HdovBuilder::Build(empty, &models, HdovBuildOptions())
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace hdov
