// Pins the Fig. 3 search bit for bit: a CRC32C over every RetrievedLod
// field (DoV as raw float bits), the SearchStats counts and the store
// device's simulated I/O after each query, swept over worlds, storage
// schemes, cells, the Fig. 7 eta values and all three termination
// heuristics. The CRCs were recorded before the search's hot path was
// reworked; any change to search.cc must leave them as they are.
//
// Further pins cover what the sweep does not: the bitmap-vertical store
// and its telemetry counters, node-page billing on a packed tree with and
// without a buffer pool, the traced span tree, and a whole VisualSystem
// walk (delta search, sync prefetch, tree cache, model fetches).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "hdov/builder.h"
#include "hdov/search.h"
#include "storage/buffer_pool.h"
#include "telemetry/trace.h"
#include "walkthrough/experiment_testbed.h"
#include "walkthrough/visual_system.h"

namespace hdov {
namespace {

struct Pin {
  uint64_t queries;
  uint64_t results;
  uint32_t crc;
};

void AppendResult(const RetrievedLod& lod, std::string* out) {
  uint32_t dov_bits = 0;
  std::memcpy(&dov_bits, &lod.dov, sizeof(dov_bits));
  EncodeFixed32(out, static_cast<uint32_t>(lod.kind));
  EncodeFixed64(out, lod.owner);
  EncodeFixed32(out, lod.lod_level);
  EncodeFixed64(out, lod.model);
  EncodeFixed32(out, lod.triangle_count);
  EncodeFixed64(out, lod.byte_size);
  EncodeFixed32(out, dov_bits);
}

void AppendSearchStats(const SearchStats& stats, std::string* out) {
  EncodeFixed64(out, stats.nodes_visited);
  EncodeFixed64(out, stats.vpages_fetched);
  EncodeFixed64(out, stats.hidden_entries_pruned);
  EncodeFixed64(out, stats.internal_terminations);
}

void AppendIo(const IoStats& io, std::string* out) {
  EncodeFixed64(out, io.page_reads);
  EncodeFixed64(out, io.seeks);
  EncodeFixed64(out, io.bytes_read);
}

void AppendStats(const SearchStats& stats, const IoStats& io,
                 std::string* out) {
  AppendSearchStats(stats, out);
  AppendIo(io, out);
}

void AppendDouble(double v, std::string* out) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  EncodeFixed64(out, bits);
}

void AppendString(const std::string& s, std::string* out) {
  EncodeFixed32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

uint32_t Crc(const std::string& bytes) {
  return Crc32cExtend(0, bytes.data(), bytes.size());
}

// Builds the world, then one store per scheme, and runs every
// (cell, eta, heuristic) query through a fresh searcher per scheme.
// Returns one pin per scheme, in `schemes` order. `with_store_telemetry`
// also folds the store's telemetry_stats() into the CRC after each query.
std::vector<Pin> SweepWorld(const TestbedOptions& topt,
                            const std::vector<StorageScheme>& schemes,
                            bool with_store_telemetry = false) {
  Result<Testbed> bed = BuildTestbed(topt);
  EXPECT_TRUE(bed.ok()) << bed.status().ToString();
  if (!bed.ok()) {
    return {};
  }
  PageDevice model_device;
  ModelStore models(&model_device);
  const VisualOptions vopt = DefaultVisualOptions();
  Result<HdovTree> tree = HdovBuilder::Build(bed->scene, &models, vopt.build);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  if (!tree.ok()) {
    return {};
  }
  const double etas[] = {0.0,   0.0005, 0.001, 0.002,
                         0.003, 0.004,  0.006, 0.008};  // Fig. 7 sweep.
  const TerminationHeuristic heuristics[] = {TerminationHeuristic::kEq4,
                                             TerminationHeuristic::kNone,
                                             TerminationHeuristic::kCostModel};
  std::vector<Pin> pins;
  for (StorageScheme scheme : schemes) {
    PageDevice device;
    auto store = BuildStore(scheme, *tree, bed->table, &device);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    if (!store.ok()) {
      return {};
    }
    device.ResetStats();
    HdovSearcher searcher(&*tree, &bed->scene, &models, nullptr);
    Pin pin{0, 0, 0};
    std::vector<RetrievedLod> result;
    std::string bytes;
    for (double eta : etas) {
      for (TerminationHeuristic heuristic : heuristics) {
        SearchOptions opt;
        opt.eta = eta;
        opt.heuristic = heuristic;
        for (CellId c = 0; c < bed->table.num_cells(); ++c) {
          SearchStats stats;
          const Status s = searcher.Search(store->get(), c, opt, &result,
                                           &stats);
          EXPECT_TRUE(s.ok()) << s.ToString();
          bytes.clear();
          for (const RetrievedLod& lod : result) {
            AppendResult(lod, &bytes);
          }
          AppendStats(stats, device.stats(), &bytes);
          if (with_store_telemetry) {
            const VisibilityStoreStats& ts = (*store)->telemetry_stats();
            EncodeFixed64(&bytes, ts.vpage_fetches);
            EncodeFixed64(&bytes, ts.invisible_lookups);
            EncodeFixed64(&bytes, ts.cell_flips);
          }
          pin.crc = Crc32cExtend(pin.crc, bytes.data(), bytes.size());
          ++pin.queries;
          pin.results += result.size();
        }
      }
    }
    pins.push_back(pin);
  }
  return pins;
}

std::string PinString(const Pin& pin) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{%llu, %llu, 0x%08x}",
                static_cast<unsigned long long>(pin.queries),
                static_cast<unsigned long long>(pin.results), pin.crc);
  return buf;
}

void ExpectPins(const std::vector<Pin>& got, const std::vector<Pin>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "scheme #" << i);
    EXPECT_EQ(PinString(got[i]), PinString(want[i]));
  }
}

const std::vector<StorageScheme>& PaperSchemes() {
  static const std::vector<StorageScheme>* schemes =
      new std::vector<StorageScheme>{StorageScheme::kHorizontal,
                                     StorageScheme::kVertical,
                                     StorageScheme::kIndexedVertical};
  return *schemes;
}

// The two small worlds every pin below runs on.
TestbedOptions SmallWorldA() {
  TestbedOptions a;
  a.blocks = 4;
  a.cells = 5;
  a.face_resolution = 16;
  a.samples_per_cell = 1;
  a.seed = 11;
  a.threads = 2;
  return a;
}

TestbedOptions SmallWorldB() {
  TestbedOptions b;
  b.blocks = 6;
  b.cells = 6;
  b.face_resolution = 24;
  b.samples_per_cell = 2;
  b.seed = 22;
  b.threads = 2;
  return b;
}

TEST(SearchPinTest, SmallWorldsArePinned) {
  struct Case {
    TestbedOptions topt;
    std::vector<Pin> pins;  // Horizontal, vertical, indexed-vertical.
  };
  const TestbedOptions a = SmallWorldA();
  const TestbedOptions b = SmallWorldB();
  const Case kCases[] = {
      {a,
       {{600, 6911, 0x03cfd1da},
        {600, 6911, 0xba16eb32},
        {600, 6911, 0xba16eb32}}},
      {b,
       {{864, 23563, 0xef2444f9},
        {864, 23563, 0x2f7afecf},
        {864, 23563, 0x0e00d155}}},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(testing::Message() << "blocks " << c.topt.blocks);
    ExpectPins(SweepWorld(c.topt, PaperSchemes()), c.pins);
  }
}

TEST(SearchPinTest, LargePresetIsPinned) {
  // The benchmarks' large preset (20x20 blocks, 24x24 cells, 5 samples
  // per cell, 64 px faces).
  TestbedOptions topt;
  topt.blocks = 20;
  topt.cells = 24;
  topt.samples_per_cell = 5;
  topt.threads = 0;
  ExpectPins(SweepWorld(topt, PaperSchemes()),
             {{13824, 980806, 0x0c316a86},
              {13824, 980806, 0x9e221dd4},
              {13824, 980806, 0x5d9c1c3d}});
}

TEST(SearchPinTest, BitmapVerticalIsPinned) {
  // The fourth store, which PaperSchemes() leaves out, with its
  // V-page / invisible-lookup / cell-flip counters in the CRC.
  const std::vector<StorageScheme> bitmap = {StorageScheme::kBitmapVertical};
  ExpectPins(SweepWorld(SmallWorldA(), bitmap, /*with_store_telemetry=*/true),
             {{600, 6911, 0x3eae91ba}});
  ExpectPins(SweepWorld(SmallWorldB(), bitmap, /*with_store_telemetry=*/true),
             {{864, 23563, 0x31a930dc}});
}

// Small world B with its tree built and packed onto a tree device, so
// searches bill node-page reads.
struct PackedWorld {
  explicit PackedWorld(Testbed b) : bed(std::move(b)) {}

  Testbed bed;
  PageDevice model_device;
  std::unique_ptr<ModelStore> models;
  PageDevice tree_device;
  std::unique_ptr<HdovTree> tree;
};

std::unique_ptr<PackedWorld> BuildPackedWorld() {
  Result<Testbed> bed = BuildTestbed(SmallWorldB());
  EXPECT_TRUE(bed.ok()) << bed.status().ToString();
  if (!bed.ok()) {
    return nullptr;
  }
  auto w = std::make_unique<PackedWorld>(std::move(*bed));
  w->models = std::make_unique<ModelStore>(&w->model_device);
  Result<HdovTree> tree = HdovBuilder::Build(w->bed.scene, w->models.get(),
                                             DefaultVisualOptions().build);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  if (!tree.ok()) {
    return nullptr;
  }
  w->tree = std::make_unique<HdovTree>(std::move(*tree));
  const Status packed = w->tree->Pack(&w->tree_device);
  EXPECT_TRUE(packed.ok()) << packed.ToString();
  return packed.ok() ? std::move(w) : nullptr;
}

std::string BillingString(uint32_t crc, uint64_t tree_page_reads,
                          const BufferPoolStats& pool) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "0x%08x reads %llu hits %llu misses %llu evictions %llu", crc,
                static_cast<unsigned long long>(tree_page_reads),
                static_cast<unsigned long long>(pool.hits),
                static_cast<unsigned long long>(pool.misses),
                static_cast<unsigned long long>(pool.evictions));
  return buf;
}

TEST(SearchPinTest, TreeDeviceBillingIsPinned) {
  // Indexed-vertical at eta 0.002 over every cell, with node pages billed
  // to the tree device directly and through an LRU pool. The packed tree
  // spans three pages, so the 4-page pool only misses cold and the 1-page
  // pool evicts.
  struct Case {
    size_t cache_pages;
    uint32_t crc;  // Per query: results, stats, tree and store I/O.
    uint64_t tree_page_reads;
    uint64_t pool_hits;
    uint64_t pool_misses;
    uint64_t pool_evictions;
  };
  const Case kCases[] = {
      {0, 0x80afb9b3, 96, 0, 0, 0},
      {4, 0xdf1f8b25, 3, 93, 3, 0},
      {1, 0x4e663ab4, 95, 1, 95, 94},
  };
  std::unique_ptr<PackedWorld> w = BuildPackedWorld();
  ASSERT_NE(w, nullptr);
  for (const Case& c : kCases) {
    SCOPED_TRACE(testing::Message() << "cache_pages " << c.cache_pages);
    PageDevice store_device;
    auto store = BuildStore(StorageScheme::kIndexedVertical, *w->tree,
                            w->bed.table, &store_device);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    HdovSearcher searcher(w->tree.get(), &w->bed.scene, w->models.get(),
                          &w->tree_device);
    std::unique_ptr<BufferPool> pool;
    if (c.cache_pages > 0) {
      pool = std::make_unique<BufferPool>(
          &w->tree_device,
          BufferPoolOptions{.capacity_pages = c.cache_pages, .shards = 1});
      searcher.set_tree_cache(pool.get());
    }
    w->tree_device.ResetStats();
    store_device.ResetStats();
    SearchOptions opt;
    opt.eta = 0.002;
    std::vector<RetrievedLod> result;
    std::string bytes;
    for (CellId cell = 0; cell < w->bed.table.num_cells(); ++cell) {
      SearchStats stats;
      ASSERT_TRUE(
          searcher.Search(store->get(), cell, opt, &result, &stats).ok());
      for (const RetrievedLod& lod : result) {
        AppendResult(lod, &bytes);
      }
      AppendSearchStats(stats, &bytes);
      AppendIo(w->tree_device.stats(), &bytes);
      AppendIo(store_device.stats(), &bytes);
    }
    const BufferPoolStats ps =
        pool != nullptr ? pool->stats() : BufferPoolStats{};
    EXPECT_EQ(BillingString(Crc(bytes), w->tree_device.stats().page_reads,
                            ps),
              BillingString(c.crc, c.tree_page_reads,
                            {c.pool_hits, c.pool_misses, c.pool_evictions}));
  }
}

TEST(SearchPinTest, TraceSpanTreeIsPinned) {
  // Every span's name, parent, closed flag and attributes, in order, for
  // traced queries over every cell. Any change to how the search records
  // its trace must keep this CRC.
  struct Case {
    StorageScheme scheme;
    uint64_t spans;
    uint32_t crc;
  };
  const Case kCases[] = {
      {StorageScheme::kHorizontal, 5995, 0x83643617},
      {StorageScheme::kIndexedVertical, 5995, 0xab97bb4b},
  };
  std::unique_ptr<PackedWorld> w = BuildPackedWorld();
  ASSERT_NE(w, nullptr);
  for (const Case& c : kCases) {
    SCOPED_TRACE(StorageSchemeName(c.scheme));
    PageDevice store_device;
    auto store = BuildStore(c.scheme, *w->tree, w->bed.table, &store_device);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    HdovSearcher searcher(w->tree.get(), &w->bed.scene, w->models.get(),
                          nullptr);
    uint64_t spans = 0;
    std::string bytes;
    for (double eta : {0.0, 0.004}) {
      for (CellId cell = 0; cell < w->bed.table.num_cells(); ++cell) {
        telemetry::TraceRecorder rec;
        rec.set_enabled(true);
        SearchOptions opt;
        opt.eta = eta;
        opt.trace = &rec;
        std::vector<RetrievedLod> result;
        ASSERT_TRUE(searcher.Search(store->get(), cell, opt, &result).ok());
        EXPECT_EQ(rec.open_depth(), 0u);
        const telemetry::SpanForest forest =
            telemetry::DecodeSpanForest(rec.dump());
        for (const telemetry::TraceSpan& span : forest.spans) {
          AppendString(span.name, &bytes);
          EncodeFixed32(&bytes, static_cast<uint32_t>(span.parent));
          bytes.push_back(span.closed ? 1 : 0);
          EncodeFixed32(&bytes, static_cast<uint32_t>(span.num_attrs.size()));
          for (const auto& [key, value] : span.num_attrs) {
            AppendString(key, &bytes);
            AppendDouble(value, &bytes);
          }
          EncodeFixed32(&bytes, static_cast<uint32_t>(span.str_attrs.size()));
          for (const auto& [key, value] : span.str_attrs) {
            AppendString(key, &bytes);
            AppendString(value, &bytes);
          }
        }
        spans += forest.spans.size();
      }
    }
    EXPECT_EQ(PinString({spans, 0, Crc(bytes)}),
              PinString({c.spans, 0, c.crc}));
  }
}

TEST(SearchPinTest, VisualSystemWalkIsPinned) {
  // A 24-frame diagonal walk through VisualSystem on small world B: delta
  // search, sync prefetch, an 8-page tree cache and model fetches. Pins
  // every frame's billing and the final totals.
  Result<Testbed> bed = BuildTestbed(SmallWorldB());
  ASSERT_TRUE(bed.ok()) << bed.status().ToString();
  VisualOptions opt = DefaultVisualOptions();
  opt.eta = 0.002;
  opt.tree_cache_pages = 8;
  opt.prefetch = prefetch::PrefetchMode::kSync;
  opt.prefetch_models_per_frame = 4;
  auto system =
      VisualSystem::Create(&bed->scene, &bed->grid, &bed->table, opt);
  ASSERT_TRUE(system.ok()) << system.status().ToString();

  const Aabb bounds = bed->scene.bounds();
  const int kFrames = 24;
  std::string bytes;
  for (int f = 0; f < kFrames; ++f) {
    const double t = 0.1 + 0.8 * static_cast<double>(f) / (kFrames - 1);
    const Viewpoint vp{
        Vec3(bounds.min.x + t * (bounds.max.x - bounds.min.x),
             bounds.min.y + t * (bounds.max.y - bounds.min.y), 1.7),
        Vec3(1, 0, 0)};
    FrameResult fr;
    ASSERT_TRUE((*system)->RenderFrame(vp, &fr).ok()) << "frame " << f;
    AppendDouble(fr.frame_time_ms, &bytes);
    AppendDouble(fr.query_time_ms, &bytes);
    EncodeFixed64(&bytes, fr.io_pages);
    EncodeFixed64(&bytes, fr.light_io_pages);
    EncodeFixed64(&bytes, fr.rendered_triangles);
    EncodeFixed64(&bytes, fr.models_fetched);
    EncodeFixed64(&bytes, fr.resident_bytes);
    EncodeFixed64(&bytes, fr.index_bytes_read);
    EncodeFixed64(&bytes, fr.store_bytes_read);
    EncodeFixed64(&bytes, fr.model_bytes_read);
    AppendSearchStats(fr.search, &bytes);
    for (const RetrievedLod& lod : (*system)->last_result()) {
      AppendResult(lod, &bytes);
    }
  }
  const IoStats total = (*system)->TotalIoStats();
  char got[160];
  std::snprintf(got, sizeof(got),
                "0x%08x reads %llu seeks %llu bytes %llu clock %.17g",
                Crc(bytes), static_cast<unsigned long long>(total.page_reads),
                static_cast<unsigned long long>(total.seeks),
                static_cast<unsigned long long>(total.bytes_read),
                (*system)->clock().NowMillis());
  EXPECT_STREQ(got,
               "0x00f4a609 reads 891 seeks 178 bytes 3649536 clock "
               "1513.0999999999999");
}

}  // namespace
}  // namespace hdov
