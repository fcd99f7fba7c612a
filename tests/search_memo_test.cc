// HdovSearcher remembers its last search and, when the next search has the
// same key, replays only its page accesses and copies the result. These
// tests hold the replay to a full search: per frame, every result field,
// search stat, device counter, clock tick, pool counter, store counter and
// flight event must be what a searcher without the memo produces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "hdov/builder.h"
#include "hdov/search.h"
#include "storage/buffer_pool.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "walkthrough/experiment_testbed.h"
#include "walkthrough/visual_system.h"

namespace hdov {
namespace {

using telemetry::FlightEvent;
using telemetry::FlightEventType;

// Named values, compared in order; the first difference names itself.
using Facts = std::vector<std::pair<std::string, uint64_t>>;

void AddDouble(Facts* facts, const std::string& name, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  facts->emplace_back(name, bits);
}

void AddResult(Facts* facts, const std::vector<RetrievedLod>& result) {
  facts->emplace_back("result.size", result.size());
  for (size_t i = 0; i < result.size(); ++i) {
    const RetrievedLod& lod = result[i];
    const std::string at = "result[" + std::to_string(i) + "].";
    uint32_t dov_bits = 0;
    std::memcpy(&dov_bits, &lod.dov, sizeof(dov_bits));
    facts->emplace_back(at + "kind", static_cast<uint64_t>(lod.kind));
    facts->emplace_back(at + "owner", lod.owner);
    facts->emplace_back(at + "lod_level", lod.lod_level);
    facts->emplace_back(at + "model", lod.model);
    facts->emplace_back(at + "triangle_count", lod.triangle_count);
    facts->emplace_back(at + "byte_size", lod.byte_size);
    facts->emplace_back(at + "dov", dov_bits);
  }
}

void AddSearchStats(Facts* facts, const SearchStats& stats) {
  facts->emplace_back("search.nodes_visited", stats.nodes_visited);
  facts->emplace_back("search.vpages_fetched", stats.vpages_fetched);
  facts->emplace_back("search.hidden_entries_pruned",
                      stats.hidden_entries_pruned);
  facts->emplace_back("search.internal_terminations",
                      stats.internal_terminations);
}

void AddIo(Facts* facts, const std::string& device, const IoStats& io) {
  facts->emplace_back(device + ".page_reads", io.page_reads);
  facts->emplace_back(device + ".page_writes", io.page_writes);
  facts->emplace_back(device + ".seeks", io.seeks);
  facts->emplace_back(device + ".bytes_read", io.bytes_read);
  facts->emplace_back(device + ".bytes_written", io.bytes_written);
}

void AddStoreStats(Facts* facts, const VisibilityStore& store) {
  const VisibilityStoreStats& ts = store.telemetry_stats();
  facts->emplace_back("store.vpage_fetches", ts.vpage_fetches);
  facts->emplace_back("store.invisible_lookups", ts.invisible_lookups);
  facts->emplace_back("store.cell_flips", ts.cell_flips);
}

// Events by type, with the pages, runs and seeks the read events stand
// for. Timestamps and a pool miss's fill time are wall time, so they are
// left out.
void AddFlightEvents(Facts* facts, const std::vector<FlightEvent>& events) {
  constexpr size_t kTypes = 16;
  uint64_t count[kTypes] = {};
  uint64_t pages = 0;
  uint64_t runs = 0;
  uint64_t seeks = 0;
  for (const FlightEvent& ev : events) {
    ++count[ev.type < kTypes ? ev.type : 0];
    pages += telemetry::FlightReadPages(ev);
    runs += telemetry::FlightReadRuns(ev);
    seeks += telemetry::FlightReadSeeks(ev);
  }
  for (size_t type = 0; type < kTypes; ++type) {
    facts->emplace_back(
        "flight." + std::string(telemetry::FlightEventTypeName(
                        static_cast<FlightEventType>(type))),
        count[type]);
  }
  facts->emplace_back("flight.pages", pages);
  facts->emplace_back("flight.runs", runs);
  facts->emplace_back("flight.seeks", seeks);
}

void ExpectSameFacts(const Facts& got, const Facts& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      ADD_FAILURE() << got[i].first << ": " << got[i].second
                    << " with the memo, " << want[i].second << " without ("
                    << want[i].first << ")";
      return;
    }
  }
}

// The events recorded since the last call, all threads (the walks below
// record on this thread only).
std::vector<FlightEvent> TakeFlightEvents() {
  return telemetry::GlobalFlightRecorder().Drain(/*consume=*/true).events;
}

TestbedOptions MemoWorld() {
  TestbedOptions w;
  w.blocks = 6;
  w.cells = 6;
  w.face_resolution = 24;
  w.samples_per_cell = 2;
  w.seed = 22;
  w.threads = 2;
  return w;
}

// A slow diagonal walk that stays several frames in each cell while its
// gaze turns, so the sync plan's predicted cell changes now and then.
std::vector<Viewpoint> MemoWalk(const Aabb& bounds, int frames = 40) {
  std::vector<Viewpoint> walk;
  for (int f = 0; f < frames; ++f) {
    const double t = 0.1 + 0.8 * static_cast<double>(f) / (frames - 1);
    const double angle = 0.2 * f;
    walk.push_back(
        Viewpoint{Vec3(bounds.min.x + t * (bounds.max.x - bounds.min.x),
                       bounds.min.y + t * (bounds.max.y - bounds.min.y), 1.7),
                  Vec3(std::cos(angle), std::sin(angle), 0)});
  }
  return walk;
}

// Everything one frame of `system` leaves behind.
Facts FrameFacts(VisualSystem& system, const FrameResult& fr,
                 const std::vector<FlightEvent>& events) {
  Facts facts;
  AddDouble(&facts, "frame_time_ms", fr.frame_time_ms);
  AddDouble(&facts, "query_time_ms", fr.query_time_ms);
  facts.emplace_back("io_pages", fr.io_pages);
  facts.emplace_back("light_io_pages", fr.light_io_pages);
  facts.emplace_back("rendered_triangles", fr.rendered_triangles);
  facts.emplace_back("models_fetched", fr.models_fetched);
  facts.emplace_back("resident_bytes", fr.resident_bytes);
  facts.emplace_back("index_bytes_read", fr.index_bytes_read);
  facts.emplace_back("store_bytes_read", fr.store_bytes_read);
  facts.emplace_back("model_bytes_read", fr.model_bytes_read);
  facts.emplace_back("cache_hits", fr.cache_hits);
  facts.emplace_back("cache_misses", fr.cache_misses);
  AddDouble(&facts, "cache_hit_rate", fr.cache_hit_rate);
  AddSearchStats(&facts, fr.search);
  AddResult(&facts, system.last_result());
  AddIo(&facts, "tree", system.tree_device().stats());
  AddIo(&facts, "store", system.store_device().stats());
  AddIo(&facts, "model", system.model_device().stats());
  AddDouble(&facts, "clock_ms", system.clock().NowMillis());
  const BufferPoolStats pool = system.tree_cache()->stats();
  facts.emplace_back("pool.hits", pool.hits);
  facts.emplace_back("pool.misses", pool.misses);
  facts.emplace_back("pool.evictions", pool.evictions);
  AddStoreStats(&facts, *system.store());
  AddFlightEvents(&facts, events);
  return facts;
}

TEST(SearchMemoTest, ReplayedWalksMatchFullSearches) {
  // Every scheme, eta, heuristic, delta search on and off, prefetch off
  // and sync: one system keeps its memo, the other forgets it before each
  // frame, and both play the same walk.
  Result<Testbed> bed = BuildTestbed(MemoWorld());
  ASSERT_TRUE(bed.ok()) << bed.status().ToString();
  const std::vector<Viewpoint> walk = MemoWalk(bed->scene.bounds());
  size_t same_cell_frames = 0;
  for (size_t f = 1; f < walk.size(); ++f) {
    same_cell_frames +=
        bed->grid.ClampedCellForPoint(walk[f].position) ==
                bed->grid.ClampedCellForPoint(walk[f - 1].position)
            ? 1
            : 0;
  }
  ASSERT_GE(same_cell_frames, walk.size() / 2);

  const StorageScheme schemes[] = {
      StorageScheme::kHorizontal, StorageScheme::kVertical,
      StorageScheme::kIndexedVertical, StorageScheme::kBitmapVertical};
  const TerminationHeuristic heuristics[] = {TerminationHeuristic::kEq4,
                                             TerminationHeuristic::kNone,
                                             TerminationHeuristic::kCostModel};
  const prefetch::PrefetchMode prefetches[] = {prefetch::PrefetchMode::kOff,
                                               prefetch::PrefetchMode::kSync};
  for (StorageScheme scheme : schemes) {
    for (double eta : {0.0, 0.0005, 0.001, 0.008}) {
      for (TerminationHeuristic heuristic : heuristics) {
        for (bool delta : {true, false}) {
          for (prefetch::PrefetchMode mode : prefetches) {
            SCOPED_TRACE(testing::Message()
                         << StorageSchemeName(scheme) << " eta " << eta
                         << " heuristic " << static_cast<int>(heuristic)
                         << " delta " << delta << " prefetch "
                         << static_cast<int>(mode));
            VisualOptions opt = DefaultVisualOptions();
            opt.scheme = scheme;
            opt.eta = eta;
            opt.search.heuristic = heuristic;
            opt.prefetch = mode;
            opt.prefetch_models_per_frame = 4;
            opt.tree_cache_pages = 2;
            auto memo =
                VisualSystem::Create(&bed->scene, &bed->grid, &bed->table, opt);
            ASSERT_TRUE(memo.ok()) << memo.status().ToString();
            auto full =
                VisualSystem::Create(&bed->scene, &bed->grid, &bed->table, opt);
            ASSERT_TRUE(full.ok()) << full.status().ToString();
            (*memo)->set_delta_enabled(delta);
            (*full)->set_delta_enabled(delta);
            for (size_t f = 0; f < walk.size(); ++f) {
              SCOPED_TRACE(testing::Message() << "frame " << f);
              TakeFlightEvents();
              FrameResult memo_frame;
              ASSERT_TRUE((*memo)->RenderFrame(walk[f], &memo_frame).ok());
              const Facts got =
                  FrameFacts(**memo, memo_frame, TakeFlightEvents());
              (*full)->ForgetLastSearch();
              FrameResult full_frame;
              ASSERT_TRUE((*full)->RenderFrame(walk[f], &full_frame).ok());
              const Facts want =
                  FrameFacts(**full, full_frame, TakeFlightEvents());
              ExpectSameFacts(got, want);
              if (HasFailure()) {
                return;
              }
            }
          }
        }
      }
    }
  }
}

// The kept resident set, item by item in owner order.
void AddResidentSet(Facts* facts, const ResidentSet& set) {
  std::vector<ResidentSet::Item> items(set.begin(), set.end());
  std::sort(items.begin(), items.end(),
            [](const ResidentSet::Item& a, const ResidentSet::Item& b) {
              return a.owner < b.owner;
            });
  facts->emplace_back("resident.size", items.size());
  facts->emplace_back("resident.bytes", set.bytes());
  for (const ResidentSet::Item& item : items) {
    const std::string at = "resident[" + std::to_string(item.owner) + "].";
    facts->emplace_back(at + "lod_level", item.entry.lod_level);
    facts->emplace_back(at + "byte_size", item.entry.byte_size);
    facts->emplace_back(at + "triangle_count", item.entry.triangle_count);
  }
}

TEST(SearchMemoTest, SettledFramesMatchFullFrames) {
  // A frame whose search replays the memo its last delta loop ran on, and
  // fetched nothing with, keeps the resident set instead of rerunning the
  // loop. One system settles; the other forgets its memo before every
  // frame, so it never does. Mid-walk both reset their runtime, turn delta
  // search off and on again, and trace a few frames; every frame must
  // leave the same facts and the same resident set, item by item.
  Result<Testbed> bed = BuildTestbed(MemoWorld());
  ASSERT_TRUE(bed.ok()) << bed.status().ToString();
  const std::vector<Viewpoint> walk = MemoWalk(bed->scene.bounds(), 120);
  const StorageScheme schemes[] = {StorageScheme::kHorizontal,
                                   StorageScheme::kIndexedVertical};
  const prefetch::PrefetchMode prefetches[] = {prefetch::PrefetchMode::kOff,
                                               prefetch::PrefetchMode::kSync,
                                               prefetch::PrefetchMode::kAsync};
  for (StorageScheme scheme : schemes) {
    for (double eta : {0.0, 0.001}) {
      uint64_t off_settled = 0;
      for (prefetch::PrefetchMode mode : prefetches) {
        SCOPED_TRACE(testing::Message()
                     << StorageSchemeName(scheme) << " eta " << eta
                     << " prefetch " << static_cast<int>(mode));
        VisualOptions opt = DefaultVisualOptions();
        opt.scheme = scheme;
        opt.eta = eta;
        opt.prefetch = mode;
        opt.prefetch_workers = 1;
        opt.tree_cache_pages = 2;
        // Declared first: a system detaches from its telemetry when it
        // is destroyed.
        telemetry::Telemetry settled_tel;
        telemetry::Telemetry full_tel;
        auto settled =
            VisualSystem::Create(&bed->scene, &bed->grid, &bed->table, opt);
        ASSERT_TRUE(settled.ok()) << settled.status().ToString();
        auto full =
            VisualSystem::Create(&bed->scene, &bed->grid, &bed->table, opt);
        ASSERT_TRUE(full.ok()) << full.status().ToString();
        (*settled)->AttachTelemetry(&settled_tel, "settled");
        (*full)->AttachTelemetry(&full_tel, "full");
        // Background warms record on their own threads, at their own
        // pace, so an async walk compares everything but the events.
        const bool compare_events = mode != prefetch::PrefetchMode::kAsync;
        for (size_t f = 0; f < walk.size(); ++f) {
          SCOPED_TRACE(testing::Message() << "frame " << f);
          if (f == 30) {
            (*settled)->ResetRuntime();
            (*full)->ResetRuntime();
          }
          if (f == 50 || f == 54) {
            (*settled)->set_delta_enabled(f == 54);
            (*full)->set_delta_enabled(f == 54);
          }
          // Traced: frames that enter a new cell, and a few that stay.
          const bool traced =
              (f >= 60 && f < 100 &&
               bed->grid.ClampedCellForPoint(walk[f].position) !=
                   bed->grid.ClampedCellForPoint(walk[f - 1].position)) ||
              f == 70 || f == 71 || f == 90;
          settled_tel.tracer().set_enabled(traced);
          full_tel.tracer().set_enabled(traced);
          TakeFlightEvents();
          FrameResult settled_frame;
          ASSERT_TRUE((*settled)->RenderFrame(walk[f], &settled_frame).ok());
          std::vector<FlightEvent> events = TakeFlightEvents();
          Facts got = FrameFacts(**settled, settled_frame,
                                 compare_events ? events : decltype(events){});
          AddResidentSet(&got, (*settled)->resident_set());
          (*full)->ForgetLastSearch();
          FrameResult full_frame;
          ASSERT_TRUE((*full)->RenderFrame(walk[f], &full_frame).ok());
          events = TakeFlightEvents();
          Facts want = FrameFacts(**full, full_frame,
                                  compare_events ? events : decltype(events){});
          AddResidentSet(&want, (*full)->resident_set());
          ExpectSameFacts(got, want);
          if (HasFailure()) {
            return;
          }
        }
        EXPECT_EQ((*full)->settled_frames(), 0u);
        EXPECT_GE((*settled)->settled_frames(), walk.size() / 2);
        // Sync pins stay out of the resident set and the plan searches on
        // a searcher of its own, so sync settles no fewer frames than off.
        if (mode == prefetch::PrefetchMode::kOff) {
          off_settled = (*settled)->settled_frames();
        } else if (mode == prefetch::PrefetchMode::kSync) {
          EXPECT_GE((*settled)->settled_frames(), off_settled);
        }
      }
    }
  }
}

// Forwards every call to `inner`. Placed in one buffer, a store destroyed
// and rebuilt there keeps its address and gets a new serial.
class ForwardingStore : public VisibilityStore {
 public:
  explicit ForwardingStore(VisibilityStore* inner) : inner_(inner) {}

  std::string_view name() const override { return inner_->name(); }
  Status BeginCell(CellId cell) override { return inner_->BeginCell(cell); }
  Status GetVPage(uint32_t node_id, VPage* page, bool* visible) override {
    return inner_->GetVPage(node_id, page, visible);
  }
  uint64_t SizeBytes() const override { return inner_->SizeBytes(); }
  PageDevice* device() const override { return inner_->device(); }
  void EncodeMeta(std::string* dst) const override {
    inner_->EncodeMeta(dst);
  }

 private:
  VisibilityStore* inner_;
};

struct SearchWorld {
  Testbed bed;
  PageDevice model_device;
  std::unique_ptr<ModelStore> models;
  std::unique_ptr<HdovTree> tree;
};

std::unique_ptr<SearchWorld> BuildSearchWorld(const TestbedOptions& topt) {
  Result<Testbed> bed = BuildTestbed(topt);
  EXPECT_TRUE(bed.ok()) << bed.status().ToString();
  if (!bed.ok()) {
    return nullptr;
  }
  auto w = std::make_unique<SearchWorld>();
  w->bed = std::move(*bed);
  w->models = std::make_unique<ModelStore>(&w->model_device);
  Result<HdovTree> tree = HdovBuilder::Build(w->bed.scene, w->models.get(),
                                             DefaultVisualOptions().build);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  if (!tree.ok()) {
    return nullptr;
  }
  w->tree = std::make_unique<HdovTree>(std::move(*tree));
  return w;
}

TEST(SearchMemoTest, StoreRebuiltAtTheSameAddressSearchesAfresh) {
  // Two visibility tables of one world (coarser and finer cube maps), so
  // one tree serves both. A searcher that remembered a search on the first
  // table's store must not replay it on a store that now lives at the
  // same address but reads the second table.
  std::unique_ptr<SearchWorld> w = BuildSearchWorld(MemoWorld());
  ASSERT_NE(w, nullptr);
  TestbedOptions coarse_opt = MemoWorld();
  coarse_opt.face_resolution = 8;
  coarse_opt.samples_per_cell = 1;
  Result<Testbed> coarse = BuildTestbed(coarse_opt);
  ASSERT_TRUE(coarse.ok()) << coarse.status().ToString();
  ASSERT_EQ(coarse->table.num_cells(), w->bed.table.num_cells());

  PageDevice fine_device;
  PageDevice coarse_device;
  auto fine_store = BuildStore(StorageScheme::kIndexedVertical, *w->tree,
                               w->bed.table, &fine_device);
  ASSERT_TRUE(fine_store.ok()) << fine_store.status().ToString();
  auto coarse_store = BuildStore(StorageScheme::kIndexedVertical, *w->tree,
                                 coarse->table, &coarse_device);
  ASSERT_TRUE(coarse_store.ok()) << coarse_store.status().ToString();

  SearchOptions opt;
  opt.eta = 0.001;
  // A cell whose two tables give different results.
  HdovSearcher probe(w->tree.get(), &w->bed.scene, w->models.get(), nullptr);
  CellId cell = kInvalidCell;
  std::vector<RetrievedLod> fine_result;
  std::vector<RetrievedLod> coarse_result;
  for (CellId c = 0; c < w->bed.table.num_cells(); ++c) {
    ASSERT_TRUE(probe.Search(fine_store->get(), c, opt, &fine_result).ok());
    ASSERT_TRUE(
        probe.Search(coarse_store->get(), c, opt, &coarse_result).ok());
    Facts fine_facts;
    Facts coarse_facts;
    AddResult(&fine_facts, fine_result);
    AddResult(&coarse_facts, coarse_result);
    if (fine_facts != coarse_facts) {
      cell = c;
      break;
    }
  }
  ASSERT_NE(cell, kInvalidCell) << "the two tables agree on every cell";

  alignas(ForwardingStore) unsigned char slot[sizeof(ForwardingStore)];
  HdovSearcher searcher(w->tree.get(), &w->bed.scene, w->models.get(),
                        nullptr);
  std::vector<RetrievedLod> result;
  auto* first = new (slot) ForwardingStore(fine_store->get());
  const uint64_t first_serial = first->serial();
  ASSERT_TRUE(searcher.Search(first, cell, opt, &result).ok());
  Facts got;
  Facts want;
  AddResult(&got, result);
  AddResult(&want, fine_result);
  ExpectSameFacts(got, want);
  first->~ForwardingStore();

  auto* second = new (slot) ForwardingStore(coarse_store->get());
  ASSERT_EQ(static_cast<void*>(second), static_cast<void*>(first));
  EXPECT_NE(second->serial(), first_serial);
  ASSERT_TRUE(searcher.Search(second, cell, opt, &result).ok());
  got.clear();
  want.clear();
  AddResult(&got, result);
  AddResult(&want, coarse_result);
  ExpectSameFacts(got, want);
  second->~ForwardingStore();
}

TEST(SearchMemoTest, TracedQueryLeavesTheMemoAlone) {
  // Two identical packed worlds, one searcher each with a tree cache; the
  // second forgets its memo before every search. An untraced search, a
  // traced one (same cell, then another cell) and an untraced one again
  // must leave identical results, stats and billing on both, and the
  // traced search must run in full even when the memo holds its key.
  std::unique_ptr<SearchWorld> w = BuildSearchWorld(MemoWorld());
  ASSERT_NE(w, nullptr);
  struct Side {
    PageDevice tree_device;
    PageDevice store_device;
    std::unique_ptr<HdovTree> tree;
    std::unique_ptr<VisibilityStore> store;
    std::unique_ptr<BufferPool> pool;
    std::unique_ptr<HdovSearcher> searcher;
  };
  Side sides[2];
  for (Side& side : sides) {
    side.tree = std::make_unique<HdovTree>(*w->tree);
    ASSERT_TRUE(side.tree->Pack(&side.tree_device).ok());
    auto store = BuildStore(StorageScheme::kVertical, *side.tree,
                            w->bed.table, &side.store_device);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    side.store = std::move(*store);
    side.pool = std::make_unique<BufferPool>(
        &side.tree_device,
        BufferPoolOptions{.capacity_pages = 2, .shards = 1});
    side.searcher = std::make_unique<HdovSearcher>(
        side.tree.get(), &w->bed.scene, w->models.get(), &side.tree_device);
    side.searcher->set_tree_cache(side.pool.get());
  }
  const CellId home = w->bed.table.num_cells() / 2;
  const CellId away = 1;
  struct Step {
    CellId cell;
    bool traced;
  };
  const Step steps[] = {{home, false}, {home, true},  {home, false},
                        {away, true},  {home, false}, {home, false}};
  for (double eta : {0.0, 0.002}) {
    for (size_t i = 0; i < std::size(steps); ++i) {
      SCOPED_TRACE(testing::Message() << "eta " << eta << " step " << i);
      Facts facts[2];
      size_t spans[2] = {0, 0};
      for (int s = 0; s < 2; ++s) {
        Side& side = sides[s];
        if (s == 1) {
          side.searcher->ForgetLastSearch();
        }
        telemetry::TraceRecorder rec;
        rec.set_enabled(true);
        SearchOptions opt;
        opt.eta = eta;
        opt.trace = steps[i].traced ? &rec : nullptr;
        std::vector<RetrievedLod> result;
        SearchStats stats;
        ASSERT_TRUE(side.searcher
                        ->Search(side.store.get(), steps[i].cell, opt,
                                 &result, &stats)
                        .ok());
        spans[s] = telemetry::DecodeSpanForest(rec.dump()).spans.size();
        AddResult(&facts[s], result);
        AddSearchStats(&facts[s], stats);
        AddIo(&facts[s], "tree", side.tree_device.stats());
        AddIo(&facts[s], "store", side.store_device.stats());
        const BufferPoolStats pool = side.pool->stats();
        facts[s].emplace_back("pool.hits", pool.hits);
        facts[s].emplace_back("pool.misses", pool.misses);
        facts[s].emplace_back("pool.evictions", pool.evictions);
        AddStoreStats(&facts[s], *side.store);
      }
      ExpectSameFacts(facts[0], facts[1]);
      EXPECT_EQ(spans[0], spans[1]);
      EXPECT_EQ(spans[0] > 0, steps[i].traced);
    }
  }
}

}  // namespace
}  // namespace hdov
