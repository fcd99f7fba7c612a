// Component microbenchmarks (google-benchmark): CPU cost of the building
// blocks, plus ablations DESIGN.md calls out — linear-split vs sorted
// fallback pressure, cube-map resolution, sequential vs random page I/O,
// Eq. 4 heuristic on/off, and buffer-pool hit behaviour.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"
#include "hdov/builder.h"
#include "hdov/search.h"
#include "hdov/visibility_store.h"
#include "hdov/vpage.h"
#include "mesh/primitives.h"
#include "rtree/linear_split.h"
#include "rtree/rtree.h"
#include "scene/cell_grid.h"
#include "scene/city_generator.h"
#include "scene/session.h"
#include "simplify/simplifier.h"
#include "storage/buffer_pool.h"
#include "storage/file_device.h"
#include "storage/page_device.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/trace_context.h"
#include "visibility/cubemap_buffer.h"
#include "visibility/precompute.h"
#include "walkthrough/experiment_testbed.h"
#include "walkthrough/frame_loop.h"
#include "walkthrough/visual_system.h"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace hdov {
namespace {

Aabb RandomBox(Rng* rng, double world, double extent) {
  Vec3 lo(rng->Uniform(0, world), rng->Uniform(0, world),
          rng->Uniform(0, world));
  return Aabb(lo, lo + Vec3(rng->Uniform(0.1, extent),
                            rng->Uniform(0.1, extent),
                            rng->Uniform(0.1, extent)));
}

// R-tree construction: the wall-clock half of bench_ablations' ablation A
// (which reports node counts and query I/O), at the ablation's fanout.
// `strategy` 0 inserts with the Ang-Tan linear split, 1 inserts with the
// quadratic split, 2 bulk-loads with STR.
void BM_RTreeBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int64_t strategy = state.range(1);
  Rng rng(1);
  std::vector<std::pair<Aabb, uint64_t>> entries;
  entries.reserve(n);
  for (int i = 0; i < n; ++i) {
    entries.emplace_back(RandomBox(&rng, 1000, 20), static_cast<uint64_t>(i));
  }
  RTreeOptions opt;
  opt.max_entries = 16;
  opt.min_entries = 6;
  opt.split = strategy == 1 ? SplitAlgorithm::kQuadratic
                            : SplitAlgorithm::kAngTanLinear;
  state.SetLabel(strategy == 0   ? "Ang-Tan insert"
                 : strategy == 1 ? "quadratic insert"
                                 : "STR bulk load");
  for (auto _ : state) {
    if (strategy == 2) {
      benchmark::DoNotOptimize(RTree::BulkLoad(entries, opt).ok());
      continue;
    }
    RTree tree(opt);
    for (const auto& [mbr, id] : entries) {
      benchmark::DoNotOptimize(tree.Insert(mbr, id));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RTreeBuild)
    ->ArgNames({"n", "strategy"})
    ->ArgsProduct({{1000, 4000}, {0, 1, 2}});

void BM_RTreeWindowQuery(benchmark::State& state) {
  Rng rng(2);
  RTree tree;
  for (int i = 0; i < 5000; ++i) {
    (void)tree.Insert(RandomBox(&rng, 1000, 20), static_cast<uint64_t>(i));
  }
  std::vector<uint64_t> results;
  for (auto _ : state) {
    Aabb window = RandomBox(&rng, 1000, static_cast<double>(state.range(0)));
    tree.WindowQuery(window, &results);
    benchmark::DoNotOptimize(results.data());
  }
}
BENCHMARK(BM_RTreeWindowQuery)->Arg(50)->Arg(200)->Arg(500);

void BM_LinearSplit(benchmark::State& state) {
  Rng rng(3);
  std::vector<Aabb> boxes;
  for (int i = 0; i < 33; ++i) {
    boxes.push_back(RandomBox(&rng, 100, 10));
  }
  for (auto _ : state) {
    SplitResult split = LinearSplit(boxes, 13);
    benchmark::DoNotOptimize(split.left.data());
  }
}
BENCHMARK(BM_LinearSplit);

void BM_SimplifyIcosphere(benchmark::State& state) {
  TriangleMesh sphere = MakeIcosphere(4);  // 5120 triangles.
  SimplifyOptions opt;
  opt.target_triangles = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Result<TriangleMesh> out = Simplify(sphere, opt);
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetItemsProcessed(state.iterations() * 5120);
}
BENCHMARK(BM_SimplifyIcosphere)->Arg(1024)->Arg(256)->Arg(64);

void BM_CubeMapPointDov(benchmark::State& state) {
  CityOptions copt;
  copt.mode = GeometryMode::kProxy;
  copt.blocks_x = 8;
  copt.blocks_y = 8;
  Scene scene = std::move(*GenerateCity(copt));
  DovOptions dopt;
  dopt.cubemap.face_resolution = static_cast<int>(state.range(0));
  DovComputer computer(&scene, dopt);
  Vec3 center = scene.bounds().Center();
  for (auto _ : state) {
    const std::vector<float>& dov =
        computer.ComputePointDov(Vec3(center.x, center.y, 1.7));
    benchmark::DoNotOptimize(dov.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(scene.size()));
}
BENCHMARK(BM_CubeMapPointDov)->Arg(16)->Arg(32)->Arg(64);

void BM_PageDeviceSequentialVsRandom(benchmark::State& state) {
  const bool sequential = state.range(0) == 1;
  PageDevice device;
  const uint64_t kPages = 4096;
  device.AllocateUnmaterialized(kPages);
  Rng rng(4);
  std::string data;
  uint64_t next = 0;
  for (auto _ : state) {
    PageId page = sequential ? (next++ % kPages) : rng.NextUint64(kPages);
    benchmark::DoNotOptimize(device.Read(page, &data));
  }
  state.SetLabel(sequential ? "sequential" : "random");
  // The interesting output is the simulated cost, not wall time:
  state.counters["sim_ms_per_read"] = benchmark::Counter(
      device.clock().NowMillis(),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["seek_fraction"] =
      static_cast<double>(device.stats().seeks) /
      static_cast<double>(device.stats().page_reads);
}
BENCHMARK(BM_PageDeviceSequentialVsRandom)->Arg(1)->Arg(0);

// Cost of one flight-recorder event, enabled vs disabled. The recorder is
// always on in production paths, so the enabled per-event cost IS the
// observability tax; the disabled arm measures the short-circuit branch.
void BM_FlightRecorderOverhead(benchmark::State& state) {
  const bool enabled = state.range(0) == 1;
  telemetry::FlightRecorder recorder(1 << 16);
  recorder.set_enabled(enabled);
  const uint16_t code = telemetry::FlightInternName("bench");
  uint64_t n = 0;
  for (auto _ : state) {
    recorder.Record(telemetry::FlightEventType::kPageRead, code, n, 1);
    ++n;
    if (enabled && (n & 0xffff) == 0) {
      // Periodically consume so steady state measures ring writes, not an
      // ever-lapped ring (drop accounting is branch-identical either way).
      // The drain itself is off the clock: it is not a per-event cost.
      state.PauseTiming();
      benchmark::DoNotOptimize(recorder.Drain(/*consume=*/true).events.size());
      state.ResumeTiming();
    }
  }
  state.SetLabel(enabled ? "enabled" : "disabled");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecorderOverhead)->Arg(1)->Arg(0);

// The billed read inside a stage (RecordRead): no event and no clock
// read, only an add into the thread's pending (stage, device) totals that
// the stage scope flushes as one kPageReadAgg. BM_FlightRecorderOverhead
// is the per-run event it replaces.
void BM_FlightRecordRead(benchmark::State& state) {
  telemetry::FlightRecorder recorder(1 << 16);
  const uint16_t code = telemetry::FlightInternName("bench");
  telemetry::StageTraceScope stage(telemetry::TraceStage::kFetch);
  uint64_t n = 0;
  for (auto _ : state) {
    recorder.RecordRead(code, n, 1, (n & 7) == 0);
    ++n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecordRead);

// The per-event budget split into its parts. An enabled Record is one
// clock read (BM_FlightClock), one TraceContext read
// (BM_FlightContextStamp), one ring lookup and a four-word slot write.

// Arg 0: raw steady_clock::now(); arg 1: FlightNowNs(), the recorder's
// clock (a scaled TSC read where the kernel trusts the TSC); arg 2 (x86-64
// only): a raw __rdtsc(), the floor under arg 1.
void BM_FlightClock(benchmark::State& state) {
  const int64_t arm = state.range(0);
  for (auto _ : state) {
    if (arm == 1) {
      benchmark::DoNotOptimize(telemetry::FlightNowNs());
    } else if (arm == 0) {
      benchmark::DoNotOptimize(std::chrono::steady_clock::now());
    } else {
#if defined(__x86_64__)
      benchmark::DoNotOptimize(__rdtsc());
#endif
    }
  }
  state.SetLabel(arm == 1 ? "FlightNowNs"
                          : (arm == 0 ? "steady_clock" : "rdtsc"));
  state.SetItemsProcessed(state.iterations());
}
#if defined(__x86_64__)
BENCHMARK(BM_FlightClock)->Arg(0)->Arg(1)->Arg(2);
#else
BENCHMARK(BM_FlightClock)->Arg(0)->Arg(1);
#endif

// The context stamp: reading the thread's ambient session and stage.
void BM_FlightContextStamp(benchmark::State& state) {
  telemetry::SessionTraceScope session(7, 0);
  telemetry::StageTraceScope stage(telemetry::TraceStage::kSearch);
  for (auto _ : state) {
    const telemetry::TraceContext& ctx = telemetry::CurrentTraceContext();
    benchmark::DoNotOptimize(ctx.session);
    benchmark::DoNotOptimize(ctx.stage);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightContextStamp);

// The ring lookup: enabled Records that alternate over `range(0)` (1 or 2)
// recorders. With one recorder every event hits the thread's cached ring,
// as on the production path; with two, every event misses it and scans
// the thread's ring table, so the difference is the lookup it saves.
void BM_FlightRecorderRingLookup(benchmark::State& state) {
  const size_t count = static_cast<size_t>(state.range(0));
  const uint64_t mask = count - 1;
  std::vector<std::unique_ptr<telemetry::FlightRecorder>> recorders;
  for (size_t i = 0; i < count; ++i) {
    recorders.push_back(std::make_unique<telemetry::FlightRecorder>(1 << 16));
  }
  const uint16_t code = telemetry::FlightInternName("bench");
  uint64_t n = 0;
  for (auto _ : state) {
    recorders[n & mask]->Record(telemetry::FlightEventType::kPageRead, code,
                                 n, 1);
    ++n;
    if ((n & 0xffff) == 0) {
      state.PauseTiming();
      for (auto& recorder : recorders) {
        benchmark::DoNotOptimize(
            recorder->Drain(/*consume=*/true).events.size());
      }
      state.ResumeTiming();
    }
  }
  state.SetLabel(count == 1 ? "cached ring" : "ring table scan");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecorderRingLookup)->Arg(1)->Arg(2);

void BM_BufferPoolGet(benchmark::State& state) {
  PageDevice device;
  const uint64_t kPages = 1024;
  for (uint64_t i = 0; i < kPages; ++i) {
    device.Allocate();
  }
  // One shard, as a VisualSystem's tree cache uses it.
  BufferPool pool(&device,
                  {.capacity_pages = static_cast<size_t>(state.range(0)),
                   .shards = 1});
  Rng rng(5);
  for (auto _ : state) {
    auto page = pool.Get(rng.NextUint64(kPages));
    benchmark::DoNotOptimize(page.ok());
  }
  state.counters["hit_rate"] = pool.stats().HitRate();
}
BENCHMARK(BM_BufferPoolGet)->Arg(64)->Arg(512)->Arg(1024);

// The checksum every FilePageDevice page read pays: one 4 KiB page.
void BM_Crc32cPage(benchmark::State& state) {
  Rng rng(6);
  std::string page(4096, '\0');
  for (char& c : page) {
    c = static_cast<char>(rng.NextUint64(256));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(page));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page.size()));
}
BENCHMARK(BM_Crc32cPage);

// One V-page record read where every read misses VPageFile's one-page
// cache: a billed device page read plus the record decode. Arg 0 reads the
// in-memory device (a view of its page), arg 1 a file device (pread +
// CRC32C into the file's scratch page).
void BM_VPageFileReadRecord(benchmark::State& state) {
  const bool file_backed = state.range(0) == 1;
  const size_t kFanout = 16;
  const uint64_t kPages = 64;
  std::unique_ptr<PageDevice> device;
  if (file_backed) {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("bm_vpage_file." + std::to_string(::getpid()) + ".bin"))
            .string();
    auto created = FilePageDevice::Create(path);
    if (!created.ok()) {
      state.SkipWithError(created.status().ToString().c_str());
      return;
    }
    device = std::move(*created);
    std::filesystem::remove(path);  // The open descriptor keeps the data.
  } else {
    device = std::make_unique<PageDevice>();
  }
  VPageFile file(device.get(), VPageRecordSize(kFanout));
  const uint64_t records = kPages * file.records_per_page();
  VPage page(kFanout, VdEntry{0.25f, 3});
  const std::string record = SerializeVPage(page, kFanout);
  for (uint64_t i = 0; i < records; ++i) {
    if (!file.AppendRecord(record).ok()) {
      state.SkipWithError("append failed");
      return;
    }
  }
  if (!file.FinishBuild().ok()) {
    state.SkipWithError("finish failed");
    return;
  }
  uint64_t next_page = 0;
  for (auto _ : state) {
    // Next page, a record inside it: always a cache miss.
    next_page = (next_page + 1) % kPages;
    const uint64_t slot = next_page * file.records_per_page() +
                          next_page % file.records_per_page();
    benchmark::DoNotOptimize(file.ReadRecord(slot, &page));
  }
  state.SetLabel(file_backed ? "file" : "memory");
}
BENCHMARK(BM_VPageFileReadRecord)->Arg(0)->Arg(1);

// Thread scaling of the per-cell DoV precompute (the parallel build
// path). Per-cell work is independent, so real time should drop
// near-linearly with threads while the produced table stays
// bit-identical; compare the ms/op column across the thread args.
class PrecomputeFixture {
 public:
  static PrecomputeFixture& Get() {
    static PrecomputeFixture* instance = new PrecomputeFixture();
    return *instance;
  }

  Scene scene;
  std::unique_ptr<CellGrid> grid;

 private:
  PrecomputeFixture() {
    CityOptions copt;
    copt.mode = GeometryMode::kProxy;
    copt.blocks_x = 12;
    copt.blocks_y = 12;
    scene = std::move(*GenerateCity(copt));
    CellGridOptions gopt;
    gopt.cells_x = 12;
    gopt.cells_y = 12;
    grid = std::make_unique<CellGrid>(
        std::move(*CellGrid::Build(scene.bounds(), gopt)));
  }
};

void BM_PrecomputeVisibilityThreads(benchmark::State& state) {
  PrecomputeFixture& fx = PrecomputeFixture::Get();
  PrecomputeOptions popt;
  popt.dov.cubemap.face_resolution = 32;
  popt.samples_per_cell = 1;
  popt.threads = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    Result<VisibilityTable> table =
        PrecomputeVisibility(fx.scene, *fx.grid, popt);
    benchmark::DoNotOptimize(table.ok());
  }
  state.SetItemsProcessed(state.iterations() * fx.grid->num_cells());
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_PrecomputeVisibilityThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Ablation: full HDoV search with and without the Eq. 4 NVO heuristic.
class SearchFixture {
 public:
  static SearchFixture& Get() {
    static SearchFixture* instance = new SearchFixture();
    return *instance;
  }

  Scene scene;
  std::unique_ptr<CellGrid> grid;
  std::unique_ptr<VisibilityTable> table;
  PageDevice model_device;
  std::unique_ptr<ModelStore> models;
  std::unique_ptr<HdovTree> tree;
  PageDevice store_device;
  std::unique_ptr<VisibilityStore> store;
  std::unique_ptr<HdovSearcher> searcher;

 private:
  SearchFixture() {
    CityOptions copt;
    copt.mode = GeometryMode::kProxy;
    copt.blocks_x = 10;
    copt.blocks_y = 10;
    scene = std::move(*GenerateCity(copt));
    CellGridOptions gopt;
    gopt.cells_x = 8;
    gopt.cells_y = 8;
    grid = std::make_unique<CellGrid>(
        std::move(*CellGrid::Build(scene.bounds(), gopt)));
    PrecomputeOptions popt;
    popt.dov.cubemap.face_resolution = 16;
    popt.samples_per_cell = 1;
    table = std::make_unique<VisibilityTable>(
        std::move(*PrecomputeVisibility(scene, *grid, popt)));
    models = std::make_unique<ModelStore>(&model_device);
    tree = std::make_unique<HdovTree>(
        std::move(*HdovBuilder::Build(scene, models.get(),
                                      HdovBuildOptions())));
    store = std::move(BuildStore(StorageScheme::kIndexedVertical, *tree,
                                 *table, &store_device))
                .value();
    searcher = std::make_unique<HdovSearcher>(tree.get(), &scene,
                                              models.get(), nullptr);
  }
};

void BM_HdovSearch(benchmark::State& state) {
  SearchFixture& fx = SearchFixture::Get();
  SearchOptions opt;
  opt.eta = static_cast<double>(state.range(0)) / 100000.0;
  opt.heuristic = static_cast<TerminationHeuristic>(state.range(1));
  std::vector<RetrievedLod> result;
  CellId cell = 0;
  uint64_t total_items = 0;
  uint64_t queries = 0;
  for (auto _ : state) {
    (void)fx.searcher->Search(fx.store.get(), cell, opt, &result);
    benchmark::DoNotOptimize(result.data());
    total_items += result.size();
    ++queries;
    cell = (cell + 1) % fx.grid->num_cells();
  }
  state.counters["avg_result_items"] =
      static_cast<double>(total_items) / static_cast<double>(queries);
}
BENCHMARK(BM_HdovSearch)
    ->Args({0, 0})      // eta = 0.
    ->Args({100, 0})    // eta = 0.001, Eq. 4.
    ->Args({100, 1})    // eta = 0.001, eta-only (ablation).
    ->Args({100, 2})    // eta = 0.001, cost model (extension).
    ->Args({800, 0})    // eta = 0.008, Eq. 4.
    ->Args({800, 2});   // eta = 0.008, cost model.

// The same search repeated on one cell, as a walkthrough frame that stays
// in its cell: after the first iteration each search replays the
// remembered page accesses and copies the result (HdovSearcher's memo),
// next to BM_HdovSearch's full searches over rotating cells.
void BM_HdovSearchSameCell(benchmark::State& state) {
  SearchFixture& fx = SearchFixture::Get();
  SearchOptions opt;
  opt.eta = static_cast<double>(state.range(0)) / 100000.0;
  const CellId cell = fx.grid->num_cells() / 2;
  std::vector<RetrievedLod> result;
  for (auto _ : state) {
    (void)fx.searcher->Search(fx.store.get(), cell, opt, &result);
    benchmark::DoNotOptimize(result.data());
  }
  state.counters["avg_result_items"] = static_cast<double>(result.size());
}
BENCHMARK(BM_HdovSearchSameCell)
    ->Arg(0)     // eta = 0.
    ->Arg(100);  // eta = 0.001, Eq. 4.

// A query's store work over rotating cells, per storage scheme (arg =
// StorageScheme): BeginCell flips to the next cell, which for the
// clustered schemes reads its V-page-index segment and decodes it into the
// node -> slot table, then every node's V-page is looked up (one table
// read, plus a record read when the node is visible).
void BM_StoreCellSweep(benchmark::State& state) {
  SearchFixture& fx = SearchFixture::Get();
  PageDevice device;
  auto store = BuildStore(static_cast<StorageScheme>(state.range(0)),
                          *fx.tree, *fx.table, &device);
  if (!store.ok()) {
    state.SkipWithError(store.status().ToString().c_str());
    return;
  }
  const auto nodes = static_cast<uint32_t>(fx.tree->num_nodes());
  CellId cell = 0;
  VPage page;
  bool visible = false;
  for (auto _ : state) {
    cell = (cell + 1) % fx.grid->num_cells();
    if (!(*store)->BeginCell(cell).ok()) {
      state.SkipWithError("begin cell failed");
      return;
    }
    for (uint32_t node = 0; node < nodes; ++node) {
      benchmark::DoNotOptimize((*store)->GetVPage(node, &page, &visible));
    }
  }
  state.SetItemsProcessed(state.iterations() * nodes);
  state.SetLabel(std::string((*store)->name()));
}
BENCHMARK(BM_StoreCellSweep)->DenseRange(0, 3);

// A whole VISUAL frame repeated at one viewpoint: after the first frame the
// search replays its memo and the frame is settled (VisualSystem keeps the
// resident set instead of rerunning the delta loop), so this is the frame
// cost a walkthrough pays while it stays in its cell.
void BM_RenderFrameSameCell(benchmark::State& state) {
  SearchFixture& fx = SearchFixture::Get();
  VisualOptions opt = DefaultVisualOptions();
  opt.eta = static_cast<double>(state.range(0)) / 100000.0;
  opt.prefetch = prefetch::PrefetchMode::kOff;
  opt.tree_cache_pages = 1024;
  auto system =
      VisualSystem::Create(&fx.scene, fx.grid.get(), fx.table.get(), opt);
  if (!system.ok()) {
    state.SkipWithError(system.status().ToString().c_str());
    return;
  }
  const Vec3 center = fx.scene.bounds().Center();
  const Viewpoint view{Vec3(center.x, center.y, 1.7), Vec3(1, 0, 0)};
  FrameResult frame;
  for (auto _ : state) {
    if (!(*system)->RenderFrame(view, &frame).ok()) {
      state.SkipWithError("render frame failed");
      return;
    }
    benchmark::DoNotOptimize(frame.rendered_triangles);
  }
  state.counters["avg_result_items"] =
      static_cast<double>((*system)->last_result().size());
  state.counters["settled_ratio"] =
      static_cast<double>((*system)->settled_frames()) /
      static_cast<double>(std::max<int64_t>(1, state.iterations()));
}
BENCHMARK(BM_RenderFrameSameCell)
    ->Arg(0)     // eta = 0.
    ->Arg(100);  // eta = 0.001, Eq. 4.

// One 400-frame normal walk played cold through PlaySession, with prefetch
// off (arg 0) or sync (arg 1, the walkthrough experiments' mode). Sync
// prefetch pins stay out of the resident set and the plan searches on its
// own searcher, so both modes settle the frames that stay in their cell;
// `settled` is the settled frames per walk.
void BM_VisualWalk(benchmark::State& state) {
  SearchFixture& fx = SearchFixture::Get();
  VisualOptions opt = DefaultVisualOptions();
  opt.prefetch = state.range(0) == 0 ? prefetch::PrefetchMode::kOff
                                     : prefetch::PrefetchMode::kSync;
  opt.tree_cache_pages = 1024;
  auto system =
      VisualSystem::Create(&fx.scene, fx.grid.get(), fx.table.get(), opt);
  if (!system.ok()) {
    state.SkipWithError(system.status().ToString().c_str());
    return;
  }
  SessionOptions sopt;
  sopt.num_frames = 400;
  const Session walk =
      RecordSession(MotionPattern::kNormalWalk, fx.scene.bounds(), sopt);
  for (auto _ : state) {
    Result<SessionSummary> summary = PlaySession(system->get(), walk);
    if (!summary.ok()) {
      state.SkipWithError(summary.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(summary->avg_frame_time_ms);
  }
  state.SetItemsProcessed(state.iterations() * walk.frames.size());
  state.counters["settled"] =
      static_cast<double>((*system)->settled_frames()) /
      static_cast<double>(std::max<int64_t>(1, state.iterations()));
}
BENCHMARK(BM_VisualWalk)
    ->Arg(0)   // Prefetch off.
    ->Arg(1);  // Sync prefetch.

}  // namespace
}  // namespace hdov

// Custom main instead of BENCHMARK_MAIN(): translate the repo-standard
// --json-out=<path> flag into google-benchmark's own JSON reporter flags
// so every bench binary shares one machine-readable output convention.
// Micro timings are wall-clock only, so this file is not part of the CI
// drift gate (see EXPERIMENTS.md).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string format_flag;
  constexpr const char kJsonOut[] = "--json-out=";
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (std::strncmp(*it, kJsonOut, sizeof(kJsonOut) - 1) == 0) {
      out_flag = std::string("--benchmark_out=") +
                 (*it + sizeof(kJsonOut) - 1);
      format_flag = "--benchmark_out_format=json";
      args.erase(it);
      break;
    }
  }
  if (!out_flag.empty()) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
