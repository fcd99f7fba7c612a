// Ablation experiments for the design choices DESIGN.md calls out, beyond
// the paper's own figures:
//  A. R-tree construction: Ang–Tan linear split (the paper's choice) vs
//     Guttman quadratic split vs STR bulk loading — node counts and
//     disk-query I/O on the same data (their build time is wall-clock:
//     BM_RTreeBuild in bench_micro_components).
//  B. Termination heuristic: the paper's Eq. 4 vs eta-only vs the
//     LoD-aware cost model — retrieved triangles and I/O per query.
//  C. Delta search & prefetching: frame-time average/variance/worst with
//     both off, delta only, and delta + prefetch.
//  E. Async prefetch pipeline (docs/prefetch.md): per-frame billed pages
//     and simulated frame time with the pipeline off vs on, per storage
//     scheme, plus the pipeline's issued/used/wasted accounting.

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "rtree/rtree.h"
#include "walkthrough/frame_loop.h"
#include "walkthrough/lodr_system.h"
#include "walkthrough/review_system.h"
#include "walkthrough/visual_system.h"

namespace hdov::bench {
namespace {

void AblationSplitStrategies(const Testbed& bed, TelemetryScope* telemetry) {
  std::printf("--- A. R-tree construction strategies ---\n");
  SeriesTable table(telemetry->report(), "ablation.rtree_construction",
                    "strategy", 22,
                    {SeriesTable::Col{"nodes", 8, 0},
                     SeriesTable::Col{"query I/O pages", 16, 2}});

  std::vector<std::pair<Aabb, uint64_t>> entries;
  for (const Object& obj : bed.scene.objects()) {
    entries.emplace_back(obj.mbr, obj.id);
  }
  std::vector<Vec3> probes = RandomViewpoints(bed.scene.bounds(), 200, 5);

  auto evaluate = [&](const char* name, const RTree& tree) {
    PageDevice device;
    Result<PackedRTree> packed = PackedRTree::Pack(tree, &device);
    if (!packed.ok()) {
      return;
    }
    device.ResetStats();
    std::vector<uint64_t> ids;
    for (const Vec3& p : probes) {
      Aabb window(Vec3(p.x - 200, p.y - 200, bed.scene.bounds().min.z),
                  Vec3(p.x + 200, p.y + 200, bed.scene.bounds().max.z));
      (void)packed->WindowQuery(window, &ids);
    }
    table.Row(name, {static_cast<double>(tree.num_nodes()),
                     static_cast<double>(device.stats().page_reads) /
                         probes.size()});
  };

  auto insert_build = [&](const char* name, SplitAlgorithm split) {
    RTreeOptions opt;
    opt.max_entries = 16;
    opt.min_entries = 6;
    opt.split = split;
    RTree tree(opt);
    for (const auto& [mbr, id] : entries) {
      (void)tree.Insert(mbr, id);
    }
    evaluate(name, tree);
  };
  insert_build("insert + Ang-Tan", SplitAlgorithm::kAngTanLinear);
  insert_build("insert + quadratic", SplitAlgorithm::kQuadratic);
  {
    RTreeOptions opt;
    opt.max_entries = 16;
    opt.min_entries = 6;
    Result<RTree> tree = RTree::BulkLoad(entries, opt);
    if (tree.ok()) {
      evaluate("STR bulk load", *tree);
    }
  }
  std::printf("\n");
}

void AblationTerminationHeuristics(const Testbed& bed,
                                   TelemetryScope* telemetry) {
  std::printf("--- B. termination heuristics (per query, eta sweep) ---\n");
  SeriesTable table(telemetry->report(), "ablation.termination", "eta", 8,
                    {SeriesTable::Col{"Eq.4 tris", 12, 0},
                     SeriesTable::Col{"Eq.4 IO", 9, 2},
                     SeriesTable::Col{"eta-only tris", 13, 0},
                     SeriesTable::Col{"eta-only IO", 11, 2},
                     SeriesTable::Col{"cost tris", 12, 0},
                     SeriesTable::Col{"cost IO", 9, 2}});

  std::vector<Vec3> probes = RandomViewpoints(bed.scene.bounds(), 500, 11);
  VisualOptions vopt = DefaultVisualOptions();
  vopt.prefetch = prefetch::PrefetchMode::kOff;
  Result<std::unique_ptr<VisualSystem>> visual =
      MakeVisualSystem(bed, vopt);
  if (!visual.ok()) {
    return;
  }
  telemetry->Attach(visual->get(), "ablation.termination");
  for (double eta : {0.001, 0.004, 0.016}) {
    std::vector<double> values;
    for (TerminationHeuristic heuristic :
         {TerminationHeuristic::kEq4, TerminationHeuristic::kNone,
          TerminationHeuristic::kCostModel}) {
      (*visual)->set_eta(eta);
      (*visual)->ResetIoStats();
      uint64_t triangles = 0;
      std::vector<RetrievedLod> result;
      for (const Vec3& p : probes) {
        (void)(*visual)->QueryWithHeuristic(p, heuristic, &result);
        for (const RetrievedLod& lod : result) {
          triangles += lod.triangle_count;
        }
      }
      values.push_back(static_cast<double>(triangles) / probes.size());
      values.push_back(
          static_cast<double>((*visual)->TotalIoStats().page_reads) /
          probes.size());
    }
    char label[32];
    std::snprintf(label, sizeof(label), "%.4f", eta);
    table.Row(label, {values[0], values[1], values[2], values[3], values[4],
                      values[5]});
  }
  std::printf("\n");
}

void AblationDeltaAndPrefetch(const Testbed& bed,
                              TelemetryScope* telemetry) {
  std::printf("--- C. delta search and prefetching ---\n");
  SeriesTable table(telemetry->report(), "ablation.delta_prefetch",
                    "configuration", 24,
                    {SeriesTable::Col{"avg (ms)", 12, 2},
                     SeriesTable::Col{"variance", 12, 2},
                     SeriesTable::Col{"worst (ms)", 12, 2}});
  Session session = RecordSession(MotionPattern::kNormalWalk,
                                  bed.scene.bounds(), SessionOptions{
                                      .num_frames = 400,
                                  });
  struct Config {
    const char* name;
    bool delta;
    size_t prefetch;  // Sync prefetch budget per idle frame; 0 = off.
  };
  for (const Config& config :
       {Config{"no delta, no prefetch", false, 0},
        Config{"delta only", true, 0},
        Config{"delta + prefetch", true, 2}}) {
    VisualOptions vopt = DefaultVisualOptions();
    vopt.prefetch = config.prefetch > 0 ? prefetch::PrefetchMode::kSync
                                        : prefetch::PrefetchMode::kOff;
    vopt.prefetch_models_per_frame = config.prefetch;
    Result<std::unique_ptr<VisualSystem>> visual =
        MakeVisualSystem(bed, vopt);
    if (!visual.ok()) {
      return;
    }
    // Loop-scoped system: its registry views vanish with it, but the frame
    // records it emits stay in the snapshot.
    telemetry->Attach(visual->get(),
                      std::string("ablation.prefetch_") +
                          std::to_string(config.prefetch) +
                          (config.delta ? ".delta" : ".nodelta"));
    (*visual)->set_delta_enabled(config.delta);
    PlayOptions popt;
    popt.keep_frames = true;
    Result<SessionSummary> summary =
        PlaySession(visual->get(), session, popt);
    if (!summary.ok()) {
      return;
    }
    double worst = 0.0;
    for (size_t i = 1; i < summary->frames.size(); ++i) {
      worst = std::max(worst, summary->frames[i].frame_time_ms);
    }
    table.Row(config.name,
              {summary->avg_frame_time_ms, summary->var_frame_time, worst});
  }
  std::printf("\n");
}

void AblationPrefetchPipeline(const Testbed& bed, TelemetryScope* telemetry) {
  std::printf("--- E. async prefetch pipeline (per frame, by scheme) ---\n");
  std::printf("Frames consume pages the end-of-frame speculation already"
              " staged; 'stall pages'\nis what the frame still bills"
              " (simulated, deterministic).\n\n");
  SeriesTable table(telemetry->report(), "ablation.prefetch_pipeline",
                    "scheme/prefetch", 26,
                    {SeriesTable::Col{"stall pages", 12, 3},
                     SeriesTable::Col{"sim ms", 10, 3},
                     SeriesTable::Col{"issued", 9, 0},
                     SeriesTable::Col{"used", 9, 0},
                     SeriesTable::Col{"wasted", 9, 3}});
  Session session = RecordSession(MotionPattern::kNormalWalk,
                                  bed.scene.bounds(), SessionOptions{
                                      .num_frames = 400,
                                  });
  for (StorageScheme scheme :
       {StorageScheme::kVertical, StorageScheme::kIndexedVertical,
        StorageScheme::kBitmapVertical}) {
    for (prefetch::PrefetchMode mode :
         {prefetch::PrefetchMode::kOff, prefetch::PrefetchMode::kAsync}) {
      VisualOptions vopt = DefaultVisualOptions();
      vopt.scheme = scheme;
      vopt.prefetch = mode;
      Result<std::unique_ptr<VisualSystem>> visual =
          MakeVisualSystem(bed, vopt);
      if (!visual.ok()) {
        return;
      }
      telemetry->Attach(visual->get(),
                        std::string("ablation.pipeline.") +
                            StorageSchemeName(scheme) + "." +
                            prefetch::PrefetchModeName(mode));
      Result<SessionSummary> summary = PlaySession(visual->get(), session);
      if (!summary.ok()) {
        return;
      }
      prefetch::PrefetcherStats pstats;
      if ((*visual)->prefetcher() != nullptr) {
        pstats = (*visual)->prefetcher()->stats();
      }
      table.Row(std::string(StorageSchemeName(scheme)) + "/" +
                    prefetch::PrefetchModeName(mode),
                {summary->avg_io_pages, summary->avg_frame_time_ms,
                 static_cast<double>(pstats.issued_pages),
                 static_cast<double>(pstats.used_pages),
                 pstats.WastedRatio()});
    }
  }
  std::printf("\n");
}

void AblationBaselinePanel(const Testbed& bed, TelemetryScope* telemetry) {
  std::printf("--- D. three-baseline panel (per session) ---\n");
  std::printf("LoD-R-tree is the related-work baseline the paper critiques"
              " in section 2:\nfast while the view holds steady, degrading"
              " on view changes.\n\n");
  SeriesTable table(telemetry->report(), "ablation.panel",
                    "session/system", 30,
                    {SeriesTable::Col{"avg ms", 10, 2},
                     SeriesTable::Col{"avg I/O", 12, 2}});

  VisualOptions vopt = DefaultVisualOptions();
  vopt.eta = 0.001;
  Result<std::unique_ptr<VisualSystem>> visual =
      MakeVisualSystem(bed, vopt);
  ReviewOptions ropt;
  ropt.query_box_size = 400.0;
  ropt.cache_distance = 600.0;
  Result<std::unique_ptr<ReviewSystem>> review =
      ReviewSystem::Create(&bed.scene, ropt);
  LodRTreeOptions lopt;
  lopt.frustum.far_dist = 400.0;
  lopt.rtree.max_entries = 16;
  lopt.rtree.min_entries = 6;
  Result<std::unique_ptr<LodRTreeSystem>> lodr =
      LodRTreeSystem::Create(&bed.scene, lopt);
  if (!visual.ok() || !review.ok() || !lodr.ok()) {
    return;
  }
  telemetry->Attach(visual->get(), "ablation.panel.visual");
  telemetry->Attach(review->get(), "ablation.panel.review");
  telemetry->Attach(lodr->get(), "ablation.panel.lodr");

  SessionOptions sopt;
  sopt.num_frames = 300;
  for (MotionPattern pattern :
       {MotionPattern::kNormalWalk, MotionPattern::kTurnLeftRight}) {
    Session session = RecordSession(pattern, bed.scene.bounds(), sopt);
    for (WalkthroughSystem* system :
         {static_cast<WalkthroughSystem*>(visual->get()),
          static_cast<WalkthroughSystem*>(review->get()),
          static_cast<WalkthroughSystem*>(lodr->get())}) {
      Result<SessionSummary> summary = PlaySession(system, session);
      if (!summary.ok()) {
        return;
      }
      table.Row(session.name + "/" + system->name(),
                {summary->avg_frame_time_ms, summary->avg_io_pages});
    }
  }
}

int Run(const BenchArgs& args) {
  TelemetryScope telemetry(args, "bench_ablations");
  telemetry.Header("Ablations: construction, termination, delta/prefetch",
                   "design-choice ablations (beyond the paper's figures)");
  Testbed bed = BuildTestbedOrDie(DefaultTestbedOptions());
  PrintTestbedSummary(bed);
  AblationSplitStrategies(bed, &telemetry);
  AblationTerminationHeuristics(bed, &telemetry);
  AblationDeltaAndPrefetch(bed, &telemetry);
  AblationPrefetchPipeline(bed, &telemetry);
  AblationBaselinePanel(bed, &telemetry);
  return telemetry.Write() ? 0 : 1;
}

}  // namespace
}  // namespace hdov::bench

int main(int argc, char** argv) {
  return hdov::bench::Run(hdov::bench::ParseBenchArgs(argc, argv));
}
