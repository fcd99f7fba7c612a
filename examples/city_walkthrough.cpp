// City walkthrough: plays a recorded walking session through a synthetic
// city on both walkthrough systems — VISUAL (HDoV-tree, this paper) and
// REVIEW (R-tree spatial window queries, the VLDB'01 baseline) — and
// prints per-system frame statistics plus a live excerpt of the walk.
//
// Build & run:  ./build/examples/city_walkthrough

#include <cstdio>

#include "scene/city_generator.h"
#include "scene/session.h"
#include "visibility/precompute.h"
#include "walkthrough/frame_loop.h"
#include "walkthrough/review_system.h"
#include "walkthrough/visual_system.h"

using namespace hdov;  // Example code; library code never does this.

int main() {
  CityOptions city_options;
  city_options.blocks_x = 10;
  city_options.blocks_y = 10;
  Result<Scene> scene = GenerateCity(city_options);
  if (!scene.ok()) {
    std::fprintf(stderr, "%s\n", scene.status().ToString().c_str());
    return 1;
  }

  CellGridOptions grid_options;
  grid_options.cells_x = 10;
  grid_options.cells_y = 10;
  Result<CellGrid> grid = CellGrid::Build(scene->bounds(), grid_options);
  PrecomputeOptions precompute_options;
  precompute_options.dov.cubemap.face_resolution = 32;
  Result<VisibilityTable> table =
      PrecomputeVisibility(*scene, *grid, precompute_options);
  if (!grid.ok() || !table.ok()) {
    std::fprintf(stderr, "precompute failed\n");
    return 1;
  }
  std::printf("city: %s\n\n", scene->Summary().c_str());

  VisualOptions visual_options;
  visual_options.eta = 0.001;
  visual_options.build.rtree.max_entries = 8;
  visual_options.build.rtree.min_entries = 3;
  visual_options.prefetch = prefetch::PrefetchMode::kSync;
  visual_options.prefetch_models_per_frame = 2;
  Result<std::unique_ptr<VisualSystem>> visual =
      VisualSystem::Create(&*scene, &*grid, &*table, visual_options);

  ReviewOptions review_options;
  review_options.query_box_size = 400.0;
  review_options.cache_distance = 600.0;
  Result<std::unique_ptr<ReviewSystem>> review =
      ReviewSystem::Create(&*scene, review_options);
  if (!visual.ok() || !review.ok()) {
    std::fprintf(stderr, "system setup failed\n");
    return 1;
  }

  SessionOptions session_options;
  session_options.num_frames = 300;
  Session session = RecordSession(MotionPattern::kNormalWalk,
                                  scene->bounds(), session_options);

  // Narrated excerpt: walk the first 10 frames on VISUAL.
  std::printf("-- first frames on VISUAL (eta = %.3f) --\n",
              visual_options.eta);
  for (size_t i = 0; i < 10; ++i) {
    FrameResult frame;
    if (Status s = (*visual)->RenderFrame(session.frames[i], &frame);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf(
        "frame %2zu @ (%6.1f, %6.1f): %5.1f ms | %3zu fetched | %5llu tris |"
        " %4.1f MB resident\n",
        i, session.frames[i].position.x, session.frames[i].position.y,
        frame.frame_time_ms, frame.models_fetched,
        static_cast<unsigned long long>(frame.rendered_triangles),
        static_cast<double>(frame.resident_bytes) / (1024 * 1024));
  }
  (*visual)->ResetRuntime();
  (*visual)->ResetIoStats();

  // Full-session comparison.
  std::printf("\n-- full %zu-frame session --\n", session.frames.size());
  for (WalkthroughSystem* system :
       {static_cast<WalkthroughSystem*>(visual->get()),
        static_cast<WalkthroughSystem*>(review->get())}) {
    Result<SessionSummary> summary = PlaySession(system, session);
    if (!summary.ok()) {
      std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "%-7s avg frame %6.2f ms | variance %7.2f | avg query %6.2f ms |"
        " avg I/O %6.2f pages | peak mem %5.1f MB\n",
        system->name().c_str(), summary->avg_frame_time_ms,
        summary->var_frame_time, summary->avg_query_time_ms,
        summary->avg_io_pages,
        static_cast<double>(summary->max_resident_bytes) / (1024 * 1024));
  }
  std::printf(
      "\nVISUAL walks the same path with lower, steadier frame times and a\n"
      "fraction of the memory: it fetches only what is actually visible,\n"
      "at the detail its visibility warrants.\n");
  return 0;
}
