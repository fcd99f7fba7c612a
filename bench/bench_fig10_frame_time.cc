// Figure 10 reproduction: per-frame rendering time over a recorded
// walkthrough session.
//  (a) VISUAL (eta = 0.001) vs REVIEW (400 m query boxes): REVIEW is both
//      slower on average and "choppier" (tall spikes when spatial queries
//      fire).
//  (b) VISUAL at eta = 0.001 vs eta = 0.0003: the larger threshold is
//      faster (coarser representations) at little fidelity cost.

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "walkthrough/frame_loop.h"
#include "walkthrough/review_system.h"
#include "walkthrough/visual_system.h"

namespace hdov::bench {
namespace {

Result<SessionSummary> Play(WalkthroughSystem* system,
                            const Session& session) {
  PlayOptions popt;
  popt.keep_frames = true;
  return PlaySession(system, session, popt);
}

void PrintSeries(SeriesTable* table, const char* label,
                 const SessionSummary& summary, size_t stride) {
  const auto spikes = static_cast<size_t>(std::count_if(
      summary.frames.begin(), summary.frames.end(),
      [&](const FrameResult& f) {
        return f.frame_time_ms > 2.0 * summary.avg_frame_time_ms;
      }));
  table->Row(label, {summary.avg_frame_time_ms, summary.var_frame_time,
                     static_cast<double>(spikes)});
  std::printf("  frame series (every %zuth frame, ms):", stride);
  for (size_t i = 0; i < summary.frames.size(); i += stride) {
    std::printf(" %.1f", summary.frames[i].frame_time_ms);
  }
  std::printf("\n\n");
}

int Run(const BenchArgs& args) {
  TelemetryScope telemetry(args, "bench_fig10_frame_time");
  telemetry.Header("Figure 10: frame time during an interactive walkthrough",
                   "Figures 10(a,b)");
  Testbed bed = BuildTestbedOrDie(DefaultTestbedOptions());
  PrintTestbedSummary(bed);

  SessionOptions sopt;
  sopt.num_frames = LargeScale() ? 1500 : 500;
  Session session =
      RecordSession(MotionPattern::kNormalWalk, bed.scene.bounds(), sopt);

  VisualOptions v1 = DefaultVisualOptions();
  v1.eta = 0.001;
  Result<std::unique_ptr<VisualSystem>> visual_1 =
      MakeVisualSystem(bed, v1);
  VisualOptions v2 = DefaultVisualOptions();
  v2.eta = 0.0003;
  Result<std::unique_ptr<VisualSystem>> visual_2 =
      MakeVisualSystem(bed, v2);
  ReviewOptions ropt;
  ropt.query_box_size = 400.0;
  ropt.cache_distance = 600.0;
  Result<std::unique_ptr<ReviewSystem>> review =
      ReviewSystem::Create(&bed.scene, ropt);
  if (!visual_1.ok() || !visual_2.ok() || !review.ok()) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }
  telemetry.Attach(visual_1->get(), "visual.eta_0.001");
  telemetry.Attach(visual_2->get(), "visual.eta_0.0003");
  telemetry.Attach(review->get(), "review");

  Result<SessionSummary> s_visual_1 = Play(visual_1->get(), session);
  Result<SessionSummary> s_visual_2 = Play(visual_2->get(), session);
  Result<SessionSummary> s_review = Play(review->get(), session);
  if (!s_visual_1.ok() || !s_visual_2.ok() || !s_review.ok()) {
    std::fprintf(stderr, "playback failed\n");
    return 1;
  }

  const size_t stride = std::max<size_t>(1, session.frames.size() / 40);
  SeriesTable table(telemetry.report(), "fig10.frame_stats", "config", 18,
                    {SeriesTable::Col{"avg(ms)", 10, 2},
                     SeriesTable::Col{"variance", 10, 2},
                     SeriesTable::Col{"spikes>2x", 10, 0}});
  std::printf("--- Figure 10(a): VISUAL(eta=0.001) vs REVIEW(400m) ---\n");
  PrintSeries(&table, "VISUAL eta=0.001", *s_visual_1, stride);
  PrintSeries(&table, "REVIEW box=400m", *s_review, stride);

  std::printf("--- Figure 10(b): VISUAL eta=0.001 vs eta=0.0003 ---\n");
  PrintSeries(&table, "VISUAL eta=0.0003", *s_visual_2, stride);

  std::printf("shape checks: VISUAL avg < REVIEW avg (%s); VISUAL variance"
              " < REVIEW variance (%s);\n"
              "eta=0.001 at least as fast as eta=0.0003 (%s, paper: up to"
              " ~20%% faster)\n",
              s_visual_1->avg_frame_time_ms < s_review->avg_frame_time_ms
                  ? "yes" : "NO",
              s_visual_1->var_frame_time < s_review->var_frame_time
                  ? "yes" : "NO",
              s_visual_1->avg_frame_time_ms <=
                      s_visual_2->avg_frame_time_ms + 1e-9
                  ? "yes" : "NO");
  return telemetry.Write() ? 0 : 1;
}

}  // namespace
}  // namespace hdov::bench

int main(int argc, char** argv) {
  return hdov::bench::Run(hdov::bench::ParseBenchArgs(argc, argv));
}
