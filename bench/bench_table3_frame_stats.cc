// Table 3 reproduction: average frame time and frame-time variance of
// walkthrough session 1 across the paper's eta values, plus the REVIEW row
// (400 m boxes, the comparable-fidelity setting). Also reports the peak
// model memory of each configuration (paper §5.4: VISUAL 28 MB vs REVIEW
// 62 MB). Expected shape: frame time and variance fall as eta grows;
// REVIEW is far slower and choppier; VISUAL uses much less memory.

#include <cstdio>

#include "bench_util.h"
#include "walkthrough/frame_loop.h"
#include "walkthrough/review_system.h"
#include "walkthrough/visual_system.h"

namespace hdov::bench {
namespace {

int Run(const BenchArgs& args) {
  TelemetryScope telemetry(args, "bench_table3_frame_stats");
  telemetry.Header("Table 3: frame time statistics vs eta", "Table 3");
  Testbed bed = BuildTestbedOrDie(DefaultTestbedOptions());
  PrintTestbedSummary(bed);

  SessionOptions sopt;
  sopt.num_frames = LargeScale() ? 1500 : 500;
  Session session =
      RecordSession(MotionPattern::kNormalWalk, bed.scene.bounds(), sopt);

  VisualOptions vopt = DefaultVisualOptions();
  Result<std::unique_ptr<VisualSystem>> visual =
      MakeVisualSystem(bed, vopt);
  if (!visual.ok()) {
    std::fprintf(stderr, "%s\n", visual.status().ToString().c_str());
    return 1;
  }
  telemetry.Attach(visual->get(), "visual");

  const double etas[] = {0.0,    0.00005, 0.0001, 0.0002, 0.0003,
                         0.0005, 0.001,   0.002,  0.004};
  SeriesTable table(telemetry.report(), "table3.frame_stats", "eta", 10,
                    {SeriesTable::Col{"Avg Frame Time(ms)", 20, 2},
                     SeriesTable::Col{"Variance of Frame Time", 24, 2},
                     SeriesTable::Col{"peak mem(MB)", 14, 2}});
  double last_avg = 0.0;
  for (double eta : etas) {
    (*visual)->set_eta(eta);
    Result<SessionSummary> summary = PlaySession(visual->get(), session);
    if (!summary.ok()) {
      std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
      return 1;
    }
    char label[32];
    std::snprintf(label, sizeof(label), "%.5f", eta);
    table.Row(label, {summary->avg_frame_time_ms, summary->var_frame_time,
                      MB(summary->max_resident_bytes)});
    last_avg = summary->avg_frame_time_ms;
  }

  ReviewOptions ropt;
  ropt.query_box_size = 400.0;
  ropt.cache_distance = 600.0;
  Result<std::unique_ptr<ReviewSystem>> review =
      ReviewSystem::Create(&bed.scene, ropt);
  if (!review.ok()) {
    std::fprintf(stderr, "%s\n", review.status().ToString().c_str());
    return 1;
  }
  telemetry.Attach(review->get(), "review");
  Result<SessionSummary> rev = PlaySession(review->get(), session);
  if (!rev.ok()) {
    return 1;
  }
  table.Row("REVIEW", {rev->avg_frame_time_ms, rev->var_frame_time,
                       MB(rev->max_resident_bytes)});

  std::printf("\nshape checks: frame time and variance decrease with eta;\n"
              "REVIEW is slower than every VISUAL row (%.1fx vs eta=0.004)\n"
              "and needs more model memory (paper: 62 MB vs 28 MB).\n",
              rev->avg_frame_time_ms / last_avg);
  return telemetry.Write() ? 0 : 1;
}

}  // namespace
}  // namespace hdov::bench

int main(int argc, char** argv) {
  return hdov::bench::Run(hdov::bench::ParseBenchArgs(argc, argv));
}
