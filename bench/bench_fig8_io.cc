// Figure 8 reproduction:
//  (a) total disk I/Os per query (tree nodes + V-pages + model data) as
//      eta varies — HDoV always at or below naive, falling with eta;
//  (b) light-weight I/Os (tree nodes + V-pages only) — naive is flat and
//      *cheaper* than HDoV at very small eta (HDoV pays for internal
//      nodes/V-pages), with the curves crossing as eta grows.

#include <cstdio>

#include "bench_util.h"
#include "walkthrough/naive_system.h"
#include "walkthrough/visual_system.h"

namespace hdov::bench {
namespace {

int Run(const BenchArgs& args) {
  TelemetryScope telemetry(args, "bench_fig8_io");
  telemetry.Header("Figure 8: disk I/O vs DoV threshold (eta)",
                   "Figures 8(a,b)");
  Testbed bed = BuildTestbedOrDie(DefaultTestbedOptions());
  PrintTestbedSummary(bed);

  const size_t kQueries = LargeScale() ? 10000 : 2000;
  std::vector<Vec3> viewpoints =
      RandomViewpoints(bed.scene.bounds(), kQueries, 123);

  VisualOptions vopt = DefaultVisualOptions();
  vopt.scheme = StorageScheme::kIndexedVertical;
  Result<std::unique_ptr<VisualSystem>> visual =
      MakeVisualSystem(bed, vopt);
  Result<std::unique_ptr<NaiveSystem>> naive =
      NaiveSystem::Create(&bed.scene, &bed.grid, &bed.table, NaiveOptions());
  if (!visual.ok() || !naive.ok()) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }
  (*naive)->set_delta_enabled(false);
  telemetry.Attach(visual->get(), "visual.indexed-vertical");
  telemetry.Attach(naive->get(), "naive");

  // Naive baseline: light I/O = cell list pages, total adds model pages.
  double naive_light = 0.0;
  double naive_total = 0.0;
  {
    (*naive)->ResetIoStats();
    std::vector<RetrievedLod> result;
    for (const Vec3& p : viewpoints) {
      (void)(*naive)->Query(p, /*fetch_models=*/true, &result);
    }
    naive_light = static_cast<double>((*naive)->list_device().stats()
                                          .page_reads) /
                  viewpoints.size();
    naive_total = static_cast<double>((*naive)->TotalIoStats().page_reads) /
                  viewpoints.size();
  }

  const double etas[] = {0.0,   0.0005, 0.001, 0.002,
                         0.003, 0.004,  0.006, 0.008};
  std::printf("page I/Os per query, %zu queries (indexed-vertical scheme)\n\n",
              viewpoints.size());
  SeriesTable table(telemetry.report(), "fig8.io", "eta", 8,
                    {SeriesTable::Col{"total(hdov)", 12, 2},
                     SeriesTable::Col{"total(naive)", 12, 2},
                     SeriesTable::Col{"light(hdov)", 12, 2},
                     SeriesTable::Col{"light(naive)", 12, 2}});
  char label[32];
  for (double eta : etas) {
    (*visual)->set_eta(eta);
    (*visual)->ResetIoStats();
    std::vector<RetrievedLod> result;
    for (const Vec3& p : viewpoints) {
      if (Status st =
              (*visual)->Query(p, /*fetch_models=*/true, &result, nullptr);
          !st.ok()) {
        std::fprintf(stderr, "query: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    const double light =
        static_cast<double>((*visual)->tree_device().stats().page_reads +
                            (*visual)->store_device().stats().page_reads) /
        viewpoints.size();
    const double total =
        static_cast<double>((*visual)->TotalIoStats().page_reads) /
        viewpoints.size();
    std::snprintf(label, sizeof(label), "%.4f", eta);
    table.Row(label, {total, naive_total, light, naive_light});
  }
  std::printf("\nshape checks: (a) hdov total falls with eta, <= naive for\n"
              "large eta; (b) hdov light I/O starts above naive (internal\n"
              "nodes + V-pages cost extra) and falls as branches terminate\n"
              "at internal LoDs.\n");
  return telemetry.Write() ? 0 : 1;
}

}  // namespace
}  // namespace hdov::bench

int main(int argc, char** argv) {
  return hdov::bench::Run(hdov::bench::ParseBenchArgs(argc, argv));
}
