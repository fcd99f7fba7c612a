// Figure 7 reproduction: average visibility-query search time (simulated
// disk time, model loading included) as the DoV threshold eta varies, for
// the three HDoV storage schemes and the naive (cell, list-of-objects)
// method. Expected shape: all HDoV curves fall steeply as eta grows;
// eta = 0 costs about the same as naive; horizontal is the slowest scheme
// (scattered V-pages = extra seeks); indexed-vertical is marginally
// cheaper than vertical (lighter cell flips).

#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "walkthrough/naive_system.h"
#include "walkthrough/visual_system.h"

namespace hdov::bench {
namespace {

int Run(const BenchArgs& args) {
  TelemetryScope telemetry(args, "bench_fig7_search_time");
  telemetry.Header("Figure 7: search time vs DoV threshold (eta)",
                   "Figure 7");
  Testbed bed = BuildTestbedOrDie(DefaultTestbedOptions());
  PrintTestbedSummary(bed);

  const size_t kQueries = LargeScale() ? 10000 : 2000;
  std::vector<Vec3> viewpoints =
      RandomViewpoints(bed.scene.bounds(), kQueries, 99);

  const StorageScheme schemes[3] = {StorageScheme::kHorizontal,
                                    StorageScheme::kVertical,
                                    StorageScheme::kIndexedVertical};
  std::unique_ptr<VisualSystem> systems[3];
  for (int s = 0; s < 3; ++s) {
    VisualOptions vopt = DefaultVisualOptions();
    vopt.scheme = schemes[s];
    Result<std::unique_ptr<VisualSystem>> system =
        MakeVisualSystem(bed, vopt);
    if (!system.ok()) {
      std::fprintf(stderr, "%s\n", system.status().ToString().c_str());
      return 1;
    }
    systems[s] = std::move(*system);
    telemetry.Attach(systems[s].get(),
                     "visual." + StorageSchemeName(schemes[s]));
  }
  Result<std::unique_ptr<NaiveSystem>> naive =
      NaiveSystem::Create(&bed.scene, &bed.grid, &bed.table, NaiveOptions());
  if (!naive.ok()) {
    std::fprintf(stderr, "%s\n", naive.status().ToString().c_str());
    return 1;
  }
  (*naive)->set_delta_enabled(false);
  telemetry.Attach(naive->get(), "naive");

  // Naive baseline: eta-independent.
  double naive_ms = 0.0;
  {
    (*naive)->ResetIoStats();
    std::vector<RetrievedLod> result;
    for (const Vec3& p : viewpoints) {
      if (Status s = (*naive)->Query(p, /*fetch_models=*/true, &result);
          !s.ok()) {
        std::fprintf(stderr, "naive: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    naive_ms = (*naive)->clock().NowMillis() / viewpoints.size();
  }

  const double etas[] = {0.0,   0.0005, 0.001, 0.002,
                         0.003, 0.004,  0.006, 0.008};
  std::printf("avg search time per query (simulated ms), %zu queries\n\n",
              viewpoints.size());
  SeriesTable table(telemetry.report(), "fig7.search_time", "eta", 8,
                    {SeriesTable::Col{"horizontal", 12, 3},
                     SeriesTable::Col{"vertical", 12, 3},
                     SeriesTable::Col{"indexed-vertical", 16, 3},
                     SeriesTable::Col{"naive", 12, 3}});
  char label[32];
  for (double eta : etas) {
    double ms[3] = {0, 0, 0};
    for (int s = 0; s < 3; ++s) {
      systems[s]->set_eta(eta);
      systems[s]->ResetIoStats();
      std::vector<RetrievedLod> result;
      for (const Vec3& p : viewpoints) {
        if (Status st =
                systems[s]->Query(p, /*fetch_models=*/true, &result, nullptr);
            !st.ok()) {
          std::fprintf(stderr, "query: %s\n", st.ToString().c_str());
          return 1;
        }
      }
      ms[s] = systems[s]->clock().NowMillis() / viewpoints.size();
    }
    std::snprintf(label, sizeof(label), "%.4f", eta);
    table.Row(label, {ms[0], ms[1], ms[2], naive_ms});
  }
  std::printf("\nshape checks: curves fall with eta; horizontal slowest;\n"
              "indexed-vertical <= vertical; eta=0 ~ naive.\n");
  return telemetry.Write() ? 0 : 1;
}

}  // namespace
}  // namespace hdov::bench

int main(int argc, char** argv) {
  return hdov::bench::Run(hdov::bench::ParseBenchArgs(argc, argv));
}
