#include "testbed/testbed_glue.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/rng.h"
#include "persist/snapshot.h"

namespace hdov::testbed {

bool LargeScale() {
  const char* scale = std::getenv("HDOV_BENCH_SCALE");
  return scale != nullptr && std::strcmp(scale, "large") == 0;
}

uint32_t& DefaultThreads() {
  static uint32_t threads = 1;
  return threads;
}

std::string& DefaultDbPath() {
  static std::string path;
  return path;
}

void ApplyLargeScalePreset(TestbedOptions* opt) {
  opt->blocks = 20;
  opt->cells = 24;
  opt->samples_per_cell = 5;
}

TestbedOptions DefaultTestbedOptions() {
  TestbedOptions opt;
  opt.threads = DefaultThreads();
  if (LargeScale()) {
    ApplyLargeScalePreset(&opt);
  }
  return opt;
}

Testbed BuildTestbedOrDie(const TestbedOptions& opt) {
  Result<Testbed> bed = [&]() -> Result<Testbed> {
    if (DefaultDbPath().empty()) {
      return hdov::BuildTestbed(opt);
    }
    HDOV_ASSIGN_OR_RETURN(std::unique_ptr<SnapshotLoader> snapshot,
                          SnapshotLoader::Open(DefaultDbPath()));
    return LoadWorldSections(*snapshot);
  }();
  if (!bed.ok()) {
    std::fprintf(stderr, "testbed: %s\n", bed.status().ToString().c_str());
    std::abort();
  }
  return std::move(*bed);
}

VisualOptions DefaultVisualOptions() {
  return hdov::DefaultVisualOptions(DefaultThreads());
}

Result<std::unique_ptr<VisualSystem>> MakeVisualSystem(
    const Testbed& bed, const VisualOptions& options) {
  if (DefaultDbPath().empty()) {
    return VisualSystem::Create(&bed.scene, &bed.grid, &bed.table, options);
  }
  HDOV_ASSIGN_OR_RETURN(std::unique_ptr<SnapshotLoader> snapshot,
                        SnapshotLoader::Open(DefaultDbPath()));
  return VisualSystem::CreateFromSnapshot(*snapshot, &bed.scene, &bed.grid,
                                          options);
}

std::vector<Vec3> RandomViewpoints(const Aabb& bounds, size_t count,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> points;
  points.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    points.emplace_back(rng.Uniform(bounds.min.x, bounds.max.x),
                        rng.Uniform(bounds.min.y, bounds.max.y), 1.7);
  }
  return points;
}

void PrintTestbedSummary(const Testbed& bed) {
  std::printf("testbed: %s | %u cells | avg %.1f visible objects/cell\n\n",
              bed.scene.Summary().c_str(), bed.grid.num_cells(),
              bed.table.AverageVisibleObjects());
}

double MB(uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace hdov::testbed
