// Persistence: build a world and its HDoV-tree once, commit them to a
// snapshot file, then reopen the snapshot and query it — the
// offline-precompute / online-walkthrough split the paper's system implies
// (precomputation takes ~1 s per cell; you do it once). The snapshot holds
// the scene, the cell grid, the visibility table, the packed tree, every
// storage scheme and the model metadata (docs/storage.md).
//
// Build & run:  ./build/examples/persistence [db_dir]

#include <cstdio>
#include <string>

#include "persist/snapshot.h"
#include "walkthrough/experiment_testbed.h"
#include "walkthrough/visual_system.h"

using namespace hdov;  // Example code; library code never does this.

namespace {

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path =
      (argc > 1 ? argv[1] : std::string("/tmp")) + "/hdov_city.db";

  {
    // --- offline: generate, precompute, build, commit ---
    TestbedOptions testbed_options;
    testbed_options.blocks = 6;
    testbed_options.cells = 6;
    testbed_options.face_resolution = 32;
    Result<Testbed> bed = BuildTestbed(testbed_options);
    if (!bed.ok()) {
      return Fail("build", bed.status());
    }
    Result<std::unique_ptr<SnapshotWriter>> writer =
        SnapshotWriter::Create(path);
    if (!writer.ok()) {
      return Fail("snapshot", writer.status());
    }
    if (Status s = WriteWorldSnapshot(writer->get(), *bed,
                                      DefaultVisualOptions());
        !s.ok()) {
      return Fail("snapshot", s);
    }
    if (Status s = (*writer)->Commit(); !s.ok()) {
      return Fail("commit", s);
    }
    std::printf("offline build: %s\ncommitted snapshot %s\n\n",
                bed->scene.Summary().c_str(), path.c_str());
  }

  // --- online: reopen and query, pages served from the file ---
  Result<std::unique_ptr<SnapshotLoader>> snapshot = SnapshotLoader::Open(path);
  if (!snapshot.ok()) {
    return Fail("open", snapshot.status());
  }
  Result<Testbed> world = LoadWorldSections(**snapshot);
  if (!world.ok()) {
    return Fail("reload", world.status());
  }
  Result<std::unique_ptr<VisualSystem>> system =
      VisualSystem::CreateFromSnapshot(**snapshot, &world->scene,
                                       &world->grid, DefaultVisualOptions(),
                                       SnapshotLoadMode::kFileBacked);
  if (!system.ok()) {
    return Fail("reload", system.status());
  }
  std::printf("reloaded %zu tree nodes (invariants verified on load)\n",
              (*system)->tree().num_nodes());

  std::vector<RetrievedLod> result;
  const Vec3 eye = world->scene.bounds().Center();
  if (Status s = (*system)->Query(eye, /*fetch_models=*/true, &result,
                                  nullptr);
      !s.ok()) {
    return Fail("query", s);
  }
  std::printf("query from the restored tree: %zu representations, "
              "%llu pages read\n",
              result.size(),
              static_cast<unsigned long long>(
                  (*system)->TotalIoStats().page_reads));
  return 0;
}
