#include "world.h"

#include "hdov/builder.h"
#include "persist/snapshot.h"
#include "scene/city_generator.h"
#include "storage/model_store.h"
#include "testbed/testbed_glue.h"

namespace perfbench {

hdov::TestbedOptions WorldOptions(uint32_t threads) {
  hdov::TestbedOptions opt;
  hdov::testbed::ApplyLargeScalePreset(&opt);
  opt.threads = threads;
  return opt;
}

hdov::VisualOptions BaseVisualOptions(uint32_t threads) {
  hdov::VisualOptions opt;
  opt.build.rtree.max_entries = 8;
  opt.build.rtree.min_entries = 3;
  opt.build_threads = threads;
  opt.prefetch = hdov::prefetch::PrefetchMode::kOff;
  return opt;
}

hdov::Result<hdov::Testbed> BuildWorld(const hdov::TestbedOptions& options,
                                       SpanLog* spans, int parent,
                                       bool visibility) {
  hdov::CityOptions copt;
  copt.mode = hdov::GeometryMode::kProxy;
  copt.blocks_x = options.blocks;
  copt.blocks_y = options.blocks;
  copt.seed = options.seed;
  hdov::Result<hdov::Scene> scene = [&] {
    ScopedSpan span(spans, "scene.generate", parent);
    return hdov::GenerateCity(copt);
  }();
  HDOV_RETURN_IF_ERROR(scene.status());

  hdov::CellGridOptions gopt;
  gopt.cells_x = options.cells;
  gopt.cells_y = options.cells;
  hdov::Result<hdov::CellGrid> grid = [&] {
    ScopedSpan span(spans, "scene.grid", parent);
    return hdov::CellGrid::Build(scene->bounds(), gopt);
  }();
  HDOV_RETURN_IF_ERROR(grid.status());
  if (!visibility) {
    return hdov::Testbed{std::move(*scene), std::move(*grid), {}};
  }

  hdov::PrecomputeOptions popt;
  popt.dov.cubemap.face_resolution = options.face_resolution;
  popt.samples_per_cell = options.samples_per_cell;
  popt.threads = options.threads;
  hdov::Result<hdov::VisibilityTable> table = [&] {
    ScopedSpan span(spans, "visibility.precompute", parent);
    return hdov::PrecomputeVisibility(*scene, *grid, popt);
  }();
  HDOV_RETURN_IF_ERROR(table.status());
  return hdov::Testbed{std::move(*scene), std::move(*grid),
                       std::move(*table)};
}

hdov::Status WriteSnapshot(const std::string& path, const hdov::Testbed& bed,
                           const hdov::VisualOptions& options,
                           hdov::PersistStats* stats, SpanLog* spans,
                           int parent) {
  ScopedSpan span(spans, "persist.snapshot_write", parent);
  HDOV_ASSIGN_OR_RETURN(
      std::unique_ptr<hdov::SnapshotWriter> writer,
      hdov::SnapshotWriter::Create(path, options.disk.page_size, stats));
  HDOV_RETURN_IF_ERROR(hdov::WriteWorldSnapshot(writer.get(), bed, options));
  return writer->Commit();
}

hdov::Status TimeTreeAndStoreBuild(const hdov::Testbed& bed,
                                   const hdov::VisualOptions& options,
                                   SpanLog* spans, int parent,
                                   double* tree_ms, double* store_ms) {
  hdov::SimClock clock;
  hdov::PageDevice tree_device(options.disk, &clock);
  hdov::PageDevice model_device(options.disk, &clock);
  hdov::PageDevice store_device(options.disk, &clock);
  hdov::ModelStore models(&model_device);
  const int tree_span = spans->Open("hdov.tree_build", parent);
  HDOV_ASSIGN_OR_RETURN(
      hdov::HdovTree tree,
      hdov::HdovBuilder::Build(bed.scene, &models, options.build));
  HDOV_RETURN_IF_ERROR(tree.Pack(&tree_device));
  spans->Close(tree_span);
  const int store_span = spans->Open("hdov.store_build", parent);
  HDOV_ASSIGN_OR_RETURN(std::unique_ptr<hdov::VisibilityStore> store,
                        hdov::BuildStore(options.scheme, tree, bed.table,
                                         &store_device,
                                         options.build_threads));
  spans->Close(store_span);
  *tree_ms = spans->DurationMs(tree_span);
  *store_ms = spans->DurationMs(store_span);
  return hdov::Status::OK();
}

}  // namespace perfbench
