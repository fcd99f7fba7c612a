#include "walkthrough/experiment_testbed.h"

#include <string>

#include "hdov/builder.h"
#include "persist/world_codec.h"
#include "scene/city_generator.h"
#include "storage/model_store.h"

namespace hdov {

Result<Testbed> BuildTestbed(const TestbedOptions& options) {
  CityOptions copt;
  copt.mode = GeometryMode::kProxy;
  copt.blocks_x = options.blocks;
  copt.blocks_y = options.blocks;
  copt.seed = options.seed;
  HDOV_ASSIGN_OR_RETURN(Scene scene, GenerateCity(copt));

  CellGridOptions gopt;
  gopt.cells_x = options.cells;
  gopt.cells_y = options.cells;
  HDOV_ASSIGN_OR_RETURN(CellGrid grid, CellGrid::Build(scene.bounds(), gopt));

  PrecomputeOptions popt;
  popt.dov.cubemap.face_resolution = options.face_resolution;
  popt.samples_per_cell = options.samples_per_cell;
  popt.threads = options.threads;
  HDOV_ASSIGN_OR_RETURN(VisibilityTable table,
                        PrecomputeVisibility(scene, grid, popt));
  return Testbed{std::move(scene), std::move(grid), std::move(table)};
}

VisualOptions DefaultVisualOptions(uint32_t build_threads) {
  VisualOptions opt;
  opt.build.rtree.max_entries = 8;
  opt.build.rtree.min_entries = 3;
  opt.prefetch = prefetch::PrefetchMode::kSync;  // Smooths cell flips.
  opt.build_threads = build_threads;
  return opt;
}

Status WriteWorldSections(SnapshotWriter* writer, const Testbed& bed) {
  std::string bytes;
  EncodeScene(bed.scene, &bytes);
  HDOV_RETURN_IF_ERROR(writer->AddBlob(kSectionScene, bytes));
  bytes.clear();
  EncodeCellGridOptions(bed.grid.options(), &bytes);
  HDOV_RETURN_IF_ERROR(writer->AddBlob(kSectionCellGrid, bytes));
  bytes.clear();
  EncodeVisibilityTable(bed.table, &bytes);
  return writer->AddBlob(kSectionVisTable, bytes);
}

Result<Testbed> LoadWorldSections(const SnapshotLoader& snapshot) {
  HDOV_ASSIGN_OR_RETURN(std::string scene_bytes,
                        snapshot.ReadBlob(kSectionScene));
  HDOV_ASSIGN_OR_RETURN(Scene scene, DecodeScene(scene_bytes));
  HDOV_ASSIGN_OR_RETURN(std::string grid_bytes,
                        snapshot.ReadBlob(kSectionCellGrid));
  HDOV_ASSIGN_OR_RETURN(CellGridOptions gopt,
                        DecodeCellGridOptions(grid_bytes));
  HDOV_ASSIGN_OR_RETURN(CellGrid grid, CellGrid::Build(scene.bounds(), gopt));
  HDOV_ASSIGN_OR_RETURN(std::string table_bytes,
                        snapshot.ReadBlob(kSectionVisTable));
  HDOV_ASSIGN_OR_RETURN(VisibilityTable table,
                        DecodeVisibilityTable(table_bytes));
  if (table.num_cells() != grid.num_cells()) {
    return Status::Corruption(
        "testbed: snapshot visibility table disagrees with the cell grid");
  }
  return Testbed{std::move(scene), std::move(grid), std::move(table)};
}

Status WriteWorldSnapshot(SnapshotWriter* writer, const Testbed& bed,
                          const VisualOptions& options) {
  HDOV_RETURN_IF_ERROR(WriteWorldSections(writer, bed));

  // The tree and the model registry are scheme-independent: build them
  // once on their own devices, then derive each storage scheme against the
  // same tree.
  SimClock clock;
  PageDevice tree_device(options.disk, &clock);
  PageDevice model_device(options.disk, &clock);
  ModelStore models(&model_device);
  HDOV_ASSIGN_OR_RETURN(HdovTree tree,
                        HdovBuilder::Build(bed.scene, &models, options.build));
  HDOV_RETURN_IF_ERROR(tree.Pack(&tree_device));
  std::string manifest;
  HDOV_RETURN_IF_ERROR(tree.EncodeManifest(&manifest));
  HDOV_RETURN_IF_ERROR(writer->AddBlob(kSectionTreeManifest, manifest));
  HDOV_RETURN_IF_ERROR(writer->AddDevice(kSectionTreeDevice, tree_device));
  std::string model_meta;
  models.EncodeMeta(&model_meta);
  HDOV_RETURN_IF_ERROR(writer->AddBlob(kSectionModelMeta, model_meta));
  HDOV_RETURN_IF_ERROR(writer->AddDevice(kSectionModelDevice, model_device));

  constexpr StorageScheme kSchemes[] = {
      StorageScheme::kHorizontal, StorageScheme::kVertical,
      StorageScheme::kIndexedVertical, StorageScheme::kBitmapVertical};
  for (StorageScheme scheme : kSchemes) {
    PageDevice store_device(options.disk, &clock);
    HDOV_ASSIGN_OR_RETURN(
        std::unique_ptr<VisibilityStore> store,
        BuildStore(scheme, tree, bed.table, &store_device,
                   options.build_threads));
    std::string meta;
    store->EncodeMeta(&meta);
    const std::string name = StorageSchemeName(scheme);
    HDOV_RETURN_IF_ERROR(writer->AddBlob(StoreMetaSection(name), meta));
    HDOV_RETURN_IF_ERROR(
        writer->AddDevice(StoreDeviceSection(name), store_device));
  }
  return Status::OK();
}

}  // namespace hdov
