#include "hdov/builder.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "hdov/horizontal_store.h"
#include "hdov/vertical_store.h"

namespace hdov {

namespace {

// Recursively copies the R-tree topology into the HDoV arena in preorder,
// assigning dense node ids. Returns (hdov node index, leaf descendants,
// finest triangles under the node).
struct ConvertResult {
  size_t index;
  uint32_t leaf_descendants;
  uint64_t subtree_triangles;
};

ConvertResult ConvertNode(const RTree& rtree, size_t rnode_index,
                          const Scene& scene, std::vector<HdovNode>* nodes) {
  const RTree::Node& rnode = rtree.node(rnode_index);
  const size_t index = nodes->size();
  nodes->emplace_back();
  {
    HdovNode& node = (*nodes)[index];
    node.is_leaf = rnode.is_leaf;
    node.level = rnode.level;
    node.node_id = static_cast<uint32_t>(index);
  }

  uint32_t total_descendants = 0;
  uint64_t total_triangles = 0;
  std::vector<HdovEntry> entries;
  entries.reserve(rnode.entries.size());
  for (const RTree::Entry& re : rnode.entries) {
    HdovEntry entry;
    entry.mbr = re.mbr;
    if (rnode.is_leaf) {
      entry.child = re.payload;
      entry.leaf_descendants = 1;
      entry.subtree_triangles =
          scene.object(static_cast<ObjectId>(re.payload))
              .lods.finest()
              .triangle_count;
    } else {
      ConvertResult child =
          ConvertNode(rtree, static_cast<size_t>(re.payload), scene, nodes);
      entry.child = child.index;
      entry.leaf_descendants = child.leaf_descendants;
      entry.subtree_triangles = child.subtree_triangles;
    }
    total_descendants += entry.leaf_descendants;
    total_triangles += entry.subtree_triangles;
    entries.push_back(entry);
  }
  (*nodes)[index].entries = std::move(entries);
  return {index, total_descendants, total_triangles};
}

// Builds the (possibly mesh-backed) internal LoD chain for one node given
// the aggregate of its children.
Result<LodChain> BuildInternalLods(const TriangleMesh& aggregate_mesh,
                                   uint32_t children_triangles,
                                   const HdovBuildOptions& options) {
  LodChainOptions lod_options;
  lod_options.bytes_per_triangle = options.bytes_per_triangle;
  lod_options.min_triangles = options.min_internal_triangles;
  lod_options.simplify = options.simplify;

  if (options.build_internal_meshes && !aggregate_mesh.empty()) {
    // Targets relative to the aggregate mesh: s for the finest internal
    // level, scaled down for the coarser ones.
    lod_options.ratios.clear();
    const double base =
        options.internal_lod_s *
        static_cast<double>(children_triangles) /
        std::max<double>(1.0, static_cast<double>(
                                  aggregate_mesh.triangle_count()));
    for (double r : options.internal_ratios) {
      lod_options.ratios.push_back(std::clamp(base * r, 1e-6, 1.0));
    }
    return LodChain::Build(aggregate_mesh, lod_options);
  }

  lod_options.ratios = options.internal_ratios;
  auto finest = static_cast<uint32_t>(std::max<double>(
      options.min_internal_triangles,
      options.internal_lod_s * children_triangles));
  return LodChain::Proxy(finest, lod_options);
}

}  // namespace

Result<HdovTree> HdovBuilder::Build(const Scene& scene, ModelStore* models,
                                    const HdovBuildOptions& options) {
  if (scene.size() == 0) {
    return Status::InvalidArgument("hdov build: empty scene");
  }

  // 1. Spatial backbone, built by insertion as in the paper.
  RTree rtree(options.rtree);
  for (const Object& obj : scene.objects()) {
    HDOV_RETURN_IF_ERROR(rtree.Insert(obj.mbr, obj.id));
  }

  HdovTree tree;
  tree.fanout_ = options.rtree.max_entries;

  // 2. Topology conversion (preorder; node_id == arena index).
  ConvertNode(rtree, rtree.root_index(), scene, &tree.nodes_);
  tree.root_ = 0;
  tree.dfs_order_.resize(tree.nodes_.size());
  for (size_t i = 0; i < tree.nodes_.size(); ++i) {
    tree.dfs_order_[i] = i;
  }

  // 3. Object LoD registration.
  tree.object_models_.resize(scene.size());
  for (const Object& obj : scene.objects()) {
    auto& slots = tree.object_models_[obj.id];
    slots.reserve(obj.lods.num_levels());
    for (size_t level = 0; level < obj.lods.num_levels(); ++level) {
      slots.push_back(models->Register(obj.lods.level(level).byte_size));
    }
  }

  // 4. Internal LoDs, children before parents (reverse preorder).
  double s_sum = 0.0;
  size_t s_count = 0;
  for (auto it = tree.dfs_order_.rbegin(); it != tree.dfs_order_.rend();
       ++it) {
    HdovNode& node = tree.nodes_[*it];
    uint32_t children_triangles = 0;
    TriangleMesh aggregate;
    if (node.is_leaf) {
      for (const HdovEntry& e : node.entries) {
        const Object& obj = scene.object(static_cast<ObjectId>(e.child));
        children_triangles += obj.lods.finest().triangle_count;
        if (options.build_internal_meshes && !obj.lods.finest().mesh.empty()) {
          // Aggregate a mid-coarse object LoD: plenty for a stand-in that
          // will be simplified further, and much cheaper than the finest.
          size_t src = obj.lods.num_levels() > 1 ? 1 : 0;
          aggregate.Append(obj.lods.level(src).mesh);
        }
      }
    } else {
      for (const HdovEntry& e : node.entries) {
        const HdovNode& child = tree.nodes_[static_cast<size_t>(e.child)];
        children_triangles += child.internal_lods.finest().triangle_count;
        if (options.build_internal_meshes &&
            !child.internal_lods.finest().mesh.empty()) {
          aggregate.Append(child.internal_lods.finest().mesh);
        }
      }
    }
    HDOV_ASSIGN_OR_RETURN(
        node.internal_lods,
        BuildInternalLods(aggregate, children_triangles, options));
    node.internal_lod_models.clear();
    for (size_t level = 0; level < node.internal_lods.num_levels(); ++level) {
      node.internal_lod_models.push_back(
          models->Register(node.internal_lods.level(level).byte_size));
    }
    if (children_triangles > 0) {
      s_sum += static_cast<double>(
                   node.internal_lods.finest().triangle_count) /
               children_triangles;
      ++s_count;
    }
  }
  tree.s_ratio_ = s_count > 0 ? s_sum / static_cast<double>(s_count)
                              : options.internal_lod_s;

  HDOV_RETURN_IF_ERROR(tree.CheckInvariants());
  return tree;
}

CellVPageSet ComputeCellVPages(const HdovTree& tree,
                               const CellVisibility& cell) {
  CellVPageSet result;
  result.pages.resize(tree.num_nodes());
  // Aggregates per node (filled children-first).
  std::vector<double> node_dov(tree.num_nodes(), 0.0);
  std::vector<uint64_t> node_nvo(tree.num_nodes(), 0);

  for (auto it = tree.dfs_order().rbegin(); it != tree.dfs_order().rend();
       ++it) {
    const HdovNode& node = tree.node(*it);
    VPage page;
    page.reserve(node.entries.size());
    bool visible = false;
    double dov_sum = 0.0;
    uint64_t nvo_sum = 0;
    for (const HdovEntry& e : node.entries) {
      VdEntry vd;
      if (node.is_leaf) {
        vd.dov = cell.DovOf(static_cast<ObjectId>(e.child));
        vd.nvo = vd.dov > 0.0f ? 1 : 0;
      } else {
        const size_t child = static_cast<size_t>(e.child);
        vd.dov = static_cast<float>(node_dov[child]);
        vd.nvo = static_cast<uint32_t>(node_nvo[child]);
      }
      visible = visible || vd.dov > 0.0f;
      dov_sum += vd.dov;
      nvo_sum += vd.nvo;
      page.push_back(vd);
    }
    node_dov[*it] = dov_sum;
    node_nvo[*it] = nvo_sum;
    if (visible) {
      result.pages[*it] = std::move(page);
    }
  }
  return result;
}

std::vector<CellVPageSet> ComputeAllCellVPages(const HdovTree& tree,
                                               const VisibilityTable& table,
                                               uint32_t threads) {
  std::vector<CellVPageSet> cells(table.num_cells());
  ThreadPool pool(ThreadPool::ResolveThreads(threads));
  pool.ParallelFor(table.num_cells(), [&](size_t, size_t c) {
    cells[c] = ComputeCellVPages(tree, table.cell(static_cast<CellId>(c)));
  });
  return cells;
}

std::string StorageSchemeName(StorageScheme scheme) {
  switch (scheme) {
    case StorageScheme::kHorizontal:
      return "horizontal";
    case StorageScheme::kVertical:
      return "vertical";
    case StorageScheme::kIndexedVertical:
      return "indexed-vertical";
    case StorageScheme::kBitmapVertical:
      return "bitmap-vertical";
  }
  return "unknown";
}

namespace {

// The clustered schemes are one store that differs in its index segment.
Result<VerticalStore::Segment> ClusteredSegment(StorageScheme scheme) {
  switch (scheme) {
    case StorageScheme::kVertical:
      return VerticalStore::Segment::kPointers;
    case StorageScheme::kIndexedVertical:
      return VerticalStore::Segment::kPairs;
    case StorageScheme::kBitmapVertical:
      return VerticalStore::Segment::kBitmap;
    case StorageScheme::kHorizontal:
      break;
  }
  return Status::InvalidArgument("unknown storage scheme");
}

}  // namespace

Result<std::unique_ptr<VisibilityStore>> BuildStore(
    StorageScheme scheme, const HdovTree& tree, const VisibilityTable& table,
    PageDevice* device, uint32_t threads) {
  std::vector<CellVPageSet> cells = ComputeAllCellVPages(tree, table, threads);
  if (scheme == StorageScheme::kHorizontal) {
    HDOV_ASSIGN_OR_RETURN(auto store,
                          HorizontalStore::Build(tree, cells, device));
    return std::unique_ptr<VisibilityStore>(std::move(store));
  }
  HDOV_ASSIGN_OR_RETURN(VerticalStore::Segment segment,
                        ClusteredSegment(scheme));
  HDOV_ASSIGN_OR_RETURN(auto store,
                        VerticalStore::Build(segment, tree, cells, device));
  return std::unique_ptr<VisibilityStore>(std::move(store));
}

Result<std::unique_ptr<VisibilityStore>> LoadStore(StorageScheme scheme,
                                                   const HdovTree& tree,
                                                   std::string_view meta,
                                                   PageDevice* device) {
  if (scheme == StorageScheme::kHorizontal) {
    HDOV_ASSIGN_OR_RETURN(auto store,
                          HorizontalStore::Load(tree, meta, device));
    return std::unique_ptr<VisibilityStore>(std::move(store));
  }
  HDOV_ASSIGN_OR_RETURN(VerticalStore::Segment segment,
                        ClusteredSegment(scheme));
  HDOV_ASSIGN_OR_RETURN(auto store,
                        VerticalStore::Load(segment, tree, meta, device));
  return std::unique_ptr<VisibilityStore>(std::move(store));
}

}  // namespace hdov
