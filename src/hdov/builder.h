// HdovBuilder: offline construction of the HDoV-tree (paper §5.1):
//  1. build an R-tree over the object MBRs (Ang–Tan linear split);
//  2. generate internal LoDs bottom-up — each node gets a coarse LoD chain
//     representing the aggregation of all objects below it (qslim-style
//     simplification in full-geometry mode, the same count formulas in
//     proxy mode);
//  3. register every representation in the ModelStore;
//  4. derive per-cell V-pages from the precomputed visibility table
//     (DoV of an internal entry = sum over its child node's entries,
//     NVO likewise) and hand them to a storage scheme.

#ifndef HDOV_HDOV_BUILDER_H_
#define HDOV_HDOV_BUILDER_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "hdov/hdov_tree.h"
#include "hdov/visibility_store.h"
#include "rtree/rtree.h"
#include "scene/object.h"
#include "storage/model_store.h"
#include "visibility/precompute.h"

namespace hdov {

struct HdovBuildOptions {
  RTreeOptions rtree;

  // s — the polygon ratio npoly(node) / sum npoly(children) targeted for
  // the finest internal LoD of each node (the paper's Eq. 4 parameter).
  // Internal LoDs replace branches whose entries have DoV <= eta — whose
  // objects Eq. 6 would retrieve near their *coarsest* LoD anyway — so an
  // internal LoD must be sized well below the sum of its subtree's
  // coarsest object LoDs for termination to be a polygon/IO saving (which
  // is what gives the paper's Figs. 7-8 their downward slope). With the
  // default object chains bottoming out at 5%, s = 0.02 keeps the finest
  // internal LoD under a typical partially visible descent.
  double internal_lod_s = 0.02;

  // Coarser internal LoD levels, as fractions of the finest internal LoD.
  std::vector<double> internal_ratios = {1.0, 0.3, 0.1};

  // Logical bytes per triangle for internal LoDs (keep equal to the scene
  // LodChainOptions value so storage accounting is uniform).
  uint64_t bytes_per_triangle = 224;

  uint32_t min_internal_triangles = 16;

  // Full-geometry mode: actually aggregate and simplify meshes for the
  // internal LoDs (requires a full-mode scene). Proxy mode: counts only.
  bool build_internal_meshes = false;

  SimplifyOptions simplify;  // Used when build_internal_meshes is true.
};

class HdovBuilder {
 public:
  // Builds the view-invariant tree over `scene` and registers all object
  // and internal LoD representations in `models`.
  static Result<HdovTree> Build(const Scene& scene, ModelStore* models,
                                const HdovBuildOptions& options);
};

// Derives the V-pages of every node for one cell: bottom-up aggregation of
// the per-object DoV values (paper DoV attribute 2: a parent entry's DoV is
// the sum of the DoVs in the node it points to). Invisible nodes get an
// empty VPage.
CellVPageSet ComputeCellVPages(const HdovTree& tree,
                               const CellVisibility& cell);

// Derives every cell's V-pages. Cells are independent, so with threads !=
// 1 the per-cell aggregation fans out over a worker pool (0 = one worker
// per hardware thread); each worker writes only its own cells' slots and
// the result is identical for every thread count.
std::vector<CellVPageSet> ComputeAllCellVPages(const HdovTree& tree,
                                               const VisibilityTable& table,
                                               uint32_t threads = 1);

enum class StorageScheme : uint8_t {
  kHorizontal = 0,
  kVertical = 1,
  kIndexedVertical = 2,
  // Extension (not in the paper): per-cell visibility bitmaps with rank
  // addressing instead of explicit pointers; see vertical_store.h.
  kBitmapVertical = 3,
};

std::string StorageSchemeName(StorageScheme scheme);

// Builds the chosen storage scheme over `device` from the visibility
// table. `threads` parallelizes the per-cell V-page derivation (the
// device writes stay sequential); see ComputeAllCellVPages.
Result<std::unique_ptr<VisibilityStore>> BuildStore(
    StorageScheme scheme, const HdovTree& tree, const VisibilityTable& table,
    PageDevice* device, uint32_t threads = 1);

// Reattaches a previously built store to a restored device image from its
// VisibilityStore::EncodeMeta bytes. No I/O is billed; the loaded store
// serves queries with counters identical to the freshly built one.
Result<std::unique_ptr<VisibilityStore>> LoadStore(StorageScheme scheme,
                                                   const HdovTree& tree,
                                                   std::string_view meta,
                                                   PageDevice* device);

}  // namespace hdov

#endif  // HDOV_HDOV_BUILDER_H_
