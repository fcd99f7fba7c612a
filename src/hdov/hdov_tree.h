// HdovTree: the Hierarchical Degree-of-Visibility tree (paper §3.2).
//
// The backbone is an R-tree over object MBRs; on top of it every node
// carries internal LoDs (coarse stand-ins for the aggregate of all objects
// below the node), and every entry is paired — per viewing cell — with a
// view-variant VD = (DoV, NVO) record kept in V-pages by one of the three
// storage schemes (see visibility_store.h).
//
// View-invariant data (topology, MBRs, LoD pointers, descendant counts)
// lives in the tree nodes, serialized one node per device page. The
// view-variant V-pages live in a VisibilityStore.

#ifndef HDOV_HDOV_HDOV_TREE_H_
#define HDOV_HDOV_HDOV_TREE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "geometry/aabb.h"
#include "scene/object.h"
#include "simplify/lod_chain.h"
#include "storage/model_store.h"
#include "storage/page_device.h"
#include "storage/paged_file.h"

namespace hdov {

struct HdovEntry {
  Aabb mbr;
  // Leaf entry: the ObjectId. Internal entry: the child node index.
  uint64_t child = 0;
  // m — number of leaf objects in the entry's subtree (1 for leaf
  // entries); input to the Eq. 4 termination heuristic.
  uint32_t leaf_descendants = 1;
  // Sum of finest-LoD triangle counts over the entry's subtree; input to
  // the cost-model termination heuristic (an LoD-aware refinement of
  // Eq. 4, see SearchOptions::heuristic).
  uint64_t subtree_triangles = 0;
};

struct HdovNode {
  bool is_leaf = true;
  int level = 0;        // 0 at leaves.
  uint32_t node_id = 0; // Dense DFS index; doubles as V-page-index offset.
  // On-disk location, assigned by Pack(). Several small nodes share one
  // page (packed in DFS order), so a traversal's node reads are mostly
  // sequential within pages.
  PageId page = kInvalidPage;
  uint32_t page_offset = 0;
  std::vector<HdovEntry> entries;

  // Internal LoDs: coarse representations of the aggregation of all
  // objects under this node, finest internal level first.
  LodChain internal_lods;
  std::vector<ModelId> internal_lod_models;  // Parallel to internal_lods.

  Aabb BoundingBox() const {
    Aabb box;
    for (const HdovEntry& e : entries) {
      box.Extend(e.mbr);
    }
    return box;
  }
};

class HdovTree {
 public:
  HdovTree() = default;

  const HdovNode& node(size_t index) const { return nodes_[index]; }
  size_t num_nodes() const { return nodes_.size(); }
  size_t root_index() const { return root_; }
  int height() const { return nodes_.empty() ? 0 : nodes_[root_].level + 1; }

  // Fanout M of the backbone R-tree (used as log base in Eq. 4).
  size_t fanout() const { return fanout_; }

  // Average polygon ratio s = npoly(node) / sum npoly(children) across
  // internal nodes (the paper's `s`, estimated at build time).
  double s_ratio() const { return s_ratio_; }

  // Object LoD model ids: object_models()[object_id][lod_level].
  const std::vector<std::vector<ModelId>>& object_models() const {
    return object_models_;
  }

  // Nodes in depth-first preorder (node_id order). Visiting the reverse of
  // this order processes children before parents.
  const std::vector<size_t>& dfs_order() const { return dfs_order_; }

  // Serializes every node to `device` in DFS order, packing as many nodes
  // per page as fit, and records (page, page_offset) in the nodes. Fails
  // if a single node exceeds the page size.
  Status Pack(PageDevice* device);

  // Reads back and decodes the node stored at (page, page_offset) — billed
  // I/O; used to verify the on-disk image and by disk-resident traversal
  // tests.
  static Result<HdovNode> ReadNode(PageDevice* device, PageId page,
                                   uint32_t page_offset);

  static std::string SerializeNode(const HdovNode& node);

  // Serializes the tree manifest — node locations, fanout, s ratio and the
  // object LoD model table — into `out`. Requires Pack() first.
  Status EncodeManifest(std::string* out) const;

  // Restores a tree from Pack()'ed node pages plus EncodeManifest bytes.
  // Node reads are billed on `device` like any traversal.
  static Result<HdovTree> FromManifest(PageDevice* device,
                                       std::string_view manifest);

  // Writes the tree manifest as one extent of `file` (which must wrap the
  // same device Pack() wrote to, or another one). Together with the device
  // image (PageDevice::SaveToFile) this makes the tree fully persistent.
  Result<Extent> WriteManifest(PagedFile* file) const;

  // Restores a tree from Pack()'ed node pages plus a manifest extent.
  static Result<HdovTree> LoadFrom(PageDevice* device, PagedFile* file,
                                   const Extent& manifest);

  // Structural invariants: entry/descendant-count consistency, MBR
  // containment, level consistency, internal LoD presence.
  Status CheckInvariants() const;

 private:
  friend class HdovBuilder;

  std::vector<HdovNode> nodes_;
  size_t root_ = 0;
  size_t fanout_ = 0;
  double s_ratio_ = 0.25;
  std::vector<std::vector<ModelId>> object_models_;
  std::vector<size_t> dfs_order_;
};

}  // namespace hdov

#endif  // HDOV_HDOV_HDOV_TREE_H_
