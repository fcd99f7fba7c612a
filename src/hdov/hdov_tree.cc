#include "hdov/hdov_tree.h"

#include <string>

#include "common/coding.h"

namespace hdov {

namespace {

// Node page layout:
//   u32 is_leaf | u32 level | u32 node_id | u32 entry_count
//   u32 lod_count | lod_count x (u64 model_id | u32 tris | u64 bytes)
//   entry_count x (6 doubles mbr | u64 child | u32 leaf_descendants |
//                  u64 subtree_triangles)
constexpr size_t kEntryBytes = 6 * sizeof(double) + sizeof(uint64_t) +
                               sizeof(uint32_t) + sizeof(uint64_t);

}  // namespace

std::string HdovTree::SerializeNode(const HdovNode& node) {
  std::string out;
  EncodeFixed32(&out, node.is_leaf ? 1 : 0);
  EncodeFixed32(&out, static_cast<uint32_t>(node.level));
  EncodeFixed32(&out, node.node_id);
  EncodeFixed32(&out, static_cast<uint32_t>(node.entries.size()));
  EncodeFixed32(&out, static_cast<uint32_t>(node.internal_lod_models.size()));
  for (size_t i = 0; i < node.internal_lod_models.size(); ++i) {
    EncodeFixed64(&out, node.internal_lod_models[i]);
    EncodeFixed32(&out, node.internal_lods.level(i).triangle_count);
    EncodeFixed64(&out, node.internal_lods.level(i).byte_size);
  }
  for (const HdovEntry& e : node.entries) {
    EncodeDouble(&out, e.mbr.min.x);
    EncodeDouble(&out, e.mbr.min.y);
    EncodeDouble(&out, e.mbr.min.z);
    EncodeDouble(&out, e.mbr.max.x);
    EncodeDouble(&out, e.mbr.max.y);
    EncodeDouble(&out, e.mbr.max.z);
    EncodeFixed64(&out, e.child);
    EncodeFixed32(&out, e.leaf_descendants);
    EncodeFixed64(&out, e.subtree_triangles);
  }
  return out;
}

Status HdovTree::Pack(PageDevice* device) {
  std::string pending;
  PageId pending_page = kInvalidPage;
  auto flush = [&]() -> Status {
    if (pending.empty()) {
      return Status::OK();
    }
    Status s = device->Write(pending_page, pending);
    pending.clear();
    pending_page = kInvalidPage;
    return s;
  };
  for (size_t index : dfs_order_) {
    std::string payload = SerializeNode(nodes_[index]);
    if (payload.size() > device->page_size()) {
      return Status::InvalidArgument(
          "hdov tree: node exceeds page size; lower the fanout");
    }
    if (pending_page == kInvalidPage ||
        pending.size() + payload.size() > device->page_size()) {
      HDOV_RETURN_IF_ERROR(flush());
      pending_page = device->Allocate();
    }
    nodes_[index].page = pending_page;
    nodes_[index].page_offset = static_cast<uint32_t>(pending.size());
    pending += payload;
  }
  return flush();
}

Result<HdovNode> HdovTree::ReadNode(PageDevice* device, PageId page,
                                    uint32_t page_offset) {
  std::string data;
  HDOV_RETURN_IF_ERROR(device->Read(page, &data));
  if (page_offset >= data.size()) {
    return Status::InvalidArgument("hdov tree: bad page offset");
  }
  Decoder decoder(std::string_view(data).substr(page_offset));
  HdovNode node;
  uint32_t is_leaf = 0;
  uint32_t level = 0;
  uint32_t entry_count = 0;
  uint32_t lod_count = 0;
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&is_leaf));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&level));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&node.node_id));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&entry_count));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&lod_count));
  node.is_leaf = is_leaf != 0;
  node.level = static_cast<int>(level);
  node.page = page;
  node.page_offset = page_offset;
  std::vector<LodLevel> levels;
  for (uint32_t i = 0; i < lod_count; ++i) {
    uint64_t model = 0;
    uint32_t tris = 0;
    uint64_t bytes = 0;
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&model));
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&tris));
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&bytes));
    node.internal_lod_models.push_back(static_cast<ModelId>(model));
    LodLevel level;
    level.triangle_count = tris;
    level.byte_size = bytes;
    levels.push_back(std::move(level));
  }
  if (!levels.empty()) {
    HDOV_ASSIGN_OR_RETURN(node.internal_lods,
                          LodChain::FromLevels(std::move(levels)));
  }
  if (decoder.remaining() < entry_count * kEntryBytes) {
    return Status::Corruption("hdov tree: truncated node page");
  }
  for (uint32_t i = 0; i < entry_count; ++i) {
    HdovEntry e;
    HDOV_RETURN_IF_ERROR(decoder.DecodeDouble(&e.mbr.min.x));
    HDOV_RETURN_IF_ERROR(decoder.DecodeDouble(&e.mbr.min.y));
    HDOV_RETURN_IF_ERROR(decoder.DecodeDouble(&e.mbr.min.z));
    HDOV_RETURN_IF_ERROR(decoder.DecodeDouble(&e.mbr.max.x));
    HDOV_RETURN_IF_ERROR(decoder.DecodeDouble(&e.mbr.max.y));
    HDOV_RETURN_IF_ERROR(decoder.DecodeDouble(&e.mbr.max.z));
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&e.child));
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&e.leaf_descendants));
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&e.subtree_triangles));
    node.entries.push_back(e);
  }
  return node;
}

Status HdovTree::EncodeManifest(std::string* out) const {
  EncodeFixed32(out, static_cast<uint32_t>(nodes_.size()));
  EncodeFixed64(out, fanout_);
  EncodeDouble(out, s_ratio_);
  for (size_t index : dfs_order_) {
    const HdovNode& node = nodes_[index];
    if (node.page == kInvalidPage) {
      return Status::FailedPrecondition(
          "hdov tree: EncodeManifest requires Pack() first");
    }
    EncodeFixed64(out, node.page);
    EncodeFixed32(out, node.page_offset);
  }
  EncodeFixed32(out, static_cast<uint32_t>(object_models_.size()));
  for (const auto& models : object_models_) {
    EncodeFixed32(out, static_cast<uint32_t>(models.size()));
    for (ModelId model : models) {
      EncodeFixed64(out, model);
    }
  }
  return Status::OK();
}

Result<Extent> HdovTree::WriteManifest(PagedFile* file) const {
  std::string out;
  HDOV_RETURN_IF_ERROR(EncodeManifest(&out));
  return file->Append(out);
}

Result<HdovTree> HdovTree::LoadFrom(PageDevice* device, PagedFile* file,
                                    const Extent& manifest) {
  HDOV_ASSIGN_OR_RETURN(std::string data, file->ReadExtent(manifest));
  return FromManifest(device, data);
}

Result<HdovTree> HdovTree::FromManifest(PageDevice* device,
                                        std::string_view manifest) {
  Decoder decoder(manifest);
  uint32_t num_nodes = 0;
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&num_nodes));
  HdovTree tree;
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&tree.fanout_));
  HDOV_RETURN_IF_ERROR(decoder.DecodeDouble(&tree.s_ratio_));
  if (num_nodes == 0) {
    return Status::Corruption("hdov tree: empty manifest");
  }
  // Every count is checked against the bytes left before it sizes a
  // container: 12 bytes per node, at least 4 per object, 8 per level.
  if (decoder.remaining() < uint64_t{num_nodes} * 12) {
    return Status::Corruption("hdov tree: node count exceeds manifest");
  }
  tree.nodes_.resize(num_nodes);
  tree.dfs_order_.resize(num_nodes);
  for (uint32_t i = 0; i < num_nodes; ++i) {
    uint64_t page = 0;
    uint32_t offset = 0;
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&page));
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&offset));
    HDOV_ASSIGN_OR_RETURN(HdovNode node, ReadNode(device, page, offset));
    if (node.node_id >= num_nodes) {
      return Status::Corruption("hdov tree: node id out of range");
    }
    tree.dfs_order_[i] = node.node_id;
    tree.nodes_[node.node_id] = std::move(node);
  }
  tree.root_ = tree.dfs_order_.front();
  uint32_t num_objects = 0;
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&num_objects));
  if (decoder.remaining() < uint64_t{num_objects} * 4) {
    return Status::Corruption("hdov tree: object count exceeds manifest");
  }
  tree.object_models_.resize(num_objects);
  for (uint32_t i = 0; i < num_objects; ++i) {
    uint32_t levels = 0;
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&levels));
    if (decoder.remaining() < uint64_t{levels} * 8) {
      return Status::Corruption("hdov tree: level count exceeds manifest");
    }
    tree.object_models_[i].reserve(levels);
    for (uint32_t l = 0; l < levels; ++l) {
      uint64_t model = 0;
      HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&model));
      tree.object_models_[i].push_back(static_cast<ModelId>(model));
    }
  }
  HDOV_RETURN_IF_ERROR(tree.CheckInvariants());
  return tree;
}

Status HdovTree::CheckInvariants() const {
  if (nodes_.empty()) {
    return Status::Internal("hdov tree: no nodes");
  }
  if (dfs_order_.size() != nodes_.size()) {
    return Status::Internal("hdov tree: dfs order size mismatch");
  }
  std::vector<size_t> stack = {root_};
  while (!stack.empty()) {
    size_t index = stack.back();
    stack.pop_back();
    const HdovNode& node = nodes_[index];
    if (node.entries.empty()) {
      return Status::Internal("hdov tree: empty node");
    }
    if (node.internal_lods.empty() || node.internal_lod_models.size() !=
                                          node.internal_lods.num_levels()) {
      return Status::Internal("hdov tree: node missing internal LoDs");
    }
    if (node.is_leaf) {
      if (node.level != 0) {
        return Status::Internal("hdov tree: leaf at nonzero level");
      }
      for (const HdovEntry& e : node.entries) {
        if (e.leaf_descendants != 1) {
          return Status::Internal("hdov tree: leaf entry descendant != 1");
        }
      }
      continue;
    }
    for (const HdovEntry& e : node.entries) {
      size_t child = static_cast<size_t>(e.child);
      if (child >= nodes_.size()) {
        return Status::Internal("hdov tree: child index out of range");
      }
      const HdovNode& child_node = nodes_[child];
      if (child_node.level != node.level - 1) {
        return Status::Internal("hdov tree: child level mismatch");
      }
      if (!(e.mbr == child_node.BoundingBox())) {
        return Status::Internal("hdov tree: stale entry MBR");
      }
      uint32_t descendants = 0;
      uint64_t triangles = 0;
      for (const HdovEntry& ce : child_node.entries) {
        descendants += ce.leaf_descendants;
        triangles += ce.subtree_triangles;
      }
      if (descendants != e.leaf_descendants) {
        return Status::Internal("hdov tree: descendant count mismatch");
      }
      if (triangles != e.subtree_triangles) {
        return Status::Internal("hdov tree: subtree triangle sum mismatch");
      }
      stack.push_back(child);
    }
  }
  return Status::OK();
}

}  // namespace hdov
