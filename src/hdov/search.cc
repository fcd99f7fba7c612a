#include "hdov/search.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>

#include "telemetry/trace_context.h"

namespace hdov {

void PrioritizeRetrieval(const Frustum& frustum, const HdovTree& tree,
                         const Scene& scene,
                         std::vector<RetrievedLod>* result) {
  struct Ranked {
    bool in_frustum;
    double key;  // DoV (descending) inside, distance (ascending) outside.
  };
  // Rank each representation once up front: the frustum test and the
  // MBR-distance are far too heavy to re-run O(n log n) times inside the
  // sort comparator.
  std::vector<Ranked> ranked;
  ranked.reserve(result->size());
  for (const RetrievedLod& lod : *result) {
    const Aabb& mbr =
        lod.kind == RetrievedLod::Kind::kObject
            ? scene.object(static_cast<ObjectId>(lod.owner)).mbr
            : tree.node(static_cast<size_t>(lod.owner)).BoundingBox();
    if (frustum.IntersectsBox(mbr)) {
      ranked.push_back(Ranked{true, static_cast<double>(lod.dov)});
    } else {
      ranked.push_back(Ranked{false, mbr.DistanceTo(frustum.eye())});
    }
  }
  std::vector<size_t> order(result->size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Ranked& ra = ranked[a];
    const Ranked& rb = ranked[b];
    if (ra.in_frustum != rb.in_frustum) {
      return ra.in_frustum;
    }
    if (ra.in_frustum) {
      return ra.key > rb.key;  // High DoV first.
    }
    return ra.key < rb.key;  // Near first.
  });
  std::vector<RetrievedLod> sorted;
  sorted.reserve(result->size());
  for (size_t index : order) {
    sorted.push_back((*result)[index]);
  }
  *result = std::move(sorted);
}

const char* SearchBackendName(SearchBackend backend) {
  switch (backend) {
    case SearchBackend::kLegacy:
      return "legacy";
    case SearchBackend::kFlat:
      return "flat";
  }
  return "unknown";
}

bool ParseSearchBackend(std::string_view name, SearchBackend* backend) {
  if (name == "legacy") {
    *backend = SearchBackend::kLegacy;
    return true;
  }
  if (name == "flat") {
    *backend = SearchBackend::kFlat;
    return true;
  }
  return false;
}

SearchBackend& DefaultSearchBackend() {
  static SearchBackend backend = [] {
    SearchBackend parsed = SearchBackend::kLegacy;
    if (const char* env = std::getenv("HDOV_SEARCH_BACKEND")) {
      ParseSearchBackend(env, &parsed);
    }
    return parsed;
  }();
  return backend;
}

HdovSearcher::HdovSearcher(const HdovTree* tree, const Scene* scene,
                           const ModelStore* models, PageDevice* tree_device)
    : tree_(tree), scene_(scene), models_(models),
      tree_device_(tree_device),
      log_fanout_(std::log(static_cast<double>(
          std::max<size_t>(2, tree->fanout())))),
      log_s_(std::log(std::max(1e-9, tree->s_ratio())) / log_fanout_) {}

namespace {

// Eq. 5 LoD selection for an internal entry: blend the child's internal
// LoDs by DoV / eta. Called only where the level is used — the cost
// model's estimate and the termination itself — and both need eta > 0, so
// the blend factor is in (0, 1].
size_t Eq5Level(const HdovNode& child, float dov, double eta) {
  return child.internal_lods.LevelForBlend(std::min(dov / eta, 1.0));
}

}  // namespace

Status HdovSearcher::Search(VisibilityStore* store, CellId cell,
                            const SearchOptions& options,
                            std::vector<RetrievedLod>* result,
                            SearchStats* stats) {
  result->clear();
  SearchStats local_stats;
  last_node_page_ = kInvalidPage;  // The buffer does not persist queries.
  // Every page read / pool hit below this point is attributed to the
  // search stage of whichever session the thread is serving.
  telemetry::StageTraceScope stage(telemetry::TraceStage::kSearch);
  telemetry::ScopedSpan span(options.trace, "search");
  span.Attr("cell", static_cast<double>(cell));
  span.Attr("eta", options.eta);
  span.Attr("store", store->name());
  HDOV_RETURN_IF_ERROR(store->BeginCell(cell));
  Status status = SearchNode(store, tree_->root_index(), /*depth=*/0,
                             options, result, &local_stats);
  span.Attr("nodes_visited", static_cast<double>(local_stats.nodes_visited));
  span.Attr("vpages_fetched",
            static_cast<double>(local_stats.vpages_fetched));
  span.Attr("hidden_pruned",
            static_cast<double>(local_stats.hidden_entries_pruned));
  span.Attr("internal_terminations",
            static_cast<double>(local_stats.internal_terminations));
  if (stats != nullptr) {
    *stats = local_stats;
  }
  return status;
}

Status HdovSearcher::SearchNode(VisibilityStore* store, size_t node_index,
                                size_t depth, const SearchOptions& options,
                                std::vector<RetrievedLod>* result,
                                SearchStats* stats) {
  const HdovNode& node = tree_->node(node_index);
  ++stats->nodes_visited;
  telemetry::TraceRecorder* trace = options.trace;
  telemetry::ScopedSpan node_span(trace, "node");
  node_span.Attr("node", static_cast<double>(node.node_id));
  node_span.Attr("fanout", static_cast<double>(node.entries.size()));
  node_span.Attr("leaf", node.is_leaf ? 1.0 : 0.0);
  if (node.page != kInvalidPage && node.page != last_node_page_) {
    if (tree_cache_ != nullptr) {
      HDOV_RETURN_IF_ERROR(tree_cache_->Get(node.page).status());
      last_node_page_ = node.page;
    } else if (tree_device_ != nullptr) {
      HDOV_RETURN_IF_ERROR(tree_device_->Read(node.page, nullptr));
      last_node_page_ = node.page;
    }
  }

  if (depth == vpages_.size()) {
    vpages_.emplace_back();
  }
  VPage& vpage = vpages_[depth];
  bool visible = false;
  HDOV_RETURN_IF_ERROR(store->GetVPage(node.node_id, &vpage, &visible));
  ++stats->vpages_fetched;
  if (!visible) {
    if (node_index == tree_->root_index()) {
      return Status::OK();  // Nothing visible anywhere in this cell.
    }
    // Paper attribute 3: a visible parent entry implies a visible child.
    return Status::Corruption("hdov search: visible entry without V-page");
  }
  if (vpage.size() != node.entries.size()) {
    return Status::Corruption("hdov search: V-page entry count mismatch");
  }

  for (size_t i = 0; i < node.entries.size(); ++i) {
    const HdovEntry& entry = node.entries[i];
    const VdEntry& vd = vpage[i];
    if (vd.dov <= 0.0f) {
      ++stats->hidden_entries_pruned;  // Fig. 3 line 3.
      telemetry::ScopedSpan prune_span(trace, "prune");
      prune_span.Attr("child", static_cast<double>(entry.child));
      prune_span.Attr("dov", vd.dov);
      continue;
    }

    if (node.is_leaf) {
      // Fig. 3 lines 4-5 with Eq. 6 LoD selection.
      const Object& obj = scene_->object(static_cast<ObjectId>(entry.child));
      const double k = std::min(vd.dov / kMaxDov, 1.0);
      RetrievedLod lod;
      lod.kind = RetrievedLod::Kind::kObject;
      lod.owner = entry.child;
      lod.lod_level = static_cast<uint32_t>(obj.lods.LevelForBlend(k));
      lod.model = tree_->object_models()[entry.child][lod.lod_level];
      lod.triangle_count = obj.lods.level(lod.lod_level).triangle_count;
      lod.byte_size = obj.lods.level(lod.lod_level).byte_size;
      lod.dov = vd.dov;
      result->push_back(lod);
      telemetry::ScopedSpan object_span(trace, "object");
      object_span.Attr("object", static_cast<double>(entry.child));
      object_span.Attr("dov", vd.dov);
      object_span.Attr("level", static_cast<double>(lod.lod_level));
      continue;
    }

    // Internal entry: decide between terminating with the child's internal
    // LoD (Fig. 3 lines 7-8) and descending (line 10).
    const size_t child_index = static_cast<size_t>(entry.child);
    const HdovNode& child = tree_->node(child_index);
    bool terminate = false;
    bool eq4_evaluated = false;
    double eq4_lhs = 0.0;
    double eq4_rhs = 0.0;
    if (options.eta > 0.0 && vd.dov <= options.eta) {
      switch (options.heuristic) {
        case TerminationHeuristic::kNone:
          terminate = true;
          break;
        case TerminationHeuristic::kEq4: {
          // Eq. 4: h (1 + log_M s) < log_M NVO, h = log_M m.
          const double h =
              std::log(static_cast<double>(
                  std::max<uint32_t>(1, entry.leaf_descendants))) /
              log_fanout_;
          eq4_lhs = h * (1.0 + log_s_);
          eq4_rhs =
              std::log(static_cast<double>(std::max<uint32_t>(1, vd.nvo))) /
              log_fanout_;
          eq4_evaluated = true;
          terminate = eq4_lhs < eq4_rhs;
          break;
        }
        case TerminationHeuristic::kCostModel: {
          // Estimate the descent's actual retrieval: NVO objects of
          // average finest size f_bar, each at the Eq. 6 level of its
          // average per-object DoV.
          const double n = std::max<uint32_t>(1, vd.nvo);
          const double f_bar =
              static_cast<double>(entry.subtree_triangles) /
              std::max<uint32_t>(1, entry.leaf_descendants);
          const double per_object_k =
              std::min(vd.dov / n / kMaxDov, 1.0);
          const double descent_triangles =
              n * f_bar *
              (per_object_k +
               (1.0 - per_object_k) * options.assumed_coarsest_ratio);
          terminate = child.internal_lods
                          .level(Eq5Level(child, vd.dov, options.eta))
                          .triangle_count < descent_triangles;
          break;
        }
      }
    }

    if (terminate) {
      const size_t internal_level = Eq5Level(child, vd.dov, options.eta);
      ++stats->internal_terminations;
      RetrievedLod lod;
      lod.kind = RetrievedLod::Kind::kInternal;
      lod.owner = child_index;
      lod.lod_level = static_cast<uint32_t>(internal_level);
      lod.model = child.internal_lod_models[lod.lod_level];
      lod.triangle_count =
          child.internal_lods.level(lod.lod_level).triangle_count;
      lod.byte_size = child.internal_lods.level(lod.lod_level).byte_size;
      lod.dov = vd.dov;
      result->push_back(lod);
      telemetry::ScopedSpan term_span(trace, "terminate");
      term_span.Attr("child", static_cast<double>(child_index));
      term_span.Attr("dov", vd.dov);
      term_span.Attr("nvo", static_cast<double>(vd.nvo));
      term_span.Attr("level", static_cast<double>(internal_level));
      if (eq4_evaluated) {
        term_span.Attr("eq4_lhs", eq4_lhs);
        term_span.Attr("eq4_rhs", eq4_rhs);
        term_span.Attr("eq4_verdict", 1.0);
      }
      continue;
    }

    telemetry::ScopedSpan descend_span(trace, "descend");
    descend_span.Attr("child", static_cast<double>(child_index));
    descend_span.Attr("dov", vd.dov);
    descend_span.Attr("nvo", static_cast<double>(vd.nvo));
    if (eq4_evaluated) {
      descend_span.Attr("eq4_lhs", eq4_lhs);
      descend_span.Attr("eq4_rhs", eq4_rhs);
      descend_span.Attr("eq4_verdict", 0.0);
    }
    HDOV_RETURN_IF_ERROR(
        SearchNode(store, child_index, depth + 1, options, result, stats));
  }
  return Status::OK();
}

}  // namespace hdov
