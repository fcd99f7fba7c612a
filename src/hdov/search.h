// HdovSearcher: the threshold-based visibility search of the HDoV-tree
// (paper Fig. 3). Given a viewing cell and a DoV threshold eta:
//  - entries with DoV = 0 are pruned (hidden branches cost nothing);
//  - a visible internal entry terminates the descent with one of the child
//    node's internal LoDs when DoV <= eta AND the Eq. 4 heuristic
//    h (1 + log_M s) < log_M NVO says the internal LoD carries fewer
//    polygons than the entry's visible descendants;
//  - internal LoD resolution follows Eq. 5 (blend factor DoV/eta), object
//    LoD resolution follows Eq. 6 (blend factor DoV/MAXDOV, MAXDOV = 0.5).
//
// A searcher remembers its last search: the delta-search idea ("do not
// retrieve again what earlier operations retrieved") applied to the
// search's own CPU work. A walkthrough stays in one cell for many frames,
// and the tree and a cell's V-pages never change, so a repeated search
// decides exactly as before. It then re-issues only the page accesses,
// in their original order, and copies the remembered result (see
// HdovSearcher).

#ifndef HDOV_HDOV_SEARCH_H_
#define HDOV_HDOV_SEARCH_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/status.h"
#include "geometry/frustum.h"
#include "hdov/hdov_tree.h"
#include "hdov/visibility_store.h"
#include "scene/object.h"
#include "storage/buffer_pool.h"
#include "storage/model_store.h"
#include "telemetry/trace.h"

namespace hdov {

// Spherical projection of an object never exceeds half the sphere when the
// viewpoint is outside its bounding box (paper §3.3).
inline constexpr double kMaxDov = 0.5;

// The second termination condition of Fig. 3 line 7 (applied after
// DoV <= eta holds).
enum class TerminationHeuristic : uint8_t {
  // The paper's Eq. 4: h (1 + log_M s) < log_M NVO. Assumes descendants
  // would be fetched at full resolution, so it can occasionally terminate
  // where the internal LoD is heavier than the few coarse objects it
  // replaces.
  kEq4 = 0,
  // No second condition: terminate on eta alone (ablation).
  kNone = 1,
  // LoD-aware refinement (extension): estimate the triangles a descent
  // would actually retrieve — NVO objects at the Eq. 6 level of their
  // average DoV — and terminate only when the selected internal LoD is
  // lighter.
  kCostModel = 2,
};

struct SearchOptions {
  // The DoV threshold eta. 0 disables internal-LoD termination entirely
  // (the tree degenerates to the naive cell/list behaviour).
  double eta = 0.001;

  TerminationHeuristic heuristic = TerminationHeuristic::kEq4;

  // kCostModel only: assumed coarsest-LoD fraction of an object chain
  // (matches LodChainOptions::ratios.back() of the scene build).
  double assumed_coarsest_ratio = 0.05;

  // When set, the traversal records a span tree under an open "search"
  // root: a "node" span per visited node with "prune" / "object" /
  // "terminate" / "descend" children carrying DoV, NVO and the Eq. 4
  // operands. Null (the default) costs nothing.
  telemetry::TraceRecorder* trace = nullptr;
};

struct RetrievedLod {
  enum class Kind : uint8_t { kObject = 0, kInternal = 1 };
  Kind kind = Kind::kObject;
  uint64_t owner = 0;  // ObjectId (kObject) or node index (kInternal).
  uint32_t lod_level = 0;
  ModelId model = kInvalidModel;
  uint32_t triangle_count = 0;
  uint64_t byte_size = 0;
  float dov = 0.0f;
};

struct SearchStats {
  uint64_t nodes_visited = 0;
  uint64_t vpages_fetched = 0;
  uint64_t hidden_entries_pruned = 0;
  uint64_t internal_terminations = 0;
};

// Reorders a retrieval set for progressive loading (the paper's §3.2
// third advantage and stated future work: "regions that are closer to the
// current view frustum can be traversed first, while regions that are
// outside the view frustum can be delayed"). Representations whose MBR
// intersects the frustum come first, sorted by descending DoV (most
// noticeable first); the rest follow, nearest first. Fetching in this
// order minimizes the time until what the user actually faces is on
// screen.
void PrioritizeRetrieval(const Frustum& frustum, const HdovTree& tree,
                         const Scene& scene,
                         std::vector<RetrievedLod>* result);

// One searcher is the single-threaded search state of one view: its V-page
// buffers, its node-page transfer buffer and its memo. Concurrent sessions
// each own one.
//
// The memo holds the result, the SearchStats and the visit order of the
// nodes of the last untraced search that succeeded. Its key is the
// store's serial (VisibilityStore::serial, never its address), the cell,
// eta, the heuristic and assumed_coarsest_ratio. A search with the same
// key replays the original's side effects in order: BeginCell, then per
// visited node its node-page access (tree cache Get, or a tree-device
// read on a miss or without a cache, with the same one-page dedupe) and
// its GetVPage. Those are all of a search's side effects, and each
// depends only on the key and on the state it meets, so every billed
// page, seek, simulated microsecond, pool hit, store counter and flight
// event is what a full search would produce. The decision loop, the LoD
// picks and the result construction are skipped.
//
// A traced search (options.trace set) always runs in full and leaves the
// memo as it was. A failed search or replay leaves no memo, and
// set_tree_cache drops it.
//
// Each stored memo gets a new generation (never 0, never reused by this
// searcher). last_generation() names the memo the last Search stored or
// replayed, so two searches that report the same generation returned the
// same result. A caller that derived state from one result may keep it
// while the generation holds; VisualSystem's settled frames do.
class HdovSearcher {
 public:
  // `tree_device` is billed one page read per visited node (pass nullptr
  // to skip node-page billing, e.g. for pure algorithmic tests).
  HdovSearcher(const HdovTree* tree, const Scene* scene,
               const ModelStore* models, PageDevice* tree_device);

  // Runs the Fig. 3 traversal for `cell`. The result lists every LoD
  // representation to retrieve; fetching their model data is the caller's
  // choice (Fig. 8 separates light-weight from total I/O).
  Status Search(VisibilityStore* store, CellId cell,
                const SearchOptions& options, std::vector<RetrievedLod>* result,
                SearchStats* stats = nullptr);

  // Optional LRU pool in front of the tree-node page reads: pages hit in
  // the pool cost no simulated I/O, a miss bills one tree-device page read.
  // Null (the default) bills every node read. The pool must wrap the same
  // device; without a tree device it is never consulted.
  void set_tree_cache(BufferPool* cache) {
    tree_cache_ = cache;
    ForgetLastSearch();
  }

  // Drops the memo, so the next search runs in full.
  void ForgetLastSearch() { memo_.valid = false; }

  // The generation of the memo the last Search stored or replayed; 0
  // after a traced or failed search (and before the first).
  uint64_t last_generation() const { return last_generation_; }

 private:
  // The key and outcome of the last untraced, successful search.
  struct Memo {
    bool valid = false;
    uint64_t store_serial = 0;
    CellId cell = 0;
    double eta = 0.0;
    TerminationHeuristic heuristic = TerminationHeuristic::kEq4;
    double assumed_coarsest_ratio = 0.0;
    std::vector<RetrievedLod> result;
    SearchStats stats;
    std::vector<size_t> visited;  // Node indices in visit order.
  };

  bool MemoMatches(const VisibilityStore& store, CellId cell,
                   const SearchOptions& options) const;
  // Re-issues the memoized search's page accesses on `store` and copies
  // its result and stats.
  Status Replay(VisibilityStore* store, std::vector<RetrievedLod>* result,
                SearchStats* stats);
  // The node's page access: a tree-cache Get, and a billed tree-device
  // read on a miss or without a cache, unless the page was the last read.
  Status ReadNodePage(const HdovNode& node);
  Status SearchNode(VisibilityStore* store, size_t node_index, size_t depth,
                    const SearchOptions& options,
                    std::vector<RetrievedLod>* result, SearchStats* stats);

  const HdovTree* tree_;
  const Scene* scene_;
  const ModelStore* models_;
  PageDevice* tree_device_;
  BufferPool* tree_cache_ = nullptr;
  double log_fanout_ = 1.0;
  double log_s_ = 0.0;  // log_M s of Eq. 4.
  // One reusable V-page buffer per recursion depth. A deque, because a
  // frame holds a reference to its page while deeper frames append; a
  // growing vector would move the parent's page out from under it.
  std::deque<VPage> vpages_;
  // Several nodes share a page; re-reading the page just read is free
  // (it is still in the transfer buffer).
  PageId last_node_page_ = kInvalidPage;
  Memo memo_;
  // Memos stored so far; the valid memo is always the latest of them.
  uint64_t generations_ = 0;
  uint64_t last_generation_ = 0;
};

}  // namespace hdov

#endif  // HDOV_HDOV_SEARCH_H_
