// LodRTreeSystem: reimplementation of the LoD-R-tree baseline (Kofler,
// Gervautz & Gruber 2000 — the paper's related work [8]): an R-tree
// window-query walkthrough (rtree_baseline.h) whose search "converts the
// viewing-frustum into a few rectangular query boxes" — depth bands along
// the viewing direction, each retrieved at an ad-hoc, static LoD (near =
// fine, far = coarse). Fast while the user looks where they were looking;
// degrades when the view turns, because the boxes (and everything cached
// for them) swing away — the behaviour the paper calls out in §2.

#ifndef HDOV_WALKTHROUGH_LODR_SYSTEM_H_
#define HDOV_WALKTHROUGH_LODR_SYSTEM_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "geometry/frustum.h"
#include "walkthrough/rtree_baseline.h"

namespace hdov {

// The shared fields (cache_distance, rtree, render, disk) come from
// RTreeBaselineOptions.
struct LodRTreeOptions : RTreeBaselineOptions {
  FrustumOptions frustum;  // far_dist bounds the deepest band.

  // Depth bands as fractions of far_dist; band i spans
  // (fractions[i-1], fractions[i]] * far_dist and is retrieved at LoD
  // level i (clamped to the object's chain).
  std::vector<double> band_fractions = {0.15, 0.45, 1.0};
};

class LodRTreeSystem : public RTreeBaseline {
 public:
  static Result<std::unique_ptr<LodRTreeSystem>> Create(
      const Scene* scene, const LodRTreeOptions& options);

  std::string name() const override { return "LoD-R-tree"; }

  // The frustum-derived query boxes for a viewpoint (exposed for tests).
  std::vector<Aabb> QueryBoxes(const Viewpoint& viewpoint) const;

 private:
  LodRTreeSystem(const Scene* scene, const LodRTreeOptions& options)
      : RTreeBaseline(scene, options), options_(options) {}

  Status Select(const Viewpoint& viewpoint, std::vector<Pick>* picks) override;

  LodRTreeOptions options_;
};

}  // namespace hdov

#endif  // HDOV_WALKTHROUGH_LODR_SYSTEM_H_
