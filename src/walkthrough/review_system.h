// ReviewSystem: reimplementation of the REVIEW baseline (Shou et al.,
// VLDB'01): an R-tree window-query walkthrough (rtree_baseline.h) whose
// selection rule is one square query box around the viewpoint, with a
// static LoD picked by distance bucket.

#ifndef HDOV_WALKTHROUGH_REVIEW_SYSTEM_H_
#define HDOV_WALKTHROUGH_REVIEW_SYSTEM_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "walkthrough/rtree_baseline.h"

namespace hdov {

// The shared fields (cache_distance, rtree, render, disk) come from
// RTreeBaselineOptions; the default cache_distance (600) is 1.5x the
// default box.
struct ReviewOptions : RTreeBaselineOptions {
  // Side length of the cubic spatial query box centered on the viewpoint
  // (the paper evaluates 200 m and 400 m).
  double query_box_size = 400.0;

  // Distance thresholds for static LoD selection, as fractions of the
  // query box size: nearer than f * box -> finer LoD.
  std::vector<double> lod_distance_fractions = {0.25, 0.5, 0.75};
};

class ReviewSystem : public RTreeBaseline {
 public:
  static Result<std::unique_ptr<ReviewSystem>> Create(
      const Scene* scene, const ReviewOptions& options);

  std::string name() const override { return "REVIEW"; }

  // One spatial query around `position` (no caching side effects).
  Status Query(const Vec3& position, std::vector<uint64_t>* object_ids);

 private:
  ReviewSystem(const Scene* scene, const ReviewOptions& options)
      : RTreeBaseline(scene, options), options_(options) {}

  Status Select(const Viewpoint& viewpoint, std::vector<Pick>* picks) override;

  ReviewOptions options_;
};

}  // namespace hdov

#endif  // HDOV_WALKTHROUGH_REVIEW_SYSTEM_H_
