#include "prefetch/predictor.h"

#include <algorithm>

namespace hdov::prefetch {

const char* PrefetchModeName(PrefetchMode mode) {
  switch (mode) {
    case PrefetchMode::kOff:
      return "off";
    case PrefetchMode::kSync:
      return "sync";
    case PrefetchMode::kAsync:
      return "async";
  }
  return "off";
}

CellPrediction VelocityPredictor::PredictAlong(const Vec3& direction,
                                               const Vec3& position,
                                               CellId current_cell) const {
  CellPrediction prediction;
  if (current_cell == kInvalidCell) {
    return prediction;
  }
  Vec3 dir_xy(direction.x, direction.y, 0.0);
  const double len_sq = dir_xy.LengthSquared();
  // Degenerate horizontal component — a vertical look, a stationary
  // walker, or NaN coordinates. Written as !(x > eps) so NaN (which fails
  // every comparison) also lands here instead of being normalized into a
  // garbage probe point (the vertical-look NaN guard).
  if (!(len_sq > 1e-18)) {
    return prediction;
  }
  dir_xy = dir_xy.Normalized();
  const Vec3 extent = grid_->CellBounds(current_cell).Extent();
  const double stride = std::max(extent.x, extent.y);
  const Vec3 probe = position + dir_xy * stride;
  const CellId ahead = grid_->ClampedCellForPoint(probe);
  if (ahead == current_cell) {
    return prediction;  // Staying put: nothing to warm.
  }
  prediction.cell = ahead;
  prediction.valid = true;
  return prediction;
}

CellPrediction VelocityPredictor::PredictFromLook(const Viewpoint& viewpoint,
                                                  CellId current_cell) const {
  return PredictAlong(viewpoint.look, viewpoint.position, current_cell);
}

CellPrediction VelocityPredictor::Observe(const Viewpoint& viewpoint,
                                          CellId current_cell) {
  if (!has_last_) {
    last_position_ = viewpoint.position;
    has_last_ = true;
    return PredictFromLook(viewpoint, current_cell);
  }
  const Vec3 delta = viewpoint.position - last_position_;
  last_position_ = viewpoint.position;
  // EWMA with alpha = 0.5: heavy enough on the newest delta to track a
  // turn within a couple of frames, smooth enough to ride out one jittery
  // frame without re-planning.
  velocity_ = velocity_ * 0.5 + delta * 0.5;
  CellPrediction from_motion =
      PredictAlong(velocity_, viewpoint.position, current_cell);
  if (from_motion.valid) {
    return from_motion;
  }
  // Stationary (or moving within the cell): the look direction is the
  // only remaining signal.
  return PredictFromLook(viewpoint, current_cell);
}

void VelocityPredictor::Reset() {
  last_position_ = Vec3();
  velocity_ = Vec3();
  has_last_ = false;
}

}  // namespace hdov::prefetch
