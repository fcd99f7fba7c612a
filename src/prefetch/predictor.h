// Prefetch mode selection and the motion predictor feeding the prefetch
// pipeline (src/prefetch/, docs/prefetch.md).
//
// Two prediction flavors live here:
//  - PredictFromLook: the sync-mode heuristic — step one cell stride
//    along the horizontal look direction. A degenerate direction (a
//    vertical look, a zero or NaN vector) predicts nothing rather than
//    normalizing into a garbage probe for ClampedCellForPoint.
//  - Observe: the velocity model — an exponentially weighted average of
//    per-frame position deltas. Looking sideways while strafing predicts
//    the cell the walker is MOVING into, not the one they are facing;
//    when the walker is (near) stationary the look direction is the only
//    signal left and Observe falls back to it.

#ifndef HDOV_PREFETCH_PREDICTOR_H_
#define HDOV_PREFETCH_PREDICTOR_H_

#include <cstdint>

#include "geometry/vec3.h"
#include "scene/cell_grid.h"
#include "scene/session.h"

namespace hdov::prefetch {

// How a VisualSystem prefetches (VisualOptions::prefetch):
//  - kOff: no prefetcher is constructed at all. Billing, metrics, and
//    flight traffic are bit-identical to a build without the subsystem
//    (the zero-drift contract CI enforces against all committed
//    baselines).
//  - kSync: idle-frame model prefetch — on frames that fetch nothing,
//    fetch up to VisualOptions::prefetch_models_per_frame of the
//    look-predicted next cell's models on the frame's own clock. A step
//    of VisualSystem::RenderFrame; no prefetcher is constructed.
//  - kAsync: the overlapped pipeline — a speculative search of the
//    predicted cell runs at end of frame under a billing diversion, its
//    pages become resident the next frame, and billed reads of resident
//    pages are consumed for free (see storage/page_device.h).
enum class PrefetchMode : uint8_t {
  kOff = 0,
  kSync = 1,
  kAsync = 2,
};

// "off" / "sync" / "async": the row labels of the prefetch ablation.
const char* PrefetchModeName(PrefetchMode mode);

struct CellPrediction {
  CellId cell = kInvalidCell;
  bool valid = false;  // False: no usable direction, or staying put.
};

class VelocityPredictor {
 public:
  explicit VelocityPredictor(const CellGrid* grid) : grid_(grid) {}

  // Stateless look-direction prediction (the sync path's heuristic).
  CellPrediction PredictFromLook(const Viewpoint& viewpoint,
                                 CellId current_cell) const;

  // Folds this frame's position into the velocity average and predicts
  // the next cell from it (look-direction fallback when stationary).
  CellPrediction Observe(const Viewpoint& viewpoint, CellId current_cell);

  // The current smoothed per-frame velocity (for tests/inspection).
  const Vec3& velocity() const { return velocity_; }

  void Reset();

 private:
  // Steps `stride` along the horizontal component of `direction` from
  // `position`; invalid when the horizontal component is degenerate or
  // the probe stays in `current_cell`.
  CellPrediction PredictAlong(const Vec3& direction, const Vec3& position,
                              CellId current_cell) const;

  const CellGrid* grid_;
  Vec3 last_position_;
  Vec3 velocity_;
  bool has_last_ = false;
};

}  // namespace hdov::prefetch

#endif  // HDOV_PREFETCH_PREDICTOR_H_
