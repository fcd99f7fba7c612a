// The shared experiment environment: the synthetic city, viewing-cell
// grid, and precomputed visibility table every experiment binary runs
// against. Lives here (not in bench/) so the snapshot build tool, the
// benchmarks, and the tests all construct — or persist and reload —
// exactly the same world. bench/bench_util.h wraps these with the
// bench-flag defaults (HDOV_BENCH_SCALE, --threads).

#ifndef HDOV_WALKTHROUGH_EXPERIMENT_TESTBED_H_
#define HDOV_WALKTHROUGH_EXPERIMENT_TESTBED_H_

#include <cstdint>

#include "common/result.h"
#include "persist/snapshot.h"
#include "scene/cell_grid.h"
#include "scene/object.h"
#include "visibility/precompute.h"
#include "walkthrough/visual_system.h"

namespace hdov {

struct TestbedOptions {
  int blocks = 16;        // blocks x blocks city.
  int cells = 16;         // cells x cells viewing grid.
  int face_resolution = 64;
  int samples_per_cell = 1;
  uint64_t seed = 20030101;
  uint32_t threads = 1;   // Precompute workers (0 = hardware).
};

struct Testbed {
  Scene scene;
  CellGrid grid;
  VisibilityTable table;
};

// Generates the proxy-mode city, builds the cell grid over its bounds, and
// precomputes the visibility table. Deterministic for fixed options.
Result<Testbed> BuildTestbed(const TestbedOptions& options);

// Experiment-standard VISUAL configuration: fanout 8 so that leaf nodes
// cover block-scale object clusters — the granularity at which distant
// clusters' aggregate DoV falls below the paper's eta range [0, 0.008] —
// and sync prefetch (two representations per idle frame), which the
// walkthrough figures and their baselines are pinned on.
VisualOptions DefaultVisualOptions(uint32_t build_threads = 1);

// Writes the view-invariant world sections ("scene", "cellgrid",
// "vistable") into an open snapshot.
Status WriteWorldSections(SnapshotWriter* writer, const Testbed& bed);

// Rebuilds a Testbed from those sections. The grid is rebuilt
// deterministically from the decoded scene bounds and grid options, so the
// loaded testbed is identical to the one the snapshot was written from.
Result<Testbed> LoadWorldSections(const SnapshotLoader& snapshot);

// Writes a complete world snapshot: the world sections plus the packed
// HDoV-tree, the model store, and ALL storage schemes (each on its own
// device section), so any scheme can be loaded without rebuilding. This is
// the core of tools/hdov_build; `options` supplies the build parameters
// (its `scheme` field is ignored — every scheme is written).
Status WriteWorldSnapshot(SnapshotWriter* writer, const Testbed& bed,
                          const VisualOptions& options);

}  // namespace hdov

#endif  // HDOV_WALKTHROUGH_EXPERIMENT_TESTBED_H_
