// Set-up shared by the workloads: the large-preset world built phase by
// phase through the public build entry points, the visual-system options
// every workload starts from, and the snapshot write.

#ifndef HDOV_PERFBENCH_WORLD_H_
#define HDOV_PERFBENCH_WORLD_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "ledger.h"
#include "storage/file_device.h"
#include "walkthrough/experiment_testbed.h"
#include "walkthrough/visual_system.h"

namespace perfbench {

// The large-preset world (ApplyLargeScalePreset: 1,222 objects, 576
// cells) with the default city seed, precomputed on `threads` workers.
// The world is the same for every benchmark seed, which picks only the
// viewpoints and sessions.
hdov::TestbedOptions WorldOptions(uint32_t threads);

// The program's default VisualOptions with the fanout the paper
// experiments use (8/3, as hdov::DefaultVisualOptions) and `threads`
// store-build workers. Prefetch is set explicitly by each workload so
// that no environment default changes what is measured.
hdov::VisualOptions BaseVisualOptions(uint32_t threads);

// hdov::BuildTestbed, split into its three public calls so that each
// gets a span: "scene.generate", "scene.grid", "visibility.precompute".
// Without `visibility` the table stays empty (enough to derive inputs).
hdov::Result<hdov::Testbed> BuildWorld(const hdov::TestbedOptions& options,
                                       SpanLog* spans, int parent,
                                       bool visibility = true);

// Writes and commits the full world snapshot (every storage scheme) at
// `path` under a "persist.snapshot_write" span.
hdov::Status WriteSnapshot(const std::string& path, const hdov::Testbed& bed,
                           const hdov::VisualOptions& options,
                           hdov::PersistStats* stats, SpanLog* spans,
                           int parent);

// Times the tree build (HdovBuilder::Build + Pack) and one store build of
// `scheme` on scratch devices, as "hdov.tree_build" / "hdov.store_build"
// spans. The workloads' own set-up builds both inside
// VisualSystem::Create or WriteWorldSnapshot, which give no split.
hdov::Status TimeTreeAndStoreBuild(const hdov::Testbed& bed,
                                   const hdov::VisualOptions& options,
                                   SpanLog* spans, int parent,
                                   double* tree_ms, double* store_ms);

}  // namespace perfbench

#endif  // HDOV_PERFBENCH_WORLD_H_
