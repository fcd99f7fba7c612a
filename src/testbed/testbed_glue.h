// Shared experiment-world glue, usable by benches, tools and tests alike
// without linking any bench code. Wraps the raw builders in
// walkthrough/experiment_testbed.h with the conventions every experiment
// binary shares: the HDOV_BENCH_SCALE environment knob, the process-wide
// --threads / --db state, abort-on-error construction (an experiment has
// no meaningful recovery path), random query viewpoints, and the summary
// banner. bench/bench_util.h re-exports these under its historical
// hdov::bench names.

#ifndef HDOV_TESTBED_TESTBED_GLUE_H_
#define HDOV_TESTBED_TESTBED_GLUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "walkthrough/experiment_testbed.h"
#include "walkthrough/visual_system.h"

namespace hdov::testbed {

// True when HDOV_BENCH_SCALE=large: run closer to the paper's dataset
// sizes (slower); the default is sized to finish in seconds while
// preserving every qualitative shape.
bool LargeScale();

// Process-wide worker-thread count (the benches' --threads flag lands
// here). Thread count never changes any simulated number — only build
// wall-clock — so the figures are unaffected.
uint32_t& DefaultThreads();

// Process-wide snapshot path (the benches' --db flag). When non-empty,
// BuildTestbedOrDie and MakeVisualSystem load the world from that
// tools/hdov_build snapshot instead of rebuilding; loading changes only
// wall-clock, never results or simulated counters.
std::string& DefaultDbPath();

// The paper-scale preset shared by the scale knob and hdov_build
// --scale=large; explicit flags override it.
void ApplyLargeScalePreset(TestbedOptions* opt);

// Default world options: DefaultThreads() plus the large preset when the
// scale knob asks for it.
TestbedOptions DefaultTestbedOptions();

// Builds the experiment environment — or, with DefaultDbPath() set, loads
// it from the snapshot — aborting on error.
Testbed BuildTestbedOrDie(const TestbedOptions& opt);

// hdov::DefaultVisualOptions over DefaultThreads().
VisualOptions DefaultVisualOptions();

// VisualSystem::Create over the testbed — or CreateFromSnapshot when a
// db path is set, skipping the tree/store/model build entirely. `bed`
// must be the testbed returned by BuildTestbedOrDie (with --db, the
// snapshot's own world), and must outlive the system.
Result<std::unique_ptr<VisualSystem>> MakeVisualSystem(
    const Testbed& bed, const VisualOptions& options);

// `count` random query viewpoints at eye height inside the world bounds.
std::vector<Vec3> RandomViewpoints(const Aabb& bounds, size_t count,
                                   uint64_t seed);

void PrintTestbedSummary(const Testbed& bed);

double MB(uint64_t bytes);

}  // namespace hdov::testbed

#endif  // HDOV_TESTBED_TESTBED_GLUE_H_
