#include "workloads.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>

#include "common/rng.h"
#include "hdov/builder.h"
#include "persist/snapshot.h"
#include "persist/world_codec.h"
#include "scene/session.h"
#include "server/walkthrough_server.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/trace_context.h"
#include "walkthrough/fidelity.h"
#include "walkthrough/frame_loop.h"
#include "walkthrough/visual_system.h"
#include "world.h"

namespace perfbench {
namespace {

using hdov::Status;
using hdov::telemetry::StageBreakdown;

constexpr double kMiB = 1024.0 * 1024.0;
// Fig. 3 prunes only DoV = 0 branches, so coverage is 1 up to the float
// rounding of the DoV sums.
constexpr double kCoverageTolerance = 1e-6;

constexpr hdov::MotionPattern kPatterns[] = {
    hdov::MotionPattern::kNormalWalk, hdov::MotionPattern::kTurnLeftRight,
    hdov::MotionPattern::kBackForward};

// SplitMix64 of (seed, salt): independent streams per input family.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// FNV-1a over raw bytes; the input digest of a run.
uint64_t Fnv1a(const void* data, size_t n,
               uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

double FileMb(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) / kMiB
                                      : 0.0;
}

void Check(bool ok, const std::string& name, RunResult* out) {
  if (!ok && std::find(out->failed_checks.begin(), out->failed_checks.end(),
                       name) == out->failed_checks.end()) {
    out->failed_checks.push_back(name);
  }
}

// The timed phase is cut into windows of at least this much wall time;
// throughput and latency percentiles are the medians over the windows,
// so a burst of interference from outside the process moves a few
// windows, not the result.
constexpr double kWindowSeconds = 0.5;

// Calibration bursts in the timed phase are at least this far apart.
constexpr uint64_t kBurstIntervalNs = 250'000'000;

// One half of the timed phase: the untraced or the traced blocks.
struct Samples {
  std::vector<double> latency_us;
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t stage_ns[hdov::telemetry::kNumTraceStages] = {};
  // Per closed window.
  std::vector<double> window_ops_per_s;
  std::vector<double> window_p50_us;
  std::vector<double> window_p99_us;
  size_t window_begin = 0;  // First latency of the open window.
  double window_wall_s = 0.0;

  void EndBlock(double block_wall_s) {
    window_wall_s += block_wall_s;
    if (window_wall_s >= kWindowSeconds) {
      CloseWindow();
    }
  }
  // Closes the open window; a final one shorter than half a window is
  // dropped unless it is the only one.
  void Finish() {
    if (window_wall_s >= kWindowSeconds / 2 || window_ops_per_s.empty()) {
      CloseWindow();
    }
  }
  void CloseWindow() {
    if (window_begin == latency_us.size()) {
      return;
    }
    std::vector<double> window(latency_us.begin() + window_begin,
                               latency_us.end());
    window_ops_per_s.push_back(
        Ratio(static_cast<double>(window.size()), window_wall_s));
    window_p50_us.push_back(Percentile(window, 0.5));
    window_p99_us.push_back(Percentile(std::move(window), 0.99));
    window_begin = latency_us.size();
    window_wall_s = 0.0;
  }

  void Add(double latency, bool ok) {
    latency_us.push_back(latency);
    ++ops;
    failed += ok ? 0 : 1;
  }
  void AddStages(const StageBreakdown& stages) {
    for (size_t i = 0; i < hdov::telemetry::kNumTraceStages; ++i) {
      stage_ns[i] += stages.ns[i];
    }
  }
  double MeanLatency() const {
    double sum = 0.0;
    for (double v : latency_us) {
      sum += v;
    }
    return Ratio(sum, static_cast<double>(latency_us.size()));
  }
};

// Device, store and clock readings of one VisualSystem.
struct SystemCounters {
  hdov::IoStats tree;
  hdov::IoStats store;
  hdov::IoStats model;
  hdov::VisibilityStoreStats vis;
  double clock_ms = 0.0;

  explicit SystemCounters(hdov::VisualSystem& s)
      : tree(s.tree_device().stats()),
        store(s.store_device().stats()),
        model(s.model_device().stats()),
        vis(s.store()->telemetry_stats()),
        clock_ms(s.clock().NowMillis()) {}

  uint64_t page_reads() const {
    return tree.page_reads + store.page_reads + model.page_reads;
  }
};

// What the reference pass counts, summed over its ops. Every field is a
// pure function of the seed: the simulated metrics and the count layers.
struct Counts {
  double ops = 0;
  double sim_ms = 0;
  double io_pages = 0;
  double fidelity = 0;
  double nodes_visited = 0;
  double vpages_fetched = 0;
  double hidden_pruned = 0;
  double internal_terminations = 0;
  double cell_flips = 0;
  double invisible_lookups = 0;
  double tree_reads = 0;
  double store_reads = 0;
  double model_reads = 0;
  double seeks = 0;
  double cache_hits = 0;
  double cache_misses = 0;
  double representations = 0;
  double models_fetched = 0;
  double frame_var_sum = 0;  // Summed per-session frame-time variance.
  double sessions = 0;

  void AddDevices(const SystemCounters& a, const SystemCounters& b) {
    tree_reads += b.tree.page_reads - a.tree.page_reads;
    store_reads += b.store.page_reads - a.store.page_reads;
    model_reads += b.model.page_reads - a.model.page_reads;
    seeks += (b.tree.seeks - a.tree.seeks) + (b.store.seeks - a.store.seeks) +
             (b.model.seeks - a.model.seeks);
    cell_flips += b.vis.cell_flips - a.vis.cell_flips;
    invisible_lookups += b.vis.invisible_lookups - a.vis.invisible_lookups;
  }
  void AddSearch(const hdov::SearchStats& s) {
    nodes_visited += s.nodes_visited;
    vpages_fetched += s.vpages_fetched;
    hidden_pruned += s.hidden_entries_pruned;
    internal_terminations += s.internal_terminations;
  }
  // One walkthrough frame: counters, result and fidelity.
  void AddFrame(const SystemCounters& before, const SystemCounters& after,
                const hdov::FrameResult& frame, size_t result_size,
                double combined_fidelity) {
    ops += 1;
    AddDevices(before, after);
    AddSearch(frame.search);
    sim_ms += frame.frame_time_ms;
    io_pages += static_cast<double>(frame.io_pages);
    cache_hits += static_cast<double>(frame.cache_hits);
    cache_misses += static_cast<double>(frame.cache_misses);
    models_fetched += static_cast<double>(frame.models_fetched);
    representations += static_cast<double>(result_size);
    fidelity += combined_fidelity;
  }

  // Per-op count layers (the simulated end-to-end metrics are set by the
  // workloads, which know their own op).
  void Emit(MetricSet* m) const {
    auto per_op = [this](double v) { return Ratio(v, ops); };
    m->Set("fidelity", per_op(fidelity), "ratio");
    m->Set("search.nodes_visited_per_op", per_op(nodes_visited), "count");
    m->Set("search.vpages_fetched_per_op", per_op(vpages_fetched), "count");
    m->Set("search.hidden_pruned_per_op", per_op(hidden_pruned), "count");
    m->Set("search.internal_terminations_per_op",
           per_op(internal_terminations), "count");
    m->Set("store.cell_flips_per_op", per_op(cell_flips), "count");
    m->Set("store.invisible_lookups_per_op", per_op(invisible_lookups),
           "count");
    m->Set("storage.tree_reads_per_op", per_op(tree_reads), "pages");
    m->Set("storage.store_reads_per_op", per_op(store_reads), "pages");
    m->Set("storage.model_reads_per_op", per_op(model_reads), "pages");
    m->Set("storage.seeks_per_op", per_op(seeks), "count");
    m->Set("storage.tree_cache_hit_ratio",
           Ratio(cache_hits, cache_hits + cache_misses), "ratio");
    m->Set("walkthrough.delta_reuse_ratio",
           representations == 0
               ? 0.0
               : 1.0 - models_fetched / representations,
           "ratio");
    m->Set("walkthrough.models_fetched_per_op", per_op(models_fetched),
           "count");
    m->Set("walkthrough.sim_frame_var", Ratio(frame_var_sum, sessions),
           "ms2");
  }
};

hdov::FidelityScore Score(const hdov::FidelityEvaluator& eval,
                          const hdov::Testbed& bed, const hdov::Vec3& p,
                          const std::vector<hdov::RetrievedLod>& result) {
  return eval.Evaluate(bed.table.cell(bed.grid.ClampedCellForPoint(p)),
                       result);
}

uint64_t HashFrames(const std::vector<hdov::Session>& sessions, uint64_t h) {
  for (const hdov::Session& s : sessions) {
    for (const hdov::Viewpoint& v : s.frames) {
      const double xs[] = {v.position.x, v.position.y, v.position.z,
                           v.look.x,     v.look.y,     v.look.z};
      h = Fnv1a(xs, sizeof(xs), h);
    }
  }
  return h;
}

std::vector<hdov::Session> MakeSessions(const hdov::Aabb& bounds,
                                        uint64_t seed, uint64_t salt,
                                        size_t count, size_t frames) {
  std::vector<hdov::Session> sessions;
  for (size_t i = 0; i < count; ++i) {
    hdov::SessionOptions opt;
    opt.num_frames = frames;
    opt.seed = Mix(seed, salt + i);
    hdov::Session s = hdov::RecordSession(kPatterns[i % 3], bounds, opt);
    std::string name = "u";
    name += std::to_string(i);
    name += '.';
    name += s.name;
    s.name = std::move(name);
    sessions.push_back(std::move(s));
  }
  return sessions;
}

// One workload. RunWorkload() calls Setup() several times (each drops
// the previous repetition's state), MakeInputs() once, Reference() once,
// then RunBlock() until the time is up, then Finish().
class Workload {
 public:
  virtual ~Workload() = default;

  virtual Status Setup(const RunConfig& config, SpanLog* spans,
                       int parent) = 0;
  virtual void MakeInputs(const hdov::Scene& scene,
                          const hdov::CellGrid& grid, uint64_t seed) = 0;
  virtual uint64_t Digest(uint64_t h) const = 0;
  // Untimed, deterministic pass over the op list: simulated metrics,
  // count layers and the correctness checks.
  virtual Status Reference(RunResult* out) = 0;
  virtual void BeginTimed() {}
  // Runs one block of ops into `samples`. Traced blocks also account
  // stage self times and record op spans.
  virtual Status RunBlock(bool traced, SpanLog* spans, Samples* samples) = 0;
  // Workload-specific metrics after the timed phase.
  virtual Status Finish(const RunConfig& config, SpanLog* spans,
                        RunResult* out) = 0;

  const hdov::Testbed& bed() const { return *bed_; }

 protected:
  Status BuildBed(const RunConfig& config, SpanLog* spans, int parent) {
    HDOV_ASSIGN_OR_RETURN(
        hdov::Testbed bed,
        BuildWorld(WorldOptions(config.threads), spans, parent));
    bed_ = std::make_unique<hdov::Testbed>(std::move(bed));
    return Status::OK();
  }

  std::unique_ptr<hdov::Testbed> bed_;
  Counts counts_;
};

// ---- query: independent Fig. 7/8 visibility queries -----------------

constexpr double kEtas[] = {0.0,   0.0005, 0.001, 0.002,
                            0.003, 0.004,  0.006, 0.008};
constexpr size_t kNumEtas = sizeof(kEtas) / sizeof(kEtas[0]);
constexpr hdov::StorageScheme kQuerySchemes[] = {
    hdov::StorageScheme::kHorizontal, hdov::StorageScheme::kVertical,
    hdov::StorageScheme::kIndexedVertical};
constexpr size_t kNumQuerySystems = std::size(kQuerySchemes);
// 1000 ops per (system, eta) pair; the timed phase cycles the list.
constexpr size_t kQueryOps = kNumQuerySystems * kNumEtas * 1000;
constexpr size_t kQueryBlockOps = 1200;

class QueryWorkload : public Workload {
 public:
  Status Setup(const RunConfig& config, SpanLog* spans, int parent) override {
    systems_.clear();
    HDOV_RETURN_IF_ERROR(BuildBed(config, spans, parent));
    for (hdov::StorageScheme scheme : kQuerySchemes) {
      ScopedSpan span(spans, "hdov.system_create", parent);
      hdov::VisualOptions opt = BaseVisualOptions(config.threads);
      opt.scheme = scheme;
      HDOV_ASSIGN_OR_RETURN(
          std::unique_ptr<hdov::VisualSystem> system,
          hdov::VisualSystem::Create(&bed_->scene, &bed_->grid, &bed_->table,
                                     opt));
      system->set_delta_enabled(false);
      systems_.push_back(std::move(system));
    }
    return Status::OK();
  }

  // Each op's viewpoint lies in another cell than the previous op on the
  // same system (cyclically), so every query pays a segment flip.
  void MakeInputs(const hdov::Scene& scene, const hdov::CellGrid& grid,
                  uint64_t seed) override {
    hdov::Rng rng(Mix(seed, 1));
    const hdov::Aabb& b = scene.bounds();
    auto draw = [&](size_t i, hdov::CellId avoid_a, hdov::CellId avoid_b) {
      Op op;
      op.system = static_cast<uint8_t>(i % kNumQuerySystems);
      op.eta = static_cast<uint8_t>((i / kNumQuerySystems) % kNumEtas);
      do {
        op.position = hdov::Vec3(rng.Uniform(b.min.x, b.max.x),
                                 rng.Uniform(b.min.y, b.max.y), 1.7);
        op.cell = grid.ClampedCellForPoint(op.position);
      } while (op.cell == avoid_a || op.cell == avoid_b);
      return op;
    };
    constexpr size_t k = kNumQuerySystems;
    ops_.clear();
    for (size_t i = 0; i < kQueryOps; ++i) {
      ops_.push_back(draw(i, i >= k ? ops_[i - k].cell : hdov::kInvalidCell,
                          hdov::kInvalidCell));
    }
    for (size_t i = 0; i < k; ++i) {
      const hdov::CellId prev = ops_[kQueryOps - k + i].cell;
      if (ops_[i].cell == prev) {
        ops_[i] = draw(i, prev, ops_[i + k].cell);
      }
    }
  }

  uint64_t Digest(uint64_t h) const override {
    for (const Op& op : ops_) {
      const double xs[] = {op.position.x, op.position.y,
                           static_cast<double>(op.system),
                           static_cast<double>(op.eta)};
      h = Fnv1a(xs, sizeof(xs), h);
    }
    return h;
  }

  Status Reference(RunResult* out) override {
    std::vector<hdov::FidelityEvaluator> evals;
    for (const auto& system : systems_) {
      evals.emplace_back(&bed_->scene, &system->tree());
    }
    for (const Op& op : ops_) {
      hdov::VisualSystem& system = *systems_[op.system];
      system.set_eta(kEtas[op.eta]);
      hdov::SearchStats stats;
      const SystemCounters before(system);
      const Status s = system.Query(op.position, /*fetch_models=*/true,
                                    &result_, &stats);
      if (!s.ok()) {
        Check(false, "query.status: " + s.ToString(), out);
        continue;
      }
      const SystemCounters after(system);
      const hdov::CellVisibility& truth = bed_->table.cell(op.cell);
      const hdov::FidelityScore score =
          evals[op.system].Evaluate(truth, result_);
      counts_.ops += 1;
      counts_.AddDevices(before, after);
      counts_.AddSearch(stats);
      counts_.sim_ms += after.clock_ms - before.clock_ms;
      counts_.io_pages +=
          static_cast<double>(after.page_reads() - before.page_reads());
      counts_.fidelity += score.combined;
      Check(score.coverage >= 1.0 - kCoverageTolerance, "coverage", out);
      if (kEtas[op.eta] == 0.0) {
        Check(IsVisibleSet(result_, truth), "eta0_visible_set", out);
      }
    }
    return Status::OK();
  }

  Status RunBlock(bool traced, SpanLog* spans, Samples* samples) override {
    for (size_t k = 0; k < kQueryBlockOps; ++k) {
      const Op& op = ops_[cursor_++ % ops_.size()];
      hdov::VisualSystem& system = *systems_[op.system];
      system.set_eta(kEtas[op.eta]);
      const uint64_t t0 = NowNs();
      if (traced) {
        hdov::telemetry::BeginStageAccounting();
      }
      const Status s = system.Query(op.position, /*fetch_models=*/true,
                                    &result_, nullptr);
      StageBreakdown stages;
      if (traced) {
        stages = hdov::telemetry::FinishStageAccounting();
      }
      const uint64_t t1 = NowNs();
      samples->Add((t1 - t0) / 1e3, s.ok());
      if (traced) {
        samples->AddStages(stages);
        spans->AddOp("query", op.system, t0, t1, stages);
      }
    }
    return Status::OK();
  }

  // The query path touches no file; its snapshot footprint is measured
  // after the timed phase by writing the same world's snapshot once.
  Status Finish(const RunConfig& config, SpanLog* spans,
                RunResult* out) override {
    MetricSet& m = out->metrics;
    counts_.Emit(&m);
    m.Set("sim_ms_per_op", Ratio(counts_.sim_ms, counts_.ops), "ms");
    m.Set("io_pages_per_op", Ratio(counts_.io_pages, counts_.ops), "pages");
    const std::string path = config.out_dir + "/query-footprint.snap";
    hdov::PersistStats stats;
    const int id = spans->Open("footprint");
    Status s = WriteSnapshot(path, *bed_, BaseVisualOptions(config.threads),
                             &stats, spans, id);
    spans->Close(id);
    m.Set("snapshot_mb", FileMb(path), "MB");
    m.Set("persist.snapshot_write_ms",
          spans->ChildMs(id, "persist.snapshot_write"), "ms");
    m.Set("persist.fsyncs", static_cast<double>(stats.fsyncs.load()),
          "count");
    std::remove(path.c_str());
    return s;
  }

 private:
  struct Op {
    hdov::Vec3 position;
    hdov::CellId cell = hdov::kInvalidCell;
    uint8_t system = 0;
    uint8_t eta = 0;
  };

  // At eta = 0 nothing terminates early: the result is exactly the
  // cell's visible objects.
  static bool IsVisibleSet(const std::vector<hdov::RetrievedLod>& result,
                           const hdov::CellVisibility& truth) {
    std::vector<uint64_t> got;
    for (const hdov::RetrievedLod& lod : result) {
      if (lod.kind != hdov::RetrievedLod::Kind::kObject) {
        return false;
      }
      got.push_back(lod.owner);
    }
    std::vector<uint64_t> want(truth.ids.begin(), truth.ids.end());
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    return got == want;
  }

  std::vector<std::unique_ptr<hdov::VisualSystem>> systems_;
  std::vector<Op> ops_;
  std::vector<hdov::RetrievedLod> result_;
  size_t cursor_ = 0;
};

// ---- walk: one file-backed system playing recorded sessions -----------

constexpr size_t kWalkSessions = 72;
constexpr size_t kWalkFrames = 600;

class WalkWorkload : public Workload {
 public:
  explicit WalkWorkload(const RunConfig& config)
      : path_(config.out_dir + "/walk-world.snap") {}
  ~WalkWorkload() override {
    system_.reset();
    loader_.reset();
    std::remove(path_.c_str());
  }

  Status Setup(const RunConfig& config, SpanLog* spans, int parent) override {
    system_.reset();
    loader_.reset();
    HDOV_RETURN_IF_ERROR(BuildBed(config, spans, parent));
    hdov::VisualOptions opt = BaseVisualOptions(config.threads);
    opt.scheme = hdov::StorageScheme::kIndexedVertical;
    opt.eta = 0.001;
    opt.prefetch = hdov::prefetch::PrefetchMode::kAsync;
    opt.prefetch_workers = 2;
    write_stats_ = std::make_unique<hdov::PersistStats>();
    HDOV_RETURN_IF_ERROR(WriteSnapshot(path_, *bed_, opt, write_stats_.get(),
                                       spans, parent));
    ScopedSpan span(spans, "persist.open", parent);
    read_stats_ = std::make_unique<hdov::PersistStats>();
    HDOV_ASSIGN_OR_RETURN(loader_,
                          hdov::SnapshotLoader::Open(path_, read_stats_.get()));
    // The tree cache holds the whole tree: this workload's data fits.
    hdov::SimClock clock;
    HDOV_ASSIGN_OR_RETURN(
        std::unique_ptr<hdov::FilePageDevice> tree,
        loader_->OpenDevice(hdov::kSectionTreeDevice, opt.disk, &clock));
    opt.tree_cache_pages = tree->page_count();
    HDOV_ASSIGN_OR_RETURN(
        system_, hdov::VisualSystem::CreateFromSnapshot(
                     *loader_, &bed_->scene, &bed_->grid, opt,
                     hdov::SnapshotLoadMode::kFileBacked));
    return Status::OK();
  }

  void MakeInputs(const hdov::Scene& scene, const hdov::CellGrid&,
                  uint64_t seed) override {
    sessions_ = MakeSessions(scene.bounds(), seed, 100, kWalkSessions,
                             kWalkFrames);
  }

  uint64_t Digest(uint64_t h) const override {
    return HashFrames(sessions_, h);
  }

  Status Reference(RunResult* out) override {
    if (system_->prefetcher() == nullptr) {
      return Status::Internal("walk: async prefetch is not wired");
    }
    hdov::FidelityEvaluator eval(&bed_->scene, &system_->tree());
    const hdov::prefetch::PrefetcherStats pf0 = system_->prefetcher()->stats();
    for (const hdov::Session& session : sessions_) {
      system_->ResetRuntime();
      hdov::SessionAccumulator acc;
      for (const hdov::Viewpoint& vp : session.frames) {
        hdov::FrameResult frame;
        const SystemCounters before(*system_);
        const Status s = system_->RenderFrame(vp, &frame);
        if (!s.ok()) {
          Check(false, "walk.status: " + s.ToString(), out);
          continue;
        }
        const SystemCounters after(*system_);
        const hdov::FidelityScore score =
            Score(eval, *bed_, vp.position, system_->last_result());
        counts_.AddFrame(before, after, frame, system_->last_result().size(),
                         score.combined);
        acc.Add(frame);
        Check(score.coverage >= 1.0 - kCoverageTolerance, "coverage", out);
      }
      if (acc.count() > 0) {
        hdov::SessionSummary summary;
        acc.FinishInto(&summary);
        counts_.frame_var_sum += summary.var_frame_time;
        counts_.sessions += 1;
      }
    }
    prefetch_ = system_->prefetcher()->stats();
    prefetch_.plans -= pf0.plans;
    prefetch_.issued_pages -= pf0.issued_pages;
    prefetch_.used_pages -= pf0.used_pages;
    prefetch_.cancelled_pages -= pf0.cancelled_pages;
    prefetch_.overlap_cost_millis -= pf0.overlap_cost_millis;
    Check(prefetch_.used_pages <= prefetch_.issued_pages,
          "prefetch_used_le_issued", out);
    return Status::OK();
  }

  void BeginTimed() override {
    file_bytes0_ = read_stats_->bytes_read.load();
    crc0_ = read_stats_->checksum_verifications.load();
  }

  Status RunBlock(bool traced, SpanLog* spans, Samples* samples) override {
    const hdov::Session& session = sessions_[cursor_++ % sessions_.size()];
    system_->ResetRuntime();
    hdov::FrameResult frame;
    for (const hdov::Viewpoint& vp : session.frames) {
      const uint64_t t0 = NowNs();
      if (traced) {
        hdov::telemetry::BeginStageAccounting();
      }
      const Status s = system_->RenderFrame(vp, &frame);
      StageBreakdown stages;
      if (traced) {
        stages = hdov::telemetry::FinishStageAccounting();
      }
      const uint64_t t1 = NowNs();
      samples->Add((t1 - t0) / 1e3, s.ok());
      if (traced) {
        samples->AddStages(stages);
        spans->AddOp("frame", 0, t0, t1, stages);
      }
    }
    timed_frames_ += session.frames.size();
    return Status::OK();
  }

  Status Finish(const RunConfig&, SpanLog*, RunResult* out) override {
    MetricSet& m = out->metrics;
    counts_.Emit(&m);
    const double frames = counts_.ops;
    m.Set("sim_ms_per_op", Ratio(counts_.sim_ms, frames), "ms");
    m.Set("io_pages_per_op", Ratio(counts_.io_pages, frames), "pages");
    m.Set("snapshot_mb", FileMb(path_), "MB");
    m.Set("persist.fsyncs", static_cast<double>(write_stats_->fsyncs.load()),
          "count");
    const double timed = static_cast<double>(timed_frames_);
    m.Set("storage.file_bytes_read_per_op",
          Ratio(static_cast<double>(read_stats_->bytes_read.load() -
                                    file_bytes0_),
                timed),
          "bytes");
    m.Set("storage.crc_checks_per_op",
          Ratio(static_cast<double>(
                    read_stats_->checksum_verifications.load() - crc0_),
                timed),
          "count");
    m.Set("prefetch.plans_per_op",
          Ratio(static_cast<double>(prefetch_.plans), frames), "count");
    m.Set("prefetch.issued_pages", static_cast<double>(prefetch_.issued_pages),
          "pages");
    m.Set("prefetch.used_pages", static_cast<double>(prefetch_.used_pages),
          "pages");
    m.Set("prefetch.cancelled_pages",
          static_cast<double>(prefetch_.cancelled_pages), "pages");
    m.Set("prefetch.wasted_ratio", prefetch_.WastedRatio(), "ratio");
    m.Set("prefetch.overlap_ms_per_op",
          Ratio(prefetch_.overlap_cost_millis, frames), "ms");
    // The cumulative counters must still hold the invariant after the
    // timed phase, whose prefetches raced the warm workers for real.
    const hdov::prefetch::PrefetcherStats pf = system_->prefetcher()->stats();
    Check(pf.used_pages <= pf.issued_pages, "prefetch_used_le_issued", out);
    return Status::OK();
  }

 private:
  std::string path_;
  std::unique_ptr<hdov::PersistStats> write_stats_;
  std::unique_ptr<hdov::PersistStats> read_stats_;
  std::unique_ptr<hdov::SnapshotLoader> loader_;
  std::unique_ptr<hdov::VisualSystem> system_;  // Reads through loader_.
  std::vector<hdov::Session> sessions_;
  size_t cursor_ = 0;
  uint64_t timed_frames_ = 0;
  uint64_t file_bytes0_ = 0;
  uint64_t crc0_ = 0;
  // Prefetcher counters over the reference pass.
  hdov::prefetch::PrefetcherStats prefetch_;
};

// ---- serve: a WalkthroughServer with 16 spread users -----------------

constexpr size_t kServeUsers = 16;
constexpr size_t kServeFrames = 300;
constexpr size_t kServeBatches = 8;

class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(const RunConfig& config)
      : path_(config.out_dir + "/serve-world.snap") {}
  ~ServeWorkload() override {
    server_.reset();
    loader_.reset();
    std::remove(path_.c_str());
  }

  Status Setup(const RunConfig& config, SpanLog* spans, int parent) override {
    server_.reset();
    loader_.reset();
    HDOV_RETURN_IF_ERROR(BuildBed(config, spans, parent));
    hdov::VisualOptions opt = BaseVisualOptions(config.threads);
    opt.scheme = hdov::StorageScheme::kIndexedVertical;
    opt.eta = 0.001;
    write_stats_ = std::make_unique<hdov::PersistStats>();
    HDOV_RETURN_IF_ERROR(WriteSnapshot(path_, *bed_, opt, write_stats_.get(),
                                       spans, parent));
    ScopedSpan span(spans, "persist.open", parent);
    HDOV_ASSIGN_OR_RETURN(loader_, hdov::SnapshotLoader::Open(path_));
    // The shared caches hold a quarter of the served store: the working
    // set does not fit, so the file path is exercised.
    hdov::SimClock clock;
    HDOV_ASSIGN_OR_RETURN(
        std::unique_ptr<hdov::FilePageDevice> store,
        loader_->OpenDevice(
            hdov::StoreDeviceSection(hdov::StorageSchemeName(opt.scheme)),
            opt.disk, &clock));
    options_ = hdov::ServerOptions();
    options_.snapshot_path = path_;
    options_.visual = opt;
    options_.shared_cache_pages =
        std::max<uint64_t>(1, store->page_count() / 4);
    options_.workers = config.threads;
    HDOV_ASSIGN_OR_RETURN(server_, hdov::WalkthroughServer::Open(options_));
    return Status::OK();
  }

  void MakeInputs(const hdov::Scene& scene, const hdov::CellGrid&,
                  uint64_t seed) override {
    batches_.clear();
    for (size_t b = 0; b < kServeBatches; ++b) {
      batches_.push_back(MakeSessions(scene.bounds(), seed,
                                      1000 + b * kServeUsers, kServeUsers,
                                      kServeFrames));
    }
  }

  uint64_t Digest(uint64_t h) const override {
    for (const auto& batch : batches_) {
      h = HashFrames(batch, h);
    }
    return h;
  }

  Status Reference(RunResult* out) override {
    double frames = 0;
    for (size_t b = 0; b < batches_.size(); ++b) {
      const std::vector<hdov::Session>& batch = batches_[b];
      HDOV_ASSIGN_OR_RETURN(hdov::ServerRunStats run, PlayBatch(batch));
      for (const hdov::ServerSessionRecord& r : run.sessions) {
        const double n = static_cast<double>(r.summary.num_frames);
        served_sim_ms_ += r.summary.avg_frame_time_ms * n;
        served_io_ += r.summary.avg_io_pages * n;
        frames += n;
      }
      if (b == 0) {
        HDOV_RETURN_IF_ERROR(CheckSolo(run, batch[0], out));
      }
    }
    served_sim_ms_ = Ratio(served_sim_ms_, frames);
    served_io_ = Ratio(served_io_, frames);

    // Fidelity and the count layers come from solo replays on fresh
    // systems: per-session billing is the same as served.
    for (const std::vector<hdov::Session>& batch : batches_) {
      for (const hdov::Session& session : batch) {
        HDOV_ASSIGN_OR_RETURN(std::unique_ptr<hdov::VisualSystem> solo,
                              OpenSolo());
        hdov::FidelityEvaluator eval(&bed_->scene, &solo->tree());
        hdov::SessionAccumulator acc;
        for (const hdov::Viewpoint& vp : session.frames) {
          hdov::FrameResult frame;
          const SystemCounters before(*solo);
          HDOV_RETURN_IF_ERROR(solo->RenderFrame(vp, &frame));
          const SystemCounters after(*solo);
          const hdov::FidelityScore score =
              Score(eval, *bed_, vp.position, solo->last_result());
          counts_.AddFrame(before, after, frame, solo->last_result().size(),
                           score.combined);
          acc.Add(frame);
          Check(score.coverage >= 1.0 - kCoverageTolerance, "coverage", out);
        }
        hdov::SessionSummary summary;
        acc.FinishInto(&summary);
        counts_.frame_var_sum += summary.var_frame_time;
        counts_.sessions += 1;
      }
    }
    return Status::OK();
  }

  Status RunBlock(bool traced, SpanLog* spans, Samples* samples) override {
    const std::vector<hdov::Session>& batch =
        batches_[cursor_++ % batches_.size()];
    const int span = spans->Open(traced ? "server.play.traced" : "server.play");
    hdov::Result<hdov::ServerRunStats> run = PlayBatch(batch);
    spans->Close(span);
    if (!run.ok()) {
      for (const hdov::Session& s : batch) {
        for (size_t i = 0; i < s.frames.size(); ++i) {
          samples->Add(0.0, false);
        }
      }
      return Status::OK();
    }
    for (const hdov::ServerSessionRecord& r : run->sessions) {
      for (size_t i = 0; i < r.frame_wall_ms.size(); ++i) {
        samples->Add((r.frame_queue_wait_ms[i] + r.frame_wall_ms[i]) * 1e3,
                     true);
      }
      if (traced) {
        samples->AddStages(r.stage_totals);
        for (size_t i = 0; i < r.frame_wall_ms.size(); ++i) {
          queue_wait_us_.push_back(r.frame_queue_wait_ms[i] * 1e3);
          service_us_.push_back(r.frame_wall_ms[i] * 1e3);
          service_ms_sum_ += r.frame_wall_ms[i];
        }
      }
    }
    if (traced) {
      traced_wall_ms_ += run->wall_ms;
      traced_frames_ += static_cast<double>(run->total_frames);
      batched_frames_ += static_cast<double>(run->batched_frames);
      store_cache_.hits += run->store_cache.hits;
      store_cache_.misses += run->store_cache.misses;
      store_cache_.evictions += run->store_cache.evictions;
      tree_cache_.hits += run->tree_cache.hits;
      tree_cache_.misses += run->tree_cache.misses;
      tree_cache_.evictions += run->tree_cache.evictions;
    }
    return Status::OK();
  }

  Status Finish(const RunConfig&, SpanLog*, RunResult* out) override {
    MetricSet& m = out->metrics;
    counts_.Emit(&m);
    m.Set("sim_ms_per_op", served_sim_ms_, "ms");
    m.Set("io_pages_per_op", served_io_, "pages");
    m.Set("snapshot_mb", FileMb(path_), "MB");
    m.Set("persist.fsyncs", static_cast<double>(write_stats_->fsyncs.load()),
          "count");
    m.Set("server.queue_wait_p50_us", Percentile(queue_wait_us_, 0.5), "us");
    m.Set("server.queue_wait_p99_us", Percentile(queue_wait_us_, 0.99), "us");
    m.Set("server.service_p50_us", Percentile(service_us_, 0.5), "us");
    m.Set("server.service_p99_us", Percentile(service_us_, 0.99), "us");
    m.Set("server.store_cache_hit_ratio", store_cache_.HitRate(), "ratio");
    m.Set("server.tree_cache_hit_ratio", tree_cache_.HitRate(), "ratio");
    m.Set("server.cache_evictions_per_op",
          Ratio(static_cast<double>(store_cache_.evictions +
                                    tree_cache_.evictions),
                traced_frames_),
          "count");
    m.Set("server.batched_frame_ratio", Ratio(batched_frames_, traced_frames_),
          "ratio");
    m.Set("server.worker_busy_ratio",
          Ratio(service_ms_sum_, options_.workers * traced_wall_ms_), "ratio");
    return Status::OK();
  }

 private:
  // Solo playback of `session` on a fresh file-backed system must bill
  // exactly what the server billed it.
  Status CheckSolo(const hdov::ServerRunStats& run,
                   const hdov::Session& session, RunResult* out) {
    HDOV_ASSIGN_OR_RETURN(std::unique_ptr<hdov::VisualSystem> solo,
                          OpenSolo());
    HDOV_ASSIGN_OR_RETURN(hdov::SessionSummary alone,
                          hdov::PlaySession(solo.get(), session));
    const hdov::SessionSummary* served = nullptr;
    for (const hdov::ServerSessionRecord& r : run.sessions) {
      if (r.summary.session_name == session.name) {
        served = &r.summary;
      }
    }
    Check(served != nullptr && SameSummary(*served, alone),
          "serve_matches_solo", out);
    return Status::OK();
  }

  hdov::Result<hdov::ServerRunStats> PlayBatch(
      const std::vector<hdov::Session>& batch) {
    for (const hdov::Session& s : batch) {
      HDOV_RETURN_IF_ERROR(server_->AddSession(s));
    }
    return server_->Play();
  }

  hdov::Result<std::unique_ptr<hdov::VisualSystem>> OpenSolo() {
    return hdov::VisualSystem::CreateFromSnapshot(
        *loader_, &bed_->scene, &bed_->grid, options_.visual,
        hdov::SnapshotLoadMode::kFileBacked);
  }

  static bool SameSummary(const hdov::SessionSummary& a,
                          const hdov::SessionSummary& b) {
    return a.num_frames == b.num_frames &&
           a.avg_frame_time_ms == b.avg_frame_time_ms &&
           a.var_frame_time == b.var_frame_time &&
           a.avg_query_time_ms == b.avg_query_time_ms &&
           a.avg_io_pages == b.avg_io_pages &&
           a.avg_light_io_pages == b.avg_light_io_pages &&
           a.avg_cache_hit_rate == b.avg_cache_hit_rate &&
           a.max_resident_bytes == b.max_resident_bytes;
  }

  std::string path_;
  std::unique_ptr<hdov::PersistStats> write_stats_;
  std::unique_ptr<hdov::SnapshotLoader> loader_;
  hdov::ServerOptions options_;
  std::unique_ptr<hdov::WalkthroughServer> server_;
  std::vector<std::vector<hdov::Session>> batches_;
  size_t cursor_ = 0;
  double served_sim_ms_ = 0;
  double served_io_ = 0;
  // Traced blocks only.
  std::vector<double> queue_wait_us_;
  std::vector<double> service_us_;
  double service_ms_sum_ = 0;
  double traced_wall_ms_ = 0;
  double traced_frames_ = 0;
  double batched_frames_ = 0;
  hdov::BufferPoolStats store_cache_;
  hdov::BufferPoolStats tree_cache_;
};

std::unique_ptr<Workload> MakeWorkload(const RunConfig& config) {
  if (config.workload == "query") {
    return std::make_unique<QueryWorkload>();
  }
  if (config.workload == "walk") {
    return std::make_unique<WalkWorkload>(config);
  }
  if (config.workload == "serve") {
    return std::make_unique<ServeWorkload>(config);
  }
  return nullptr;
}

uint64_t WorldDigest(const hdov::Scene& scene) {
  const hdov::Aabb& b = scene.bounds();
  const double xs[] = {b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z,
                       static_cast<double>(scene.size())};
  const std::string summary = scene.Summary();
  return Fnv1a(summary.data(), summary.size(), Fnv1a(xs, sizeof(xs)));
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "query" || name == "walk" || name == "serve";
}

hdov::Status RunWorkload(const RunConfig& config, SpanLog* spans,
                         RunResult* out) {
  std::unique_ptr<Workload> w = MakeWorkload(config);
  if (w == nullptr) {
    return Status::InvalidArgument("unknown workload " + config.workload);
  }
  MetricSet& m = out->metrics;
  Calibration calibration;

  // Set-up, repeated; setup_s and every build phase are their medians.
  constexpr int kSetupReps = 3;
  constexpr int kSetupBursts = 3;
  static const char* const kPhases[][2] = {
      {"scene.generate", "scene.generate_ms"},
      {"visibility.precompute", "visibility.precompute_ms"},
      {"persist.snapshot_write", "persist.snapshot_write_ms"},
      {"persist.open", "persist.open_ms"}};
  std::vector<double> setup_s;
  std::vector<double> setup_calibration_ms;
  std::vector<std::vector<double>> phase_ms(std::size(kPhases));
  for (int rep = 0; rep < kSetupReps; ++rep) {
    for (int i = 0; i < kSetupBursts; ++i) {
      setup_calibration_ms.push_back(calibration.BurstMs());
    }
    const int id = spans->Open("setup");
    const Status s = w->Setup(config, spans, id);
    spans->Close(id);
    HDOV_RETURN_IF_ERROR(s);
    setup_s.push_back(spans->DurationMs(id) / 1e3);
    for (size_t i = 0; i < std::size(kPhases); ++i) {
      phase_ms[i].push_back(spans->ChildMs(id, kPhases[i][0]));
    }
  }
  const double setup_calibration = Median(setup_calibration_ms);
  m.Set("setup_s",
        Median(setup_s) * Calibration::kReferenceMs / setup_calibration, "s");
  m.Set("raw.setup_s", Median(setup_s), "s");
  m.Set("machine.setup_calibration_ms", setup_calibration, "ms");
  // Read after set-up, before any op: the footprint of the built and
  // opened world. Later the flight recorder keeps a ring for every thread
  // that ever recorded, and every server Play starts new worker threads,
  // so a reading after the ops would depend on how many ops ran and on
  // how the allocator spread them over per-thread arenas.
  m.Set("peak_rss_mb", PeakRssMb(), "MB");
  for (size_t i = 0; i < std::size(kPhases); ++i) {
    m.Set(kPhases[i][1], Median(phase_ms[i]), "ms");
  }
  if (config.trace) {
    double tree_ms = 0.0;
    double store_ms = 0.0;
    const int id = spans->Open("build_split");
    hdov::VisualOptions opt = BaseVisualOptions(config.threads);
    HDOV_RETURN_IF_ERROR(TimeTreeAndStoreBuild(w->bed(), opt, spans, id,
                                               &tree_ms, &store_ms));
    spans->Close(id);
    m.Set("hdov.tree_build_ms", tree_ms, "ms");
    m.Set("hdov.store_build_ms", store_ms, "ms");
  }

  w->MakeInputs(w->bed().scene, w->bed().grid, config.seed);
  out->inputs_digest = w->Digest(WorldDigest(w->bed().scene));
  {
    ScopedSpan span(spans, "reference");
    HDOV_RETURN_IF_ERROR(w->Reference(out));
  }

  // Closed loop, one client. A traced run alternates untraced and traced
  // blocks, so the two halves see the same machine state and their
  // difference is the tracing overhead.
  Samples plain;
  Samples traced;
  std::vector<double> calibration_ms;
  uint64_t last_burst_ns = 0;
  w->BeginTimed();
  hdov::telemetry::FlightRecorder& flight =
      hdov::telemetry::GlobalFlightRecorder();
  const uint64_t events0 = flight.events_recorded();
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(config.seconds * 1e9);
  {
    ScopedSpan span(spans, "timed");
    for (uint64_t block = 0;
         NowNs() < deadline || (config.trace && block < 2); ++block) {
      const bool is_traced = config.trace && block % 2 == 1;
      Samples* samples = is_traced ? &traced : &plain;
      const uint64_t t0 = NowNs();
      HDOV_RETURN_IF_ERROR(w->RunBlock(is_traced, spans, samples));
      samples->EndBlock((NowNs() - t0) / 1e9);
      if (NowNs() - last_burst_ns >= kBurstIntervalNs) {
        calibration_ms.push_back(calibration.BurstMs());
        last_burst_ns = NowNs();
      }
    }
  }
  plain.Finish();
  traced.Finish();
  const double events = static_cast<double>(flight.events_recorded() - events0);
  out->attempted = plain.ops + traced.ops;
  out->failed = plain.failed + traced.failed;

  HDOV_RETURN_IF_ERROR(w->Finish(config, spans, out));

  const double ops_per_s = Median(plain.window_ops_per_s);
  const double p50_us = Median(plain.window_p50_us);
  const double p99_us = Median(plain.window_p99_us);
  const double to_reference =
      Calibration::kReferenceMs / Median(calibration_ms);
  m.Set("ops_per_s", ops_per_s / to_reference, "1/s");
  m.Set("latency_p50_us", p50_us * to_reference, "us");
  m.Set("latency_p99_us", p99_us * to_reference, "us");
  m.Set("raw.ops_per_s", ops_per_s, "1/s");
  m.Set("raw.latency_p50_us", p50_us, "us");
  m.Set("raw.latency_p99_us", p99_us, "us");
  m.Set("machine.calibration_ms", Median(calibration_ms), "ms");
  m.Set("success_ratio",
        1.0 - Ratio(static_cast<double>(out->failed),
                    static_cast<double>(out->attempted)),
        "ratio");

  const double traced_ops = static_cast<double>(traced.ops);
  static const char* const kStages[] = {"other", "search", "fetch", "render",
                                        "prefetch"};
  for (size_t i = 0; i < std::size(kStages); ++i) {
    m.Set(std::string(kStages[i]) + ".us_per_op",
          Ratio(traced.stage_ns[i] / 1e3, traced_ops), "us");
  }
  m.Set("telemetry.flight_events_per_op",
        Ratio(events, static_cast<double>(out->attempted)), "count");
  m.Set("trace.overhead_us_per_op",
        config.trace ? traced.MeanLatency() - plain.MeanLatency() : 0.0, "us");
  return Status::OK();
}

hdov::Result<uint64_t> InputsDigest(const RunConfig& config) {
  std::unique_ptr<Workload> w = MakeWorkload(config);
  if (w == nullptr) {
    return Status::InvalidArgument("unknown workload " + config.workload);
  }
  SpanLog spans(0);
  HDOV_ASSIGN_OR_RETURN(
      hdov::Testbed bed,
      BuildWorld(WorldOptions(config.threads), &spans,
                 -1, /*visibility=*/false));
  w->MakeInputs(bed.scene, bed.grid, config.seed);
  return w->Digest(WorldDigest(bed.scene));
}

}  // namespace perfbench
