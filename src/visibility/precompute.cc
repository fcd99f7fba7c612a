#include "visibility/precompute.h"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <memory>

#include "common/thread_pool.h"
#include "telemetry/trace.h"

namespace hdov {

float CellVisibility::DovOf(ObjectId id) const {
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) {
    return 0.0f;
  }
  return dov[static_cast<size_t>(it - ids.begin())];
}

double VisibilityTable::AverageVisibleObjects() const {
  if (cells_.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const CellVisibility& cell : cells_) {
    total += static_cast<double>(cell.num_visible());
  }
  return total / static_cast<double>(cells_.size());
}

Vec3 PushOutOfObjects(const Scene& scene, Vec3 p) {
  constexpr double kClearance = 0.05;
  for (int round = 0; round < 4; ++round) {
    bool moved = false;
    for (const Object& obj : scene.objects()) {
      const Aabb& box = obj.mbr;
      if (!box.Contains(p)) {
        continue;
      }
      // Penetration depth along each axis face pair (xy only: stepping
      // over a building is not an option for an eye-height viewpoint).
      const double candidates[4] = {
          p.x - box.min.x,  // Exit through min x.
          box.max.x - p.x,  // Exit through max x.
          p.y - box.min.y,
          box.max.y - p.y,
      };
      int best = 0;
      for (int i = 1; i < 4; ++i) {
        if (candidates[i] < candidates[best]) {
          best = i;
        }
      }
      switch (best) {
        case 0:
          p.x = box.min.x - kClearance;
          break;
        case 1:
          p.x = box.max.x + kClearance;
          break;
        case 2:
          p.y = box.min.y - kClearance;
          break;
        case 3:
          p.y = box.max.y + kClearance;
          break;
      }
      moved = true;
    }
    if (!moved) {
      return p;
    }
  }
  return p;
}

namespace {

std::vector<Vec3> CellSamples(const CellGrid& grid, CellId id,
                              int samples_per_cell) {
  const Aabb box = grid.CellBounds(id);
  const Vec3 center = box.Center();
  std::vector<Vec3> samples;
  samples.push_back(center);
  if (samples_per_cell > 1) {
    // Mid-height corners (the xy extremes dominate the visibility
    // variation; eye height varies little).
    for (int i = 0; i < 4; ++i) {
      Vec3 corner = box.Corner(i);
      samples.emplace_back(corner.x, corner.y, center.z);
      if (static_cast<int>(samples.size()) >= samples_per_cell) {
        break;
      }
    }
  }
  if (static_cast<int>(samples.size()) < samples_per_cell) {
    for (int i = 0; i < 8 && static_cast<int>(samples.size()) <
                                 samples_per_cell;
         ++i) {
      samples.push_back(box.Corner(i));
    }
  }
  return samples;
}

// Exact bit pattern of a viewpoint: samples render identically when their
// coordinates are bit-identical.
std::array<uint64_t, 3> ViewpointKey(const Vec3& p) {
  return {std::bit_cast<uint64_t>(p.x), std::bit_cast<uint64_t>(p.y),
          std::bit_cast<uint64_t>(p.z)};
}

}  // namespace

Result<VisibilityTable> PrecomputeVisibility(
    const Scene& scene, const CellGrid& grid, const PrecomputeOptions& options,
    const std::function<void(uint32_t, uint32_t)>& progress) {
  if (options.samples_per_cell < 1) {
    return Status::InvalidArgument("precompute: need at least one sample");
  }
  const uint32_t num_cells = grid.num_cells();

  telemetry::Telemetry* tel = options.telemetry;
  const bool tel_on = tel != nullptr && tel->enabled();
  telemetry::Counter* ctr_cells = nullptr;
  telemetry::Counter* ctr_samples = nullptr;
  telemetry::Counter* ctr_viewpoints = nullptr;
  telemetry::Counter* ctr_nudged = nullptr;
  telemetry::Histogram* visible_hist = nullptr;
  telemetry::TraceRecorder* trace =
      tel_on && tel->tracer().enabled() ? &tel->tracer() : nullptr;
  if (tel_on) {
    telemetry::MetricsRegistry& m = tel->metrics();
    ctr_cells = m.GetCounter("precompute.cells");
    ctr_samples = m.GetCounter("precompute.samples");
    ctr_viewpoints = m.GetCounter("precompute.viewpoints");
    ctr_nudged = m.GetCounter("precompute.nudged_samples");
    visible_hist =
        m.GetHistogram("precompute.visible_per_cell",
                       telemetry::ExponentialBuckets(1.0, 2.0, 16));
  }

  ThreadPool pool(ThreadPool::ResolveThreads(options.threads));
  if (tel_on) {
    tel->metrics().GetGauge("precompute.threads")
        ->Set(static_cast<double>(pool.num_threads() + 1));
  }

  // 1. Every cell's samples, nudged out of objects.
  std::vector<std::vector<Vec3>> samples(num_cells);
  std::vector<uint64_t> nudged(num_cells, 0);
  pool.ParallelFor(num_cells, [&](size_t, size_t c) {
    samples[c] = CellSamples(grid, static_cast<CellId>(c),
                             options.samples_per_cell);
    if (options.avoid_object_interiors) {
      for (Vec3& p : samples[c]) {
        const Vec3 moved = PushOutOfObjects(scene, p);
        if (!(moved == p)) {
          ++nudged[c];
        }
        p = moved;
      }
    }
  });

  // 2. Neighbouring cells share corner samples: number the distinct
  // viewpoints in cell order and map each cell onto them.
  std::vector<Vec3> viewpoints;
  std::vector<std::vector<uint32_t>> cell_viewpoints(num_cells);
  {
    std::map<std::array<uint64_t, 3>, uint32_t> index;
    for (uint32_t c = 0; c < num_cells; ++c) {
      for (const Vec3& p : samples[c]) {
        const auto [it, inserted] = index.try_emplace(
            ViewpointKey(p), static_cast<uint32_t>(viewpoints.size()));
        if (inserted) {
          viewpoints.push_back(p);
        }
        cell_viewpoints[c].push_back(it->second);
      }
    }
  }
  if (tel_on) {
    ctr_viewpoints->Add(viewpoints.size());
  }

  // 3. Render each distinct viewpoint once. Each slot lazily builds its
  // own DovComputer (the cube-map buffer inside is the only mutable state
  // a render touches) and keeps only the visible objects, in a slot of
  // its own: a dense DoV vector per viewpoint would outweigh the table.
  std::vector<std::unique_ptr<DovComputer>> computers(pool.num_slots());
  std::vector<CellVisibility> viewpoint_dov(viewpoints.size());
  pool.ParallelFor(viewpoints.size(), [&](size_t slot, size_t v) {
    if (computers[slot] == nullptr) {
      computers[slot] = std::make_unique<DovComputer>(&scene, options.dov);
    }
    const std::vector<float>& dov =
        computers[slot]->ComputePointDov(viewpoints[v]);
    CellVisibility& out = viewpoint_dov[v];
    const size_t visible = static_cast<size_t>(std::count_if(
        dov.begin(), dov.end(), [](float d) { return d > 0.0f; }));
    out.ids.reserve(visible);
    out.dov.reserve(visible);
    for (ObjectId id = 0; id < dov.size(); ++id) {
      if (dov[id] > 0.0f) {
        out.ids.push_back(id);
        out.dov.push_back(dov[id]);
      }
    }
  });

  // 4. Region DoV (Eq. 2): per object, the max over the cell's viewpoints.
  // Max is order-free and a viewpoint's DoV depends only on the point, so
  // every cell is bit-identical to rendering its own samples.
  telemetry::ScopedSpan root(trace, "precompute");
  root.Attr("cells", static_cast<double>(num_cells));
  root.Attr("viewpoints", static_cast<double>(viewpoints.size()));
  root.Attr("threads", static_cast<double>(pool.num_threads() + 1));
  std::vector<CellVisibility> cells(num_cells);
  std::vector<float> region(scene.size(), 0.0f);
  for (uint32_t c = 0; c < num_cells; ++c) {
    for (uint32_t v : cell_viewpoints[c]) {
      const CellVisibility& point = viewpoint_dov[v];
      for (size_t k = 0; k < point.ids.size(); ++k) {
        float& r = region[point.ids[k]];
        r = std::max(r, point.dov[k]);
      }
    }
    CellVisibility& cell = cells[c];
    for (ObjectId id = 0; id < region.size(); ++id) {
      if (region[id] > 0.0f) {
        cell.ids.push_back(id);
        cell.dov.push_back(region[id]);
        region[id] = 0.0f;
      }
    }
    if (tel_on) {
      ctr_cells->Increment();
      ctr_samples->Add(samples[c].size());
      ctr_nudged->Add(nudged[c]);
      visible_hist->Observe(static_cast<double>(cell.num_visible()));
    }
    if (trace != nullptr) {
      telemetry::ScopedSpan span(trace, "cell");
      span.Attr("cell", static_cast<double>(c));
      span.Attr("samples", static_cast<double>(samples[c].size()));
      span.Attr("visible", static_cast<double>(cell.num_visible()));
    }
    if (progress) {
      progress(c + 1, num_cells);
    }
  }
  return VisibilityTable(std::move(cells));
}

}  // namespace hdov
