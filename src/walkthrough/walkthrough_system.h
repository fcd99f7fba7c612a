// WalkthroughSystem: the interface shared by VISUAL, REVIEW, the
// LoD-R-tree and the naive baseline. A system owns its simulated devices;
// RenderFrame runs one query + fetch + render cycle for a viewpoint and
// reports billed costs through the one FrameMeter every system uses.

#ifndef HDOV_WALKTHROUGH_WALKTHROUGH_SYSTEM_H_
#define HDOV_WALKTHROUGH_WALKTHROUGH_SYSTEM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "hdov/search.h"
#include "scene/session.h"
#include "storage/io_stats.h"
#include "storage/page_device.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/telemetry.h"
#include "walkthrough/render_model.h"

namespace hdov {

struct FrameResult {
  double frame_time_ms = 0.0;   // query_time + simulated render time.
  double query_time_ms = 0.0;   // Simulated disk time of this frame.
  uint64_t io_pages = 0;        // Page reads billed this frame (all files).
  uint64_t light_io_pages = 0;  // Index + V-page reads only (no models).
  uint64_t rendered_triangles = 0;
  size_t models_fetched = 0;    // Representations newly read from disk.
  uint64_t resident_bytes = 0;  // Model memory held after the frame.

  // Per-device byte breakdown of this frame's reads (index = tree /
  // R-tree / cell-list file, store = V-page file, model = model data).
  uint64_t index_bytes_read = 0;
  uint64_t store_bytes_read = 0;
  uint64_t model_bytes_read = 0;

  // Threshold-search decision counts (HDoV systems; zero elsewhere).
  SearchStats search;
  // Tree-page buffer-pool traffic this frame (0 when no pool is wired).
  // The counts let aggregators weigh frames by their traffic instead of
  // averaging per-frame ratios.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  // Hit rate over this frame's pool traffic (0 when no pool is wired).
  double cache_hit_rate = 0.0;
};

class WalkthroughSystem {
 public:
  virtual ~WalkthroughSystem() { DetachTelemetry(); }

  virtual std::string name() const = 0;

  virtual Status RenderFrame(const Viewpoint& viewpoint, FrameResult* result)
      = 0;

  // Drops all runtime state (loaded models, current cell) so sessions and
  // independent queries start cold. Does not reset device statistics.
  virtual void ResetRuntime() = 0;

  // Enables/disables the system's delta ("complement") search. Disabled
  // means every frame re-fetches its full result set — the mode used for
  // the independent-query experiments (Figs. 7-9).
  virtual void set_delta_enabled(bool enabled) { delta_enabled_ = enabled; }
  bool delta_enabled() const { return delta_enabled_; }

  // The representation set retrieved by the last RenderFrame (object or
  // internal LoDs); input to the fidelity metric.
  virtual const std::vector<RetrievedLod>& last_result() const = 0;

  // Cumulative I/O across all of the system's devices.
  virtual IoStats TotalIoStats() const = 0;
  virtual void ResetIoStats() = 0;

  // Wires the system into a telemetry context: its device / store / search
  // counters register under `prefix` (e.g. `<prefix>.io.tree.page_reads`)
  // and every RenderFrame appends one FrameRecord. The system unregisters
  // everything on detach or destruction, so `telemetry` must outlive the
  // attachment, not the system.
  void AttachTelemetry(telemetry::Telemetry* telemetry,
                       const std::string& prefix) {
    DetachTelemetry();
    if (telemetry == nullptr) {
      return;
    }
    telemetry_ = telemetry;
    telemetry_prefix_ = prefix;
    RegisterTelemetry();
    frame_time_hist_ = telemetry_->metrics().GetHistogram(
        prefix + ".frame.time_ms",
        telemetry::ExponentialBuckets(0.25, 2.0, 14));
  }

  void DetachTelemetry() {
    if (telemetry_ != nullptr) {
      UnregisterTelemetry();
      telemetry_->metrics().UnregisterPrefix(telemetry_prefix_ + ".");
      telemetry_ = nullptr;
      telemetry_prefix_.clear();
      frame_time_hist_ = nullptr;
    }
  }

  telemetry::Telemetry* telemetry() const { return telemetry_; }
  const std::string& telemetry_prefix() const { return telemetry_prefix_; }

 protected:
  bool TelemetryOn() const { return telemetry_ != nullptr; }

  // Flight-recorder identity of this system: its name(), interned once.
  // Lazy because name() is virtual and unavailable in the base ctor.
  uint16_t FlightCode() {
    if (flight_code_ == 0) {
      flight_code_ = telemetry::FlightInternName(name());
    }
    return flight_code_;
  }

  // Monotone frame index for kFrameBegin/kFrameEnd events — independent
  // of telemetry attachment, so recorder timelines stay continuous even
  // when no Telemetry is wired in.
  uint64_t NextFlightFrame() { return flight_frame_++; }

  // Shared delta-search toggle; every system's fetch path consults it.
  bool delta_enabled_ = true;

  // Called once per AttachTelemetry; subclasses register their devices,
  // counters and histograms under telemetry_prefix(). The base registers
  // `<prefix>.frame.time_ms` after it.
  virtual void RegisterTelemetry() {}
  // Called by DetachTelemetry before the prefix is dropped; subclasses
  // release registrations that remember the registry they went into.
  virtual void UnregisterTelemetry() {}

  // Frame accounting shared by every RenderFrame. Constructing it
  // snapshots the clock and the devices' stats; Bill fills the frame's
  // simulated disk time and its page and byte counts, and Finish also
  // fills the render totals, attributes the billed pages to the flight
  // frame, observes `<prefix>.frame.time_ms` and emits the FrameRecord.
  // Devices: index = tree / R-tree / cell lists, store = the V-page file
  // (null for systems without one), model = model data.
  class FrameMeter {
   public:
    FrameMeter(WalkthroughSystem* system, const SimClock& clock,
               const PageDevice& index, const PageDevice* store,
               const PageDevice& model)
        : system_(system), clock_(clock), index_(index), store_(store),
          model_(model), t0_(clock.NowMillis()), index0_(index.stats()),
          store0_(store != nullptr ? store->stats() : IoStats()),
          model0_(model.stats()) {}

    void Bill(FrameResult* result) const {
      const IoStats index_d = index_.stats().Delta(index0_);
      const IoStats store_d =
          store_ != nullptr ? store_->stats().Delta(store0_) : IoStats();
      const IoStats model_d = model_.stats().Delta(model0_);
      result->query_time_ms = clock_.NowMillis() - t0_;
      result->light_io_pages = index_d.page_reads + store_d.page_reads;
      result->io_pages = result->light_io_pages + model_d.page_reads;
      result->index_bytes_read = index_d.bytes_read;
      result->store_bytes_read = store_d.bytes_read;
      result->model_bytes_read = model_d.bytes_read;
    }

    // `cell` labels the FrameRecord (0 for systems without viewing
    // cells).
    void Finish(uint64_t triangles, size_t fetched, uint64_t resident_bytes,
                const RenderCostModel& render, uint64_t cell,
                telemetry::FlightFrameScope* flight,
                FrameResult* result) const {
      Bill(result);
      result->rendered_triangles = triangles;
      result->models_fetched = fetched;
      result->resident_bytes = resident_bytes;
      result->frame_time_ms =
          result->query_time_ms + render.FrameMillis(triangles);
      flight->set_io_pages(result->io_pages);
      if (system_->TelemetryOn()) {
        system_->frame_time_hist_->Observe(result->frame_time_ms);
        system_->EmitFrameRecord(*result, cell);
      }
    }

   private:
    WalkthroughSystem* system_;
    const SimClock& clock_;
    const PageDevice& index_;
    const PageDevice* store_;
    const PageDevice& model_;
    double t0_;
    IoStats index0_;
    IoStats store0_;
    IoStats model0_;
  };

  // Appends the per-frame record for an instrumented frame (no-op when
  // telemetry is off).
  void EmitFrameRecord(const FrameResult& result, uint64_t cell,
                       const std::string& kind = "frame") {
    if (!TelemetryOn()) {
      return;
    }
    telemetry::FrameRecord rec;
    rec.system = telemetry_prefix_;
    rec.kind = kind;
    rec.cell = cell;
    rec.frame_time_ms = result.frame_time_ms;
    rec.query_time_ms = result.query_time_ms;
    rec.io_pages = result.io_pages;
    rec.light_io_pages = result.light_io_pages;
    rec.index_bytes_read = result.index_bytes_read;
    rec.store_bytes_read = result.store_bytes_read;
    rec.model_bytes_read = result.model_bytes_read;
    rec.nodes_visited = result.search.nodes_visited;
    rec.vpages_fetched = result.search.vpages_fetched;
    rec.hidden_pruned = result.search.hidden_entries_pruned;
    rec.internal_terminations = result.search.internal_terminations;
    rec.cache_hit_rate = result.cache_hit_rate;
    rec.rendered_triangles = result.rendered_triangles;
    rec.models_fetched = result.models_fetched;
    rec.resident_bytes = result.resident_bytes;
    telemetry_->RecordFrame(std::move(rec));
  }

 private:
  telemetry::Telemetry* telemetry_ = nullptr;
  std::string telemetry_prefix_;
  telemetry::Histogram* frame_time_hist_ = nullptr;  // Valid while attached.
  uint16_t flight_code_ = 0;
  uint64_t flight_frame_ = 0;
};

}  // namespace hdov

#endif  // HDOV_WALKTHROUGH_WALKTHROUGH_SYSTEM_H_
