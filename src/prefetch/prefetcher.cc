#include "prefetch/prefetcher.h"

#include <utility>

#include "telemetry/flight_recorder.h"

namespace hdov::prefetch {

Prefetcher::Prefetcher(const PrefetcherWiring& wiring)
    : wiring_(wiring),
      predictor_(wiring.grid),
      flight_code_(telemetry::FlightInternName("prefetch")) {}

Result<std::unique_ptr<Prefetcher>> Prefetcher::Create(
    const PrefetcherWiring& wiring) {
  if (wiring.grid == nullptr || wiring.scene == nullptr ||
      wiring.tree == nullptr || wiring.models == nullptr ||
      wiring.tree_device == nullptr || wiring.store_device == nullptr ||
      wiring.model_device == nullptr || wiring.queue == nullptr) {
    return Status::InvalidArgument(
        "prefetch: wiring is missing a component");
  }
  auto prefetcher = std::unique_ptr<Prefetcher>(new Prefetcher(wiring));
  // A private store instance over the shared store device: the
  // speculative search must not disturb the main searcher's per-cell
  // state. Tree reads go through a private searcher without a cache for
  // the same reason (and so speculative reads never mutate the LRU).
  HDOV_ASSIGN_OR_RETURN(
      prefetcher->spec_store_,
      LoadStore(wiring.scheme, *wiring.tree, wiring.store_meta,
                wiring.store_device));
  prefetcher->spec_searcher_ = std::make_unique<HdovSearcher>(
      wiring.tree.get(), wiring.scene, wiring.models, wiring.tree_device);
  for (int role = 0; role < kNumSessionDeviceRoles; ++role) {
    prefetcher->device(static_cast<SessionDeviceRole>(role))
        ->set_prefetch_residency(&prefetcher->residency_[role]);
  }
  prefetcher->gates_installed_ = true;
  return prefetcher;
}

Prefetcher::~Prefetcher() {
  if (gates_installed_) {
    for (int role = 0; role < kNumSessionDeviceRoles; ++role) {
      device(static_cast<SessionDeviceRole>(role))
          ->set_prefetch_residency(nullptr);
    }
  }
  // Stop our queued warms, then wait the queue out: an in-flight warm may
  // hold a pointer to a device this prefetcher's owner is about to
  // destroy.
  wiring_.queue->Cancel(this);
  wiring_.queue->Drain();
}

PageDevice* Prefetcher::device(SessionDeviceRole role) const {
  switch (role) {
    case SessionDeviceRole::kTree:
      return wiring_.tree_device;
    case SessionDeviceRole::kStore:
      return wiring_.store_device;
    case SessionDeviceRole::kModel:
      return wiring_.model_device;
  }
  return nullptr;
}

void Prefetcher::BeginFrame() {
  // Publish: the runs staged at the end of the previous frame completed
  // during the frame gap and are now resident. One frame of modeled
  // latency, deterministically.
  for (int role = 0; role < kNumSessionDeviceRoles; ++role) {
    for (const auto& [first, pages] : staged_[role]) {
      for (uint64_t i = 0; i < pages; ++i) {
        residency_[role].pages.insert(first + i);
      }
    }
    staged_[role].clear();
  }
}

Status Prefetcher::EndFrame(const Viewpoint& viewpoint, CellId current_cell,
                            const SearchOptions& search) {
  const CellPrediction prediction = predictor_.Observe(viewpoint, current_cell);
  if (!prediction.valid || prediction.cell == planned_cell_) {
    // No (new) signal: keep the current plan and whatever is resident.
    return Status::OK();
  }
  if (planned_cell_ != kInvalidCell) {
    ++stats_.replans;
  }
  InvalidatePlan();
  planned_cell_ = prediction.cell;
  ++stats_.plans;
  for (PrefetchSink& sink : sinks_) {
    sink = PrefetchSink();
  }
  {
    // Diversion scope: every billed read below lands in the sinks; the
    // frame's counters, the clock, and the disk heads do not move.
    ScopedPrefetchBilling tree_scope(wiring_.tree_device,
                                     &sinks_[0]);
    ScopedPrefetchBilling store_scope(wiring_.store_device,
                                      &sinks_[1]);
    ScopedPrefetchBilling model_scope(wiring_.model_device,
                                      &sinks_[2]);
    spec_result_.clear();
    HDOV_RETURN_IF_ERROR(spec_searcher_->Search(
        spec_store_.get(), prediction.cell, search, &spec_result_, nullptr));
    size_t budget = kModelsPerPlan;
    for (const RetrievedLod& lod : spec_result_) {
      if (budget == 0) {
        break;
      }
      if (wiring_.is_resident && wiring_.is_resident(lod)) {
        continue;  // The delta search would not refetch it: skip.
      }
      HDOV_RETURN_IF_ERROR(wiring_.models->Fetch(lod.model));
      ++stats_.models_warmed;
      --budget;
    }
  }
  for (int role = 0; role < kNumSessionDeviceRoles; ++role) {
    StageSink(static_cast<SessionDeviceRole>(role));
  }
  return Status::OK();
}

void Prefetcher::StageSink(SessionDeviceRole role) {
  PrefetchSink& sink = sinks_[static_cast<int>(role)];
  stats_.issued_pages += sink.stats.page_reads;
  stats_.overlap_cost_millis += sink.cost_millis;
  BufferPool* pool =
      wiring_.warm_pool ? wiring_.warm_pool(role) : nullptr;
  auto& staged = staged_[static_cast<int>(role)];
  for (const auto& [first, pages] : sink.runs) {
    staged.emplace_back(first, pages);
    AsyncFetchQueue::Request request;
    request.owner = this;
    request.pool = pool;
    request.device = device(role);
    request.first = first;
    request.pages = pages;
    wiring_.queue->Issue(request);
  }
  sink.runs.clear();
}

void Prefetcher::InvalidatePlan() {
  uint64_t dropped = 0;
  for (int role = 0; role < kNumSessionDeviceRoles; ++role) {
    dropped += residency_[role].pages.size();
    for (const auto& [first, pages] : staged_[role]) {
      (void)first;
      dropped += pages;
    }
    residency_[role].pages.clear();  // used_* counters stay cumulative.
    staged_[role].clear();
  }
  if (planned_cell_ == kInvalidCell && dropped == 0) {
    return;
  }
  stats_.cancelled_pages += dropped;
  wiring_.queue->Cancel(this);
  telemetry::GlobalFlightRecorder().Record(
      telemetry::FlightEventType::kPrefetchCancel, flight_code_, dropped,
      planned_cell_);
  planned_cell_ = kInvalidCell;
}

void Prefetcher::Reset() {
  InvalidatePlan();
  predictor_.Reset();
  spec_result_.clear();
}

PrefetcherStats Prefetcher::stats() const {
  PrefetcherStats s = stats_;
  for (const PrefetchResidency& residency : residency_) {
    s.used_pages += residency.used_pages;
    s.used_runs += residency.used_runs;
  }
  return s;
}

void Prefetcher::RegisterTelemetry(telemetry::MetricsRegistry* registry,
                                   const std::string& prefix) const {
  const Prefetcher* self = this;
  const auto view = [&](const char* name, auto getter) {
    registry->RegisterView(prefix + name,
                           [self, getter] { return getter(self->stats()); });
  };
  view(".prefetch.plans",
       [](const PrefetcherStats& s) { return static_cast<double>(s.plans); });
  view(".prefetch.issued_pages", [](const PrefetcherStats& s) {
    return static_cast<double>(s.issued_pages);
  });
  view(".prefetch.used_pages", [](const PrefetcherStats& s) {
    return static_cast<double>(s.used_pages);
  });
  view(".prefetch.cancelled_pages", [](const PrefetcherStats& s) {
    return static_cast<double>(s.cancelled_pages);
  });
  view(".prefetch.models_warmed", [](const PrefetcherStats& s) {
    return static_cast<double>(s.models_warmed);
  });
  view(".prefetch.wasted_ratio",
       [](const PrefetcherStats& s) { return s.WastedRatio(); });
  view(".prefetch.overlap_ms",
       [](const PrefetcherStats& s) { return s.overlap_cost_millis; });
}

}  // namespace hdov::prefetch
