#include "telemetry/metrics.h"

#include <algorithm>

#include "telemetry/json.h"

namespace hdov::telemetry {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_[static_cast<size_t>(it - bounds_.begin())];
  sum_ += value;
  ++count_;
}

double Histogram::Quantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) {
      continue;
    }
    const double before = static_cast<double>(cumulative);
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) < target) {
      continue;
    }
    const double lower = i == 0 ? 0.0 : bounds_[i - 1];
    if (i >= bounds_.size()) {
      return lower;  // Overflow bucket: no upper bound to interpolate to.
    }
    const double fraction =
        (target - before) / static_cast<double>(counts_[i]);
    return lower + fraction * (bounds_[i] - lower);
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

void Histogram::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(counts_.begin(), counts_.end(), 0);
  sum_ = 0.0;
  count_ = 0;
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t n) {
  std::vector<double> bounds;
  bounds.reserve(n);
  double bound = start;
  for (size_t i = 0; i < n; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::vector<double> LinearBuckets(double start, double width, size_t n) {
  std::vector<double> bounds;
  bounds.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    bounds.push_back(start + width * static_cast<double>(i));
  }
  return bounds;
}

std::string_view MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
    case MetricKind::kView: return "view";
  }
  return "unknown";
}

const MetricSample* MetricsSnapshot::Find(std::string_view name) const {
  for (const MetricSample& sample : samples) {
    if (sample.name == name) {
      return &sample;
    }
  }
  return nullptr;
}

std::string MetricsSnapshot::ToJson() const {
  JsonWriter w;
  w.BeginArray();
  for (const MetricSample& sample : samples) {
    w.BeginObject();
    w.Key("name").String(sample.name);
    w.Key("kind").String(MetricKindName(sample.kind));
    if (sample.kind == MetricKind::kHistogram) {
      w.Key("count").Number(sample.count);
      w.Key("sum").Number(sample.sum);
      w.Key("p50").Number(sample.p50);
      w.Key("p90").Number(sample.p90);
      w.Key("p99").Number(sample.p99);
      w.Key("bounds").BeginArray();
      for (double b : sample.bounds) {
        w.Number(b);
      }
      w.EndArray();
      w.Key("buckets").BeginArray();
      for (uint64_t c : sample.buckets) {
        w.Number(c);
      }
      w.EndArray();
    } else {
      w.Key("value").Number(sample.value);
    }
    w.EndObject();
  }
  w.EndArray();
  return w.TakeString();
}

size_t NearestRank(size_t n, double q) {
  q = std::min(1.0, std::max(0.0, q));
  return std::min(n - 1,
                  static_cast<size_t>(q * static_cast<double>(n - 1) + 0.5));
}

double WallPercentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const size_t k = NearestRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

MetricsRegistry::Entry* MetricsRegistry::FindEntry(const std::string& name) {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : entries_[it->second].get();
}

MetricsRegistry::Entry* MetricsRegistry::Insert(const std::string& name,
                                                MetricKind kind) {
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->kind = kind;
  Entry* raw = entry.get();
  index_.emplace(name, entries_.size());
  entries_.push_back(std::move(entry));
  return raw;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  if (Entry* existing = FindEntry(name)) {
    return existing->kind == MetricKind::kCounter ? existing->counter.get()
                                                  : nullptr;
  }
  Entry* entry = Insert(name, MetricKind::kCounter);
  entry->counter = std::make_unique<Counter>();
  return entry->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  if (Entry* existing = FindEntry(name)) {
    return existing->kind == MetricKind::kGauge ? existing->gauge.get()
                                                : nullptr;
  }
  Entry* entry = Insert(name, MetricKind::kGauge);
  entry->gauge = std::make_unique<Gauge>();
  return entry->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> upper_bounds) {
  if (Entry* existing = FindEntry(name)) {
    return existing->kind == MetricKind::kHistogram
               ? existing->histogram.get()
               : nullptr;
  }
  Entry* entry = Insert(name, MetricKind::kHistogram);
  entry->histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  return entry->histogram.get();
}

void MetricsRegistry::RegisterView(const std::string& name,
                                   std::function<double()> read) {
  if (Entry* existing = FindEntry(name)) {
    existing->kind = MetricKind::kView;
    existing->counter.reset();
    existing->gauge.reset();
    existing->histogram.reset();
    existing->view = std::move(read);
    return;
  }
  Insert(name, MetricKind::kView)->view = std::move(read);
}

void MetricsRegistry::UnregisterPrefix(std::string_view prefix) {
  std::vector<std::unique_ptr<Entry>> kept;
  kept.reserve(entries_.size());
  index_.clear();
  for (auto& entry : entries_) {
    if (std::string_view(entry->name).substr(0, prefix.size()) == prefix) {
      continue;
    }
    index_.emplace(entry->name, kept.size());
    kept.push_back(std::move(entry));
  }
  entries_ = std::move(kept);
}

void MetricsRegistry::ResetValues() {
  for (auto& entry : entries_) {
    switch (entry->kind) {
      case MetricKind::kCounter: entry->counter->Reset(); break;
      case MetricKind::kGauge: entry->gauge->Reset(); break;
      case MetricKind::kHistogram: entry->histogram->Reset(); break;
      case MetricKind::kView: break;
    }
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  snapshot.samples.reserve(entries_.size());
  for (const auto& entry : entries_) {
    MetricSample sample;
    sample.name = entry->name;
    sample.kind = entry->kind;
    switch (entry->kind) {
      case MetricKind::kCounter:
        sample.value = static_cast<double>(entry->counter->value());
        break;
      case MetricKind::kGauge:
        sample.value = entry->gauge->value();
        break;
      case MetricKind::kView:
        sample.value = entry->view ? entry->view() : 0.0;
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *entry->histogram;
        sample.bounds = h.bounds();
        sample.buckets.reserve(h.num_buckets());
        for (size_t i = 0; i < h.num_buckets(); ++i) {
          sample.buckets.push_back(h.bucket_count(i));
        }
        sample.sum = h.sum();
        sample.count = h.count();
        sample.p50 = h.Quantile(0.50);
        sample.p90 = h.Quantile(0.90);
        sample.p99 = h.Quantile(0.99);
        break;
      }
    }
    snapshot.samples.push_back(std::move(sample));
  }
  return snapshot;
}

}  // namespace hdov::telemetry
