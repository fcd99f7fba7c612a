#include "telemetry/exposition.h"

#include <cstdio>

namespace hdov::telemetry {

namespace {

// Shortest round-trippable-ish rendering; integers print without a
// trailing ".0" so counter lines stay exact to the eye.
std::string FormatNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

}  // namespace

std::string SanitizeMetricName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(valid ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string ExpositionText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const MetricSample& s : snapshot.samples) {
    const std::string name = SanitizeMetricName(s.name);
    switch (s.kind) {
      case MetricKind::kCounter:
        out.append("# TYPE ").append(name).append(" counter\n");
        out.append(name).append(" ").append(FormatNumber(s.value));
        out.push_back('\n');
        break;
      case MetricKind::kGauge:
      case MetricKind::kView:
        out.append("# TYPE ").append(name).append(" gauge\n");
        out.append(name).append(" ").append(FormatNumber(s.value));
        out.push_back('\n');
        break;
      case MetricKind::kHistogram: {
        out.append("# TYPE ").append(name).append(" histogram\n");
        uint64_t cumulative = 0;
        for (size_t i = 0; i < s.buckets.size(); ++i) {
          cumulative += s.buckets[i];
          const std::string le = i < s.bounds.size()
                                     ? FormatNumber(s.bounds[i])
                                     : std::string("+Inf");
          out.append(name).append("_bucket{le=\"").append(le).append("\"} ");
          out.append(std::to_string(cumulative));
          out.push_back('\n');
        }
        out.append(name).append("_sum ").append(FormatNumber(s.sum));
        out.push_back('\n');
        out.append(name).append("_count ").append(std::to_string(s.count));
        out.push_back('\n');
        break;
      }
    }
  }
  return out;
}

MetricsSnapshot FilterSnapshot(const MetricsSnapshot& snapshot,
                               std::string_view prefix) {
  MetricsSnapshot out;
  for (const MetricSample& s : snapshot.samples) {
    if (std::string_view(s.name).substr(0, prefix.size()) == prefix) {
      out.samples.push_back(s);
    }
  }
  return out;
}

SnapshotDelta SnapshotDelta::Between(const MetricsSnapshot& earlier,
                                     const MetricsSnapshot& later,
                                     double interval_ms) {
  SnapshotDelta result;
  result.interval_ms = interval_ms;
  const double interval_s = interval_ms / 1000.0;
  result.metrics.reserve(later.samples.size());
  for (const MetricSample& now : later.samples) {
    const MetricSample* then = earlier.Find(now.name);
    MetricDelta d;
    d.name = now.name;
    d.kind = now.kind;
    d.current = now.value;
    d.previous = then != nullptr ? then->value : 0.0;
    d.delta = d.current - d.previous;
    if (now.kind == MetricKind::kHistogram) {
      const uint64_t prev_count = then != nullptr ? then->count : 0;
      const double prev_sum = then != nullptr ? then->sum : 0.0;
      d.count_delta = now.count >= prev_count ? now.count - prev_count : 0;
      d.sum_delta = now.sum - prev_sum;
      d.delta = static_cast<double>(d.count_delta);
    }
    if (interval_s > 0.0) {
      d.rate_per_sec = d.delta / interval_s;
    }
    result.metrics.push_back(std::move(d));
  }
  return result;
}

Status ExpositionLog::Sample(const MetricsSnapshot& snapshot,
                             std::string_view label) {
  if (!out_.is_open()) {
    out_.open(path_, std::ios::trunc);
    if (!out_) {
      return Status::IoError("exposition: cannot open " + path_);
    }
  }
  const double interval_ms =
      samples_written_ == 0 ? 0.0 : interval_timer_.ElapsedMs();
  interval_timer_.Restart();
  out_ << "# hdov sample " << samples_written_ << " label \"" << label
       << "\" interval_ms " << FormatNumber(interval_ms) << "\n";
  out_ << ExpositionText(snapshot);
  if (samples_written_ > 0) {
    const SnapshotDelta delta =
        SnapshotDelta::Between(previous_, snapshot, interval_ms);
    for (const MetricDelta& m : delta.metrics) {
      if (m.kind == MetricKind::kGauge || m.delta == 0.0) {
        continue;
      }
      out_ << "# rate " << SanitizeMetricName(m.name) << " delta "
           << FormatNumber(m.delta) << " per_sec "
           << FormatNumber(m.rate_per_sec) << "\n";
    }
  }
  out_.flush();
  if (!out_) {
    return Status::IoError("exposition: write to " + path_ + " failed");
  }
  previous_ = snapshot;
  ++samples_written_;
  return Status::OK();
}

}  // namespace hdov::telemetry
