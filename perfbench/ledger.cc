#include "ledger.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  return values[static_cast<size_t>(rank + 0.5)];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

int SpanLog::Open(const std::string& name, int parent) {
  phases_.push_back(Phase{name, parent, NowNs(), 0});
  return static_cast<int>(phases_.size() - 1);
}

void SpanLog::Close(int id) {
  phases_[static_cast<size_t>(id)].end_ns = NowNs();
}

double SpanLog::DurationMs(int id) const {
  const Phase& p = phases_[static_cast<size_t>(id)];
  return p.end_ns > p.start_ns ? (p.end_ns - p.start_ns) / 1e6 : 0.0;
}

double SpanLog::ChildMs(int parent, const std::string& name) const {
  double ms = 0.0;
  for (size_t i = 0; i < phases_.size(); ++i) {
    if (phases_[i].parent == parent && phases_[i].name == name) {
      ms += DurationMs(static_cast<int>(i));
    }
  }
  return ms;
}

void SpanLog::AddOp(const char* name, uint32_t lane, uint64_t start_ns,
                    uint64_t end_ns,
                    const hdov::telemetry::StageBreakdown& stages) {
  if (ops_.size() < max_ops_) {
    ops_.push_back(Op{name, lane, start_ns, end_ns, stages});
  }
}

hdov::Status SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return hdov::Status::IoError("perfbench: cannot write " + path);
  }
  uint64_t epoch = ~uint64_t{0};
  for (const Phase& p : phases_) {
    epoch = std::min(epoch, p.start_ns);
  }
  for (const Op& o : ops_) {
    epoch = std::min(epoch, o.start_ns);
  }
  auto us = [epoch](uint64_t ns) { return (ns - epoch) / 1e3; };
  char buf[512];
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](const char* line) {
    out << (first ? "" : ",\n") << line;
    first = false;
  };
  for (const Phase& p : phases_) {
    const std::string parent =
        p.parent < 0 ? "" : phases_[static_cast<size_t>(p.parent)].name;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":\"%s\"}}",
                  p.name.c_str(), us(p.start_ns),
                  (p.end_ns - p.start_ns) / 1e3, parent.c_str());
    emit(buf);
  }
  for (const Op& o : ops_) {
    std::snprintf(
        buf, sizeof(buf),
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":2,\"tid\":%u,\"ts\":%.3f,"
        "\"dur\":%.3f,\"args\":{\"other_us\":%.3f,\"search_us\":%.3f,"
        "\"fetch_us\":%.3f,\"render_us\":%.3f,\"prefetch_us\":%.3f}}",
        o.name, o.lane, us(o.start_ns), (o.end_ns - o.start_ns) / 1e3,
        o.stages.ns[0] / 1e3, o.stages.ns[1] / 1e3, o.stages.ns[2] / 1e3,
        o.stages.ns[3] / 1e3, o.stages.ns[4] / 1e3);
    emit(buf);
  }
  out << "\n]}\n";
  out.close();
  if (!out) {
    return hdov::Status::IoError("perfbench: short write to " + path);
  }
  return hdov::Status::OK();
}

namespace {

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

constexpr size_t kCalibrationKeys = 40000;
constexpr size_t kCalibrationLookups = 20000;
constexpr size_t kCalibrationSort = 4096;

}  // namespace

Calibration::Calibration() : sort_buf_(kCalibrationSort) {
  table_.reserve(kCalibrationKeys);
  for (size_t i = 0; i < kCalibrationKeys; ++i) {
    const uint64_t key = SplitMix(&state_);
    table_[key] = i;
    keys_.push_back(key);
  }
  // Visit the keys in an order unrelated to the table's layout.
  for (size_t i = keys_.size(); i > 1; --i) {
    std::swap(keys_[i - 1], keys_[SplitMix(&state_) % i]);
  }
}

double Calibration::BurstMs() {
  // An untimed pass first loads the burst's keys into the caches, so the
  // timed pass depends little on what the program left there.
  uint64_t t0 = 0;
  for (int pass = 0; pass < 2; ++pass) {
    t0 = NowNs();
    for (size_t i = 0; i < kCalibrationLookups; ++i) {
      sink_ += table_.find(keys_[(next_ + i) % keys_.size()])->second;
    }
    for (uint64_t& x : sort_buf_) {
      x = SplitMix(&state_);
    }
    std::sort(sort_buf_.begin(), sort_buf_.end());
    sink_ += sort_buf_[sink_ % sort_buf_.size()];
  }
  next_ += kCalibrationLookups;
  return (NowNs() - t0) / 1e6;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

}  // namespace perfbench
