// Measurement plumbing shared by the workloads: wall-clock helpers, the
// per-layer span timer, sample statistics, and the result record the binary
// prints as its last line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Median of a sample (average of the two middle values for even sizes);
/// 0 for an empty sample.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

inline double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Wall-clock totals of the public calls the benchmark makes, keyed by span
/// name. Every timed call is also wrapped in an obs::TraceSpan, so the
/// traced run's Chrome trace shows the same boundaries.
class LayerTimer {
 public:
  template <typename F>
  decltype(auto) time(const char* span, F&& call) {
    const qp::obs::TraceSpan scope{span};
    const Clock::time_point t0 = Clock::now();
    struct Record {
      LayerTimer* self;
      const char* span;
      Clock::time_point t0;
      ~Record() { self->samples_[span].push_back(ms_since(t0)); }
    } record{this, span, t0};
    return call();
  }

  [[nodiscard]] double median_ms(const std::string& span) const {
    return median(samples(span));
  }
  [[nodiscard]] double total_ms(const std::string& span) const {
    double total = 0.0;
    for (double v : samples(span)) total += v;
    return total;
  }

 private:
  [[nodiscard]] std::vector<double> samples(const std::string& span) const {
    const auto it = samples_.find(span);
    return it == samples_.end() ? std::vector<double>{} : it->second;
  }

  std::map<std::string, std::vector<double>> samples_;
};

/// Obs counter totals by name from one snapshot (histograms are skipped).
inline std::map<std::string, std::uint64_t> counter_totals() {
  std::map<std::string, std::uint64_t> totals;
  for (const qp::obs::MetricSnapshot& metric : qp::obs::snapshot()) {
    if (metric.kind == qp::obs::MetricKind::Counter) totals[metric.name] = metric.value;
  }
  return totals;
}

/// p50 of a registered obs histogram (0 when it has no samples).
inline double histogram_p50(const std::string& name) {
  for (const qp::obs::MetricSnapshot& metric : qp::obs::snapshot()) {
    if (metric.kind == qp::obs::MetricKind::Histogram && metric.name == name) {
      return metric.histogram.percentile(50.0);
    }
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One workload run's outcome. `failures` names every check that did not
/// hold; `notes` are informational key/value lines (sample counts, the
/// determinism probe, the negative self-test) printed before the result.
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    notes.emplace_back(std::move(key), std::move(value));
  }
  void fail(std::string what) { failures.push_back(std::move(what)); }
  [[nodiscard]] bool correct() const { return failures.empty() && failed == 0; }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the traced run's Chrome trace (created by the caller).
  std::string trace_dir = ".";
};

}  // namespace perfbench
