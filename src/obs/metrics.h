// The telemetry metrics registry: labelled counters, gauges, and
// histograms under one namespace ("driver.queue.depth",
// "cluster.gc.pause_ns", "log.messages", ...). Handles are resolved once
// (mutex-protected) and then incremented lock-free on the hot path; when
// the registry is disabled every update is a single relaxed load and a
// predicted branch.
//
// All instrument storage lives for the registry's lifetime, so call
// sites may cache `Counter*`/`Gauge*`/`Histogram*` freely. Values (not
// instruments) can be reset between runs for deterministic re-recording.
#ifndef SDPS_OBS_METRICS_H_
#define SDPS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sdps::obs {

/// Metric labels as sorted key=value pairs. Kept small: instruments are
/// resolved once per call site, never on the per-record path.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

class Registry;

/// Monotonic event count.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time value (queue depth, rate limit, heap bytes, ...).
class Gauge {
 public:
  void Set(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(double delta) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0.0};
};

/// Fixed-boundary histogram (cumulative bucket semantics on export, like
/// Prometheus). Boundaries are upper bounds; one implicit +Inf bucket.
class Histogram {
 public:
  void Observe(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; last entry is the +Inf bucket.
  std::vector<uint64_t> bucket_counts() const;

 private:
  friend class Registry;
  Histogram(const std::atomic<bool>* enabled, std::vector<double> bounds);
  const std::atomic<bool>* enabled_;
  std::vector<double> bounds_;
  std::deque<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default histogram boundaries for latencies in seconds: 1 ms .. ~100 s,
/// roughly ×2.5 per step.
std::vector<double> LatencySecondsBounds();

/// A read-only view of one metric for exporters, sorted deterministically
/// by (name, labels).
struct MetricRow {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind;
  std::string name;
  LabelSet labels;
  double value = 0;                      // counter/gauge
  uint64_t count = 0;                    // histogram
  double sum = 0;                        // histogram
  std::vector<double> bounds;            // histogram
  std::vector<uint64_t> bucket_counts;   // histogram (+Inf last)
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry that all built-in instrumentation points
  /// (driver, cluster, engines) record into. Disabled by default.
  static Registry& Default();

  /// Runtime toggle. When disabled, instrument updates are no-ops and the
  /// stored values stop changing.
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Instrument lookup: creates on first use, returns the same handle for
  /// the same (name, labels) afterwards. Labels are canonicalised (sorted
  /// by key). Never returns nullptr. A name may only be used with one
  /// instrument kind; reusing it with another kind aborts.
  Counter* GetCounter(const std::string& name, LabelSet labels = {});
  Gauge* GetGauge(const std::string& name, LabelSet labels = {});
  /// `bounds` is honoured on first creation only (empty -> latency-seconds
  /// defaults).
  Histogram* GetHistogram(const std::string& name, LabelSet labels = {},
                          std::vector<double> bounds = {});

  /// Zeroes every value while keeping all handles valid (per-run resets in
  /// tests and the bench harness).
  void ResetValues();

  /// Deterministic snapshot for the exporters.
  std::vector<MetricRow> Snapshot() const;

 private:
  struct Key {
    std::string name;
    LabelSet labels;
    bool operator<(const Key& o) const {
      if (name != o.name) return name < o.name;
      return labels < o.labels;
    }
  };
  struct Entry {
    MetricRow::Kind kind;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
  // Instrument storage: handles stay valid for the registry's lifetime.
  std::deque<std::unique_ptr<Counter>> counters_;
  std::deque<std::unique_ptr<Gauge>> gauges_;
  std::deque<std::unique_ptr<Histogram>> histograms_;
};

}  // namespace sdps::obs

#endif  // SDPS_OBS_METRICS_H_
