// The driver's sink: the single place where latency is measured (paper
// Section III-C: "measure latency at the sink operator of the SUT", with
// the sink output shipped back to the driver).
//
// For every output record the SUT emits:
//   event-time latency      = arrival - max event-time of contributors
//                             (Definitions 1 and 3)
//   processing-time latency = arrival - max ingest-time of contributors
//                             (Definitions 2 and 4)
// Samples before the warm-up boundary are counted but excluded from the
// statistics (paper: "we use 25% of the input data as warmup").
#ifndef SDPS_DRIVER_LATENCY_SINK_H_
#define SDPS_DRIVER_LATENCY_SINK_H_

#include <cstdint>
#include <functional>

#include "chaos/recovery.h"
#include "common/time_util.h"
#include "des/time_source.h"
#include "driver/histogram.h"
#include "driver/timeseries.h"
#include "engine/record.h"
#include "obs/lineage.h"
#include "obs/metrics.h"
#include "obs/sketch.h"

namespace sdps::driver {

class LatencySink {
 public:
  /// `clock` is the backend's timeline (des::Simulator for simulated
  /// runs, rt::Clock for realtime runs — the clock seam of DESIGN.md §6);
  /// arrival stamps and warmup comparisons read it exclusively.
  LatencySink(const des::TimeSource& clock, SimTime warmup_end)
      : clock_(clock),
        warmup_end_(warmup_end),
        obs_outputs_(obs::Registry::Default().GetCounter("driver.sink.outputs")),
        obs_event_latency_(
            obs::Registry::Default().GetHistogram("driver.sink.event_latency_s")),
        obs_proc_latency_(obs::Registry::Default().GetHistogram(
            "driver.sink.processing_latency_s")) {}

  LatencySink(const LatencySink&) = delete;
  LatencySink& operator=(const LatencySink&) = delete;

  /// Optional hook invoked for every output record (applications built on
  /// the driver — dashboards, alerting — subscribe here).
  void SetOutputListener(std::function<void(const engine::OutputRecord&)> listener) {
    listener_ = std::move(listener);
  }

  /// Optional recovery tracker (sdps::chaos). Observes every output —
  /// including warmup — so duplicate/lost accounting covers the whole run.
  void set_recovery_tracker(chaos::RecoveryTracker* tracker) { recovery_ = tracker; }

  /// Called by the SUT when an output record arrives back at the driver.
  void Emit(const engine::OutputRecord& out) {
    if (listener_) listener_(out);
    const SimTime now = clock_.now();
    ++total_outputs_;
    total_output_tuples_ += out.weight;
    total_output_value_ += out.value;
    const SimTime event_latency = now - out.max_event_time;
    const SimTime proc_latency =
        out.max_ingest_time >= 0 ? now - out.max_ingest_time : event_latency;
    obs_outputs_->Add(1);
    if (out.max_event_time > event_time_frontier_) {
      event_time_frontier_ = out.max_event_time;
    }
    obs::LineageTracker::Default().Close(out.lineage, now);
    if (recovery_ != nullptr) recovery_->Observe(out, now);
    if (now < warmup_end_) return;
    obs_event_latency_->Observe(ToSeconds(event_latency));
    obs_proc_latency_->Observe(ToSeconds(proc_latency));
    event_latency_.Add(event_latency);
    processing_latency_.Add(proc_latency);
    event_sketch_.Observe(ToSeconds(event_latency));
    event_series_.Add(now, ToSeconds(event_latency));
    processing_series_.Add(now, ToSeconds(proc_latency));
  }

  const Histogram& event_latency() const { return event_latency_; }
  const Histogram& processing_latency() const { return processing_latency_; }
  const TimeSeries& event_latency_series() const { return event_series_; }
  const TimeSeries& processing_latency_series() const { return processing_series_; }

  /// Streaming sketch: p50/p95/p99 available mid-run at fixed memory
  /// (the exact histograms above only sort on demand at the end).
  const obs::QuantileSketch& event_latency_sketch() const { return event_sketch_; }

  /// Highest contributor event-time seen across all outputs, -1 before
  /// the first output. `now - frontier` is the sink's watermark lag.
  SimTime event_time_frontier() const { return event_time_frontier_; }

  uint64_t total_outputs() const { return total_outputs_; }
  uint64_t total_output_tuples() const { return total_output_tuples_; }
  /// Sum of all output record values (correctness checks in tests: for the
  /// aggregation query this equals windows-per-tuple x the input total).
  double total_output_value() const { return total_output_value_; }
  SimTime warmup_end() const { return warmup_end_; }

 private:
  const des::TimeSource& clock_;
  SimTime warmup_end_;
  obs::Counter* obs_outputs_;
  obs::Histogram* obs_event_latency_;
  obs::Histogram* obs_proc_latency_;
  Histogram event_latency_;
  Histogram processing_latency_;
  obs::QuantileSketch event_sketch_;
  TimeSeries event_series_;
  TimeSeries processing_series_;
  chaos::RecoveryTracker* recovery_ = nullptr;
  SimTime event_time_frontier_ = -1;
  uint64_t total_outputs_ = 0;
  uint64_t total_output_tuples_ = 0;
  double total_output_value_ = 0;
  std::function<void(const engine::OutputRecord&)> listener_;
};

}  // namespace sdps::driver

#endif  // SDPS_DRIVER_LATENCY_SINK_H_
