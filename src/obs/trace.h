// DES-clock span tracing. Spans and instant events are recorded into a
// bounded ring buffer, timestamped from a pluggable clock (the experiment
// runner binds it to its Simulator, so all trace times are simulated
// microseconds) and ordered deterministically: the export sorts by
// (begin time, sequence number), the same tie-break rule as the
// simulator's scheduler. Two identically-seeded runs therefore produce
// byte-identical trace output.
//
// A track is one timeline in the Chrome trace_event view: a (process,
// thread) pair, where the process is a simulated node ("worker-1") and
// the thread one sequential actor on it ("flink/task-3", "gc", "spark/
// scheduler"). Spans on one track come from one coroutine, so they nest.
#ifndef SDPS_OBS_TRACE_H_
#define SDPS_OBS_TRACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/time_util.h"

namespace sdps::obs {

/// Index into the tracer's track table.
using TrackId = int32_t;

/// One track's identity. `os_tid` is the kernel thread id of the thread
/// that recorded on this track (realtime workers), or -1 for simulated
/// actors — the Chrome exporter uses real pid/tid lanes when present, so
/// rt traces line up with externally observed thread activity (perf,
/// /proc) in Perfetto.
struct TrackInfo {
  std::string process;
  std::string thread;
  int64_t os_tid = -1;
};

/// One recorded span or instant event. `name` and argument keys must be
/// string literals (they are stored unowned; every built-in
/// instrumentation point uses literals).
struct SpanRecord {
  SimTime begin = 0;
  SimTime end = 0;  // == begin for instant events
  uint64_t seq = 0;
  TrackId track = 0;
  const char* name = "";
  bool instant = false;
  // Up to two numeric arguments, shown in the trace viewer's args pane.
  const char* arg_key[2] = {nullptr, nullptr};
  double arg_val[2] = {0, 0};
};

class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 18;

  explicit Tracer(size_t capacity = kDefaultCapacity) : capacity_(capacity) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer all built-in instrumentation records into.
  /// Disabled by default; the bench harness enables it for --trace runs.
  static Tracer& Default();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Binds the time source (normally a Simulator's now()). Unbound, the
  /// clock reads 0. The experiment runner installs/uninstalls this around
  /// each run — see ClockGuard.
  void set_clock(std::function<SimTime()> clock) { clock_ = std::move(clock); }
  SimTime now() const { return clock_ ? clock_() : 0; }

  /// Returns the id for track (process, thread), creating it on first
  /// use. Ids are assigned in registration order and survive Reset(), so
  /// repeated runs reuse the same numbering.
  TrackId Track(const std::string& process, const std::string& thread);

  /// Records a complete span [begin, end] (times from the bound clock).
  void Span(TrackId track, const char* name, SimTime begin, SimTime end,
            const char* k0 = nullptr, double v0 = 0,
            const char* k1 = nullptr, double v1 = 0);
  /// Records a zero-duration instant event at `t`.
  void Instant(TrackId track, const char* name, SimTime t,
               const char* k0 = nullptr, double v0 = 0);

  /// Drops recorded events (capacity, tracks, and numbering survive).
  void Reset();

  /// Retained events sorted by (begin, seq); oldest events are evicted
  /// once the ring exceeds its capacity.
  std::vector<SpanRecord> Snapshot() const;
  /// Track table in id order: (process, thread) names.
  std::vector<std::pair<std::string, std::string>> Tracks() const;
  /// Track table in id order, including each track's OS tid (-1 for
  /// simulated actors).
  const std::vector<TrackInfo>& TrackInfos() const { return tracks_; }

  /// A movable snapshot of one thread's tracer: what a realtime worker
  /// carries across the join back to the pipeline thread. Records are
  /// sorted by (begin, seq); every track is stamped with the capturing
  /// thread's OS tid.
  struct Capture {
    std::vector<SpanRecord> records;
    std::vector<TrackInfo> tracks;
    uint64_t dropped = 0;
  };
  /// Snapshot of this tracer stamped with the calling thread's OS tid.
  /// Call on the thread that owns the tracer (rt workers capture right
  /// before exiting).
  Capture CaptureForMerge() const;
  /// Folds a worker's capture into this tracer: tracks are re-registered
  /// by name (adopting the worker's OS tid) and records are appended with
  /// fresh sequence numbers in capture order. Appends regardless of the
  /// enabled flag — the records were gated when originally recorded.
  void Merge(const Capture& capture);

  uint64_t total_recorded() const { return next_seq_; }
  uint64_t dropped() const { return dropped_; }
  size_t capacity() const { return capacity_; }

 private:
  void Push(SpanRecord rec);

  bool enabled_ = false;
  std::function<SimTime()> clock_;
  size_t capacity_;
  uint64_t next_seq_ = 0;
  uint64_t dropped_ = 0;
  std::vector<SpanRecord> ring_;  // circular once size() == capacity_
  size_t ring_head_ = 0;          // index of the oldest record when full
  std::map<std::pair<std::string, std::string>, TrackId> track_ids_;
  std::vector<TrackInfo> tracks_;
};

/// RAII span: captures the clock at construction, records at destruction.
/// Safe to hold across co_await (single-threaded simulation; the frame
/// owns it). No-op while the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, TrackId track, const char* name)
      : tracer_(tracer), track_(track), name_(name),
        active_(tracer.enabled()), begin_(active_ ? tracer.now() : 0) {}
  ~ScopedSpan() {
    if (active_) {
      tracer_.Span(track_, name_, begin_, tracer_.now(), arg_key_[0], arg_val_[0],
                   arg_key_[1], arg_val_[1]);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a numeric argument (first two stick).
  void Arg(const char* key, double value) {
    if (arg_key_[0] == nullptr) {
      arg_key_[0] = key;
      arg_val_[0] = value;
    } else if (arg_key_[1] == nullptr) {
      arg_key_[1] = key;
      arg_val_[1] = value;
    }
  }

 private:
  Tracer& tracer_;
  TrackId track_;
  const char* name_;
  bool active_;
  SimTime begin_;
  const char* arg_key_[2] = {nullptr, nullptr};
  double arg_val_[2] = {0, 0};
};

/// Binds a clock for one experiment run and restores the previous clock
/// (and clears the trace ring when a fresh run begins) on scope exit.
class ClockGuard {
 public:
  ClockGuard(Tracer& tracer, std::function<SimTime()> clock) : tracer_(tracer) {
    if (tracer_.enabled()) tracer_.Reset();
    tracer_.set_clock(std::move(clock));
  }
  ~ClockGuard() { tracer_.set_clock(nullptr); }
  ClockGuard(const ClockGuard&) = delete;
  ClockGuard& operator=(const ClockGuard&) = delete;

 private:
  Tracer& tracer_;
};

}  // namespace sdps::obs

#endif  // SDPS_OBS_TRACE_H_
