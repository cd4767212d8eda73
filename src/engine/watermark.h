// Watermarks: the per-connection clock that generates them at the
// sources (ConnectionClock), and the tracker that combines them at a
// multi-input operator, whose event-time clock is the minimum watermark
// across its input channels (WatermarkTracker).
#ifndef SDPS_ENGINE_WATERMARK_H_
#define SDPS_ENGINE_WATERMARK_H_

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/time_util.h"

namespace sdps::engine {

/// Sentinel: no watermark received yet from an input.
inline constexpr SimTime kNoWatermark = std::numeric_limits<SimTime>::min();
/// Sentinel: the end-of-stream watermark, past every real event time.
/// Flushes every open window / remaining boundary.
inline constexpr SimTime kFinalWatermark = std::numeric_limits<SimTime>::max() / 4;

/// Event-time clock of the DES engines' ingest connections: one driver
/// queue plus the sources that pull from it. Per connection it holds the
/// largest event time delivered, the live sources and the last broadcast;
/// per source, the unsent floor: the oldest record it popped and has not
/// yet delivered into a task channel. Next() caps every broadcast below
/// every floor of the connection, so no watermark overtakes a record that
/// another source's progress already covers (DESIGN.md §6).
class ConnectionClock {
 public:
  ConnectionClock() = default;
  /// Source s in [0, num_sources) pulls from connection `queue_of(s)`.
  template <typename QueueOf>
  ConnectionClock(int num_queues, int num_sources, QueueOf queue_of)
      : conns_(static_cast<size_t>(num_queues)) {
    sources_.reserve(static_cast<size_t>(num_sources));
    for (int s = 0; s < num_sources; ++s) {
      sources_.push_back({queue_of(s), kNoUnsentFloor});
      ++conns_.at(static_cast<size_t>(sources_.back().queue)).live_sources;
    }
  }

  /// Source s holds undelivered records from event time `floor` up.
  void Hold(int s, SimTime floor) { sources_[static_cast<size_t>(s)].floor = floor; }
  /// Source s holds nothing undelivered.
  void Release(int s) { Hold(s, kNoUnsentFloor); }
  /// Source s drained its queue and exited.
  void Finish(int s) { --Conn(sources_[static_cast<size_t>(s)].queue).live_sources; }
  /// A record with event time `t` was delivered on connection q.
  void Advance(int q, SimTime t) { Conn(q).max_event = std::max(Conn(q).max_event, t); }

  /// What connection q broadcasts now: kFinalWatermark once all its
  /// sources finished; else the delivered clock capped below every unsent
  /// floor, minus `lateness` (nullopt before the first delivery or when
  /// it repeats the last broadcast).
  std::optional<SimTime> Next(int q, SimTime lateness) {
    Connection& conn = Conn(q);
    if (conn.live_sources == 0) return kFinalWatermark;
    if (conn.max_event == kNoWatermark) return std::nullopt;
    SimTime wm = conn.max_event;
    for (const Source& src : sources_) {
      if (src.queue == q && src.floor <= wm) wm = src.floor - 1;
    }
    wm -= lateness;
    if (wm == conn.last_sent) return std::nullopt;
    conn.last_sent = wm;
    return wm;
  }

  /// The lowest last broadcast over all connections.
  SimTime MinLastSent() const {
    SimTime min = std::numeric_limits<SimTime>::max();
    for (const Connection& conn : conns_) min = std::min(min, conn.last_sent);
    return min;
  }

  /// Rewinds the delivered clocks to those of `saved`, an earlier copy
  /// (a checkpoint's), and forgets the last broadcasts, so the restored
  /// clocks are broadcast again. Live sources and floors stay as they are.
  void Restore(const ConnectionClock& saved) {
    for (size_t q = 0; q < conns_.size(); ++q) {
      conns_[q].max_event = saved.conns_.at(q).max_event;
      conns_[q].last_sent = kNoWatermark;
    }
  }

 private:
  static constexpr SimTime kNoUnsentFloor = std::numeric_limits<SimTime>::max();

  struct Connection {
    SimTime max_event = kNoWatermark;
    SimTime last_sent = kNoWatermark;
    int live_sources = 0;
  };
  struct Source {
    int queue;
    SimTime floor;
  };

  Connection& Conn(int q) { return conns_[static_cast<size_t>(q)]; }

  std::vector<Connection> conns_;
  std::vector<Source> sources_;
};

class WatermarkTracker {
 public:
  explicit WatermarkTracker(int num_inputs)
      : watermarks_(static_cast<size_t>(num_inputs), kNoWatermark) {
    SDPS_CHECK_GT(num_inputs, 0);
  }

  /// Records a watermark from input `origin`. Returns true when the
  /// combined (minimum) watermark advanced.
  bool Update(int origin, SimTime wm) {
    SimTime& slot = watermarks_.at(static_cast<size_t>(origin));
    if (wm <= slot) return false;  // watermarks are monotone per input
    const SimTime before = current();
    slot = wm;
    return current() > before;
  }

  /// The combined watermark: min across inputs (kNoWatermark until every
  /// input has reported).
  SimTime current() const {
    return *std::min_element(watermarks_.begin(), watermarks_.end());
  }

  int num_inputs() const { return static_cast<int>(watermarks_.size()); }

 private:
  std::vector<SimTime> watermarks_;
};

}  // namespace sdps::engine

#endif  // SDPS_ENGINE_WATERMARK_H_
