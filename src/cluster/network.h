// Bandwidth-limited network model. Each node owns a full-duplex NIC
// (independent in/out links); traffic between the driver group and the
// worker group additionally crosses a shared inter-rack trunk. The trunk
// reproduces the paper's fixed network ceiling (Flink saturates at
// ~1.2 M tuples/s regardless of worker count, Table I / Table III).
#ifndef SDPS_CLUSTER_NETWORK_H_
#define SDPS_CLUSTER_NETWORK_H_

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "common/time_util.h"
#include "des/simulator.h"

namespace sdps::cluster {

/// A unidirectional store-and-forward pipe: transmissions serialize FIFO at
/// `bytes_per_sec`, then incur a fixed propagation `latency`.
///
/// The line is an analytic single-server FCFS queue. A transfer's line time
/// is fixed when it is admitted, so its departure is too (the Lindley
/// recursion): it starts at max(now, free_at) and moves free_at past its
/// line time. Admission therefore schedules the arrival directly, and a
/// transfer costs one DES event.
class Link {
 public:
  Link(des::Simulator& sim, double bytes_per_sec, SimTime latency)
      : sim_(sim), bytes_per_sec_(bytes_per_sec), latency_(latency) {
    SDPS_CHECK_GT(bytes_per_sec, 0.0);
    SDPS_CHECK_GE(latency, 0);
  }

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Admits a back-to-back run of payloads with ONE admission and runs
  /// `on_arrival` (a small void() callable) when the last item arrives at
  /// the far end, after booking the run's bytes. Item i takes
  /// tx[i] = bytes[i] / bandwidth on the line (rounded to whole
  /// microseconds), leaves it at start + tx[0] + ... + tx[i] and arrives
  /// latency() later — exactly the schedule `n` serial one-item transfers
  /// produce on this FIFO line (each would queue behind the previous). When
  /// `completions` is non-null it receives the n absolute arrival times.
  /// Concurrent transfers are served in admission order.
  template <typename F>
  void Admit(const int64_t* bytes, size_t n, SimTime* completions, F on_arrival) {
    int64_t total_bytes = 0;
    const SimTime line_time = LineTime(bytes, n, completions, &total_bytes);
    const SimTime start = std::max(sim_.now(), free_at_);
    free_at_ = start + line_time;
    if (completions != nullptr) {
      for (size_t i = 0; i < n; ++i) completions[i] += start + latency_;
    }
    sim_.ScheduleAt(free_at_ + latency_, [this, total_bytes, on_arrival] {
      bytes_transferred_ += total_bytes;
      on_arrival();
    });
  }

  SimTime latency() const { return latency_; }

  /// Cumulative payload bytes of transfers that have arrived (booked at
  /// each transfer's last item's arrival).
  int64_t bytes_transferred() const { return bytes_transferred_; }

  double bytes_per_sec() const { return bytes_per_sec_; }

  /// Chaos injection: scales the effective transmission rate (1.0 =
  /// nominal). Applies to transfers *admitted* after the call; transfers
  /// already admitted keep the rate they were admitted with, matching the
  /// store-and-forward model.
  void set_rate_scale(double scale) {
    SDPS_CHECK_GT(scale, 0.0);
    rate_scale_ = scale;
    memo_bytes_ = -1;  // the memoised line time was at the old rate
  }
  double rate_scale() const { return rate_scale_; }

 private:
  /// Summed line time of a run; writes each item's line-time prefix sum
  /// into `completions` (when non-null) and adds the run's bytes to
  /// *total_bytes.
  SimTime LineTime(const int64_t* bytes, size_t n, SimTime* completions,
                   int64_t* total_bytes);

  des::Simulator& sim_;
  double bytes_per_sec_;
  double rate_scale_ = 1.0;
  SimTime latency_;
  SimTime free_at_ = 0;  // when the line finishes its last admitted transfer
  int64_t bytes_transferred_ = 0;
  // Line time of the last payload size seen (-1: none). Most runs repeat
  // one record size, so this skips the divide and rounding per item.
  int64_t memo_bytes_ = -1;
  SimTime memo_line_time_ = 0;
};

}  // namespace sdps::cluster

#endif  // SDPS_CLUSTER_NETWORK_H_
