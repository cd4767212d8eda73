// Bandwidth-limited network model. Each node owns a full-duplex NIC
// (independent in/out links); traffic between the driver group and the
// worker group additionally crosses a shared inter-rack trunk. The trunk
// reproduces the paper's fixed network ceiling (Flink saturates at
// ~1.2 M tuples/s regardless of worker count, Table I / Table III).
#ifndef SDPS_CLUSTER_NETWORK_H_
#define SDPS_CLUSTER_NETWORK_H_

#include <cstdint>

#include "common/check.h"
#include "common/time_util.h"
#include "des/resource.h"
#include "des/simulator.h"
#include "des/task.h"

namespace sdps::cluster {

/// A unidirectional store-and-forward pipe: transmissions serialize FIFO at
/// `bytes_per_sec`, then incur a fixed propagation `latency`.
class Link {
 public:
  Link(des::Simulator& sim, double bytes_per_sec, SimTime latency)
      : sim_(sim), line_(sim, 1), bytes_per_sec_(bytes_per_sec), latency_(latency) {
    SDPS_CHECK_GT(bytes_per_sec, 0.0);
    SDPS_CHECK_GE(latency, 0);
  }

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  class TransmitAwaiter;

  /// Transfers a back-to-back run of payloads with ONE line admission and
  /// one completion event, then waits the propagation delay. Item i takes
  /// tx[i] = bytes[i] / bandwidth on the line (rounded to whole
  /// microseconds), finishes it at service_start + tx[0] + ... + tx[i]
  /// and arrives latency() later — exactly the schedule `n` serial
  /// one-item transfers produce on this store-and-forward FIFO line (each
  /// would queue behind the previous). When `completions` is non-null it
  /// receives the n absolute arrival times. The coroutine itself resumes
  /// at the LAST item's arrival. Concurrent transfers queue FIFO.
  des::Task<> TransferBatch(const int64_t* bytes, size_t n, SimTime* completions);

  /// The line half of TransferBatch as a plain awaiter: `co_await` admits
  /// the run and resumes when its last item leaves the line, having booked
  /// the bytes and filled `completions` (arrival times, latency included).
  /// The caller then owes the propagation delay itself
  /// (`co_await des::Delay(sim, latency())` when latency() > 0); chaining
  /// hops this way costs no coroutine frame per hop.
  TransmitAwaiter Transmit(const int64_t* bytes, size_t n, SimTime* completions);

  SimTime latency() const { return latency_; }

  /// Cumulative payload bytes that completed transmission.
  int64_t bytes_transferred() const { return bytes_transferred_; }

  /// Current transfer backlog (transfers in flight or queued).
  size_t backlog() const { return line_.queue_length() + static_cast<size_t>(line_.busy()); }

  double bytes_per_sec() const { return bytes_per_sec_; }

  /// Chaos injection: scales the effective transmission rate (1.0 =
  /// nominal). Applies to transfers *started* after the call; transfers
  /// already on the line keep the rate they were admitted with, matching
  /// the store-and-forward model.
  void set_rate_scale(double scale) {
    SDPS_CHECK_GT(scale, 0.0);
    rate_scale_ = scale;
  }
  double rate_scale() const { return rate_scale_; }

  /// Busy-time integral of the line (for utilisation probes).
  double BusyIntegral() const { return line_.BusyIntegral(); }

 private:
  /// Summed line time of a run; writes each item's line-time prefix sum
  /// into `completions` (when non-null) and adds the run's bytes to
  /// *total_bytes.
  SimTime LineTime(const int64_t* bytes, size_t n, SimTime* completions,
                   int64_t* total_bytes) const;

  des::Simulator& sim_;
  des::Resource line_;
  double bytes_per_sec_;
  double rate_scale_ = 1.0;
  SimTime latency_;
  int64_t bytes_transferred_ = 0;

 public:
  class TransmitAwaiter {
   public:
    TransmitAwaiter(Link& link, const int64_t* bytes, size_t n, SimTime* completions);
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) { use_.await_suspend(h); }
    void await_resume();

   private:
    Link& link_;
    size_t n_;
    SimTime* completions_;
    int64_t total_bytes_ = 0;
    des::Resource::UseAwaiter use_;
  };
};

inline Link::TransmitAwaiter Link::Transmit(const int64_t* bytes, size_t n,
                                            SimTime* completions) {
  return TransmitAwaiter(*this, bytes, n, completions);
}

}  // namespace sdps::cluster

#endif  // SDPS_CLUSTER_NETWORK_H_
