#include "cluster/network.h"

#include <algorithm>

namespace sdps::cluster {

SimTime Link::LineTime(const int64_t* bytes, size_t n, SimTime* completions,
                       int64_t* total_bytes) const {
  SDPS_CHECK_GT(n, 0u);
  // rate_scale_ is exactly 1.0 outside fault windows, so the multiply is an
  // IEEE-754 identity and fault-free runs stay bit-identical to pre-chaos.
  // Each item's time is rounded on its own, so a run's schedule is the
  // schedule of its items sent one by one; the line is held once for the
  // integer sum.
  SimTime total_tx = 0;
  for (size_t i = 0; i < n; ++i) {
    SDPS_CHECK_GE(bytes[i], 0);
    total_tx +=
        RoundMicros(static_cast<double>(bytes[i]) / (bytes_per_sec_ * rate_scale_) * 1e6);
    *total_bytes += bytes[i];
    if (completions != nullptr) completions[i] = total_tx;  // prefix sum for now
  }
  return total_tx;
}

Link::TransmitAwaiter::TransmitAwaiter(Link& link, const int64_t* bytes, size_t n,
                                       SimTime* completions)
    : link_(link),
      n_(n),
      completions_(completions),
      line_time_(link.LineTime(bytes, n, completions, &total_bytes_)) {}

void Link::TransmitAwaiter::await_suspend(std::coroutine_handle<> h) {
  const SimTime start = std::max(link_.sim_.now(), link_.free_at_);
  link_.free_at_ = start + line_time_;
  if (completions_ != nullptr) {
    for (size_t i = 0; i < n_; ++i) completions_[i] += start + link_.latency_;
  }
  link_.sim_.ScheduleResumeAt(link_.free_at_ + link_.latency_, h);
}

}  // namespace sdps::cluster
