#include "cluster/network.h"

namespace sdps::cluster {

SimTime Link::LineTime(const int64_t* bytes, size_t n, SimTime* completions,
                       int64_t* total_bytes) {
  SDPS_CHECK_GT(n, 0u);
  // rate_scale_ is exactly 1.0 outside fault windows, so the multiply is an
  // IEEE-754 identity and fault-free runs stay bit-identical to pre-chaos.
  // Each item's time is rounded on its own, so a run's schedule is the
  // schedule of its items sent one by one; the line is held once for the
  // integer sum.
  SimTime total_tx = 0;
  for (size_t i = 0; i < n; ++i) {
    SDPS_CHECK_GE(bytes[i], 0);
    if (bytes[i] != memo_bytes_) {
      memo_bytes_ = bytes[i];
      memo_line_time_ = RoundMicros(static_cast<double>(bytes[i]) /
                                    (bytes_per_sec_ * rate_scale_) * 1e6);
    }
    total_tx += memo_line_time_;
    *total_bytes += bytes[i];
    if (completions != nullptr) completions[i] = total_tx;  // prefix sum for now
  }
  return total_tx;
}

}  // namespace sdps::cluster
