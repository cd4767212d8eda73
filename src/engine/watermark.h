// Watermark tracking for multi-input operators: an operator's event-time
// clock is the minimum watermark across its input channels.
#ifndef SDPS_ENGINE_WATERMARK_H_
#define SDPS_ENGINE_WATERMARK_H_

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/time_util.h"

namespace sdps::engine {

/// Sentinel: no watermark received yet from an input.
inline constexpr SimTime kNoWatermark = std::numeric_limits<SimTime>::min();
/// Sentinel: the end-of-stream watermark, past every real event time.
/// Flushes every open window / remaining boundary.
inline constexpr SimTime kFinalWatermark = std::numeric_limits<SimTime>::max() / 4;

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
