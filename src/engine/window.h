// Sliding-window assignment algebra (shared by every engine).
//
// Windows are aligned to multiples of the slide: window index w covers
// [w*slide, w*slide + range). A tumbling window is the slide == range case.
#ifndef SDPS_ENGINE_WINDOW_H_
#define SDPS_ENGINE_WINDOW_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/time_util.h"

namespace sdps::engine {

struct WindowSpec {
  SimTime range = Seconds(8);
  SimTime slide = Seconds(4);
};

class WindowAssigner {
 public:
  explicit WindowAssigner(WindowSpec spec) : spec_(spec) {
    SDPS_CHECK_GT(spec.range, 0);
    SDPS_CHECK_GT(spec.slide, 0);
    SDPS_CHECK_LE(spec.slide, spec.range);
    SDPS_CHECK_EQ(spec.range % spec.slide, 0)
        << "range must be a multiple of slide for aligned sliding windows";
  }

  const WindowSpec& spec() const { return spec_; }

  SimTime WindowStart(int64_t w) const { return w * spec_.slide; }
  SimTime WindowEnd(int64_t w) const { return w * spec_.slide + spec_.range; }

  /// Number of windows any timestamp belongs to.
  int64_t WindowsPerRecord() const { return spec_.range / spec_.slide; }

  /// Last (newest) window containing t.
  int64_t LastWindowFor(SimTime t) const { return FloorDiv(t, spec_.slide); }
  /// First (oldest) window containing t.
  int64_t FirstWindowFor(SimTime t) const {
    return LastWindowFor(t) - WindowsPerRecord() + 1;
  }

  /// Appends all window indices containing t to *out (oldest first).
  void Assign(SimTime t, std::vector<int64_t>* out) const {
    const int64_t last = LastWindowFor(t);
    for (int64_t w = last - WindowsPerRecord() + 1; w <= last; ++w) {
      out->push_back(w);
    }
  }

  bool Contains(int64_t w, SimTime t) const {
    return t >= WindowStart(w) && t < WindowEnd(w);
  }

 private:
  WindowSpec spec_;
};

}  // namespace sdps::engine

#endif  // SDPS_ENGINE_WINDOW_H_
