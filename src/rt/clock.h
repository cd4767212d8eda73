// The realtime backend's clock: a monotonic wall-clock source satisfying
// the same des::TimeSource interface the simulator implements. Both sides
// of the runtime-duality seam (DESIGN.md §6) speak SimTime microseconds —
// in DES now() is the event loop's virtual time, here it is
// steady_clock microseconds since Start(). Components written against
// TimeSource (LatencySink, Tracer via ClockGuard) run unchanged on
// either backend.
#ifndef SDPS_RT_CLOCK_H_
#define SDPS_RT_CLOCK_H_

#include <chrono>
#include <thread>

#include "common/time_util.h"
#include "des/time_source.h"

namespace sdps::rt {

class Clock final : public des::TimeSource {
 public:
  /// The epoch is fixed at construction; Start() resets it (use right
  /// before launching pipeline threads so t=0 is the pipeline start).
  Clock() : epoch_(std::chrono::steady_clock::now()) {}

  void Start() { epoch_ = std::chrono::steady_clock::now(); }

  /// Microseconds since the epoch. Thread-safe: steady_clock reads plus
  /// an immutable epoch.
  SimTime now() const final {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Sleeps until clock time `target` (µs since epoch) and returns the
  /// clock read it makes on waking (>= target): a caller already at or
  /// past `target` pays exactly one clock read. There is no spin tail, so
  /// the thread costs no CPU while it waits and the pacing error of the
  /// realtime generator is the OS timer slack (~50-100 µs late, never
  /// early). The paced generator calls it once per wake, not per record:
  /// records already due at the returned read reuse it
  /// (Generator::PaceTo).
  SimTime SleepUntil(SimTime target) const {
    SimTime t = now();
    while (t < target) {
      std::this_thread::sleep_until(epoch_ + std::chrono::microseconds(target));
      t = now();
    }
    return t;
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace sdps::rt

#endif  // SDPS_RT_CLOCK_H_
