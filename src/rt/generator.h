// The realtime source's record generator: the same deterministic
// driver::RecordStream the DES generator paces with simulated Delays,
// paced here with wall-clock SleepUntil. Event times come from the
// PLANNED emission schedule, not from when the OS actually ran the
// thread — so a given (config, seed) produces a bit-identical record
// sequence on both backends, and scheduling jitter shows up as latency,
// never as different data (DESIGN.md §6).
#ifndef SDPS_RT_GENERATOR_H_
#define SDPS_RT_GENERATOR_H_

#include <optional>

#include "common/random.h"
#include "common/time_util.h"
#include "driver/generator.h"
#include "driver/record_stream.h"
#include "engine/record.h"
#include "rt/clock.h"

namespace sdps::rt {

class Generator {
 public:
  /// The config must outlive the generator (RecordStream keeps a ref).
  Generator(const driver::GeneratorConfig& config, Rng rng)
      : stream_(config, rng) {}

  /// The next record of the schedule, or nullopt once the next planned
  /// emission crosses config.duration (same horizon check as the DES
  /// generator loop).
  std::optional<engine::Record> Next() {
    planned_ = stream_.NextTime(planned_);
    if (planned_ >= stream_.config().duration) return std::nullopt;
    return stream_.Build(planned_);
  }

  /// Planned emission time of the record Next() just returned.
  SimTime planned_time() const { return planned_; }

  /// Paced mode: sleep until the wall clock reaches the planned emission
  /// time (Clock::SleepUntil: no spinning, waking late by the OS timer
  /// slack). Records that fell due during the nap, and a source that fell
  /// behind, return at once — the generator is open-world and never slows
  /// for the SUT; it just emits late. Returns the wall time SleepUntil
  /// observed (>= the planned time), which the paced source uses as the
  /// record's ingest stamp.
  SimTime PaceTo(const Clock& clock) const { return clock.SleepUntil(planned_); }

 private:
  driver::RecordStream stream_;
  SimTime planned_ = 0;
};

}  // namespace sdps::rt

#endif  // SDPS_RT_GENERATOR_H_
