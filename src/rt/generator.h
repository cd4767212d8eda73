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
  /// slack) and return the wall time observed (>= the planned time), which
  /// the paced source uses as the record's ingest stamp. One clock read
  /// per wake: a record planned at or before the last read returns that
  /// read without touching the clock — every record that fell due during
  /// the nap does, and so does a source that fell behind until its
  /// schedule passes the read. Since planned <= read <= now, no sleep is
  /// skipped or added, and every stamp is a real read that never
  /// postdates the record's true ingest (the unpaced source's
  /// one-read-per-staging-batch rule). The generator is open-world and
  /// never slows for the SUT; it just emits late.
  SimTime PaceTo(const Clock& clock) {
    if (planned_ > observed_) observed_ = clock.SleepUntil(planned_);
    return observed_;
  }

 private:
  driver::RecordStream stream_;
  SimTime planned_ = 0;
  SimTime observed_ = -1;  // PaceTo's last clock read; -1 = none yet
};

}  // namespace sdps::rt

#endif  // SDPS_RT_GENERATOR_H_
