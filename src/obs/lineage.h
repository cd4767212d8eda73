// Per-tuple latency attribution ("lineage") sampling. A deterministic
// 1-in-N sample of generated records is stamped at each pipeline stage
// boundary — driver queue push/pop, cluster network arrival, engine
// operator add, window fire, driver sink — and closed into a per-stage
// breakdown whose stage durations telescope: consecutive timestamps are
// differenced, so their sum equals the measured event-time latency
// (sink arrival − event time) *exactly*, with no bookkeeping drift.
//
// Timestamps are passed in by the call sites (they all run on the DES
// clock), so the tracker itself is clock-free and trivially
// deterministic: the sample is chosen by a push counter, not by time or
// randomness, and two identically-seeded runs sample identical records.
//
// Stamping is first-wins (idempotent). A record can legitimately reach
// the same stage more than once — it lands in two overlapping windows,
// Storm broadcasts ads to every bolt, buffered windows re-merge at fire
// time — and attribution follows the *first* path to the sink.
#ifndef SDPS_OBS_LINEAGE_H_
#define SDPS_OBS_LINEAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/time_util.h"

namespace sdps::obs {

/// Index of a sampled record in the tracker, carried inside
/// engine::Record / engine::OutputRecord. -1 (kNoLineage) = unsampled.
using LineageId = int32_t;
inline constexpr LineageId kNoLineage = -1;

/// The attribution stages, in pipeline order. Durations are differences
/// of consecutive stamps, so they sum exactly to closed − event_time.
enum class LineageStage : int {
  kQueueWait = 0,  // event/push time -> popped by the SUT
  kNetwork,        // popped -> ingested at the engine worker
  kOperator,       // ingested -> added to operator/window state
  kWindow,         // added -> window fired (window residency)
  kSink,           // fired -> emitted at the driver sink
};
inline constexpr int kNumLineageStages = 5;

/// Human-readable stage name ("queue_wait", "network", ...).
const char* LineageStageName(LineageStage stage);

/// One sampled record's stamp set. Unset stamps are -1 until Close(),
/// which backfills them from the previous stage (zero-duration stage).
struct LineageRecord {
  LineageId id = kNoLineage;
  SimTime event_time = -1;  // generation time (latency baseline)
  SimTime pushed = -1;      // entered the driver queue
  SimTime popped = -1;      // left the driver queue
  SimTime ingested = -1;    // arrived at an engine worker
  SimTime op_added = -1;    // absorbed by operator/window state
  SimTime fired = -1;       // the containing window fired
  SimTime closed = -1;      // reached the driver sink
  bool done = false;

  /// Stage duration in sim-time ticks; only meaningful once done.
  SimTime StageDuration(LineageStage stage) const;
  /// Sum of all stage durations == closed - event_time once done.
  SimTime Total() const { return done ? closed - event_time : 0; }
};

/// Aggregate per-stage attribution over all closed records.
struct LineageBreakdown {
  uint64_t records = 0;                        // closed samples
  double stage_seconds[kNumLineageStages] = {};  // summed per stage
  double total_seconds = 0;                    // summed event-time latency

  double MeanStageSeconds(LineageStage stage) const {
    return records == 0 ? 0.0
                        : stage_seconds[static_cast<int>(stage)] /
                              static_cast<double>(records);
  }
  double MeanTotalSeconds() const {
    return records == 0 ? 0.0 : total_seconds / static_cast<double>(records);
  }
};

class LineageTracker {
 public:
  static constexpr uint32_t kDefaultSampleEvery = 1024;
  static constexpr size_t kDefaultCapacity = 1 << 16;

  LineageTracker() = default;
  LineageTracker(const LineageTracker&) = delete;
  LineageTracker& operator=(const LineageTracker&) = delete;

  /// The process-wide tracker every built-in stamping point records
  /// into. Disabled by default; the bench harness / tests enable it.
  static LineageTracker& Default();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Sample 1 in every `n` pushed records (counted deterministically in
  /// push order). n == 1 samples everything.
  void set_sample_every(uint32_t n) { sample_every_ = n == 0 ? 1 : n; }

  /// Stops opening new samples once this many records are outstanding
  /// (fixed memory; the push counter keeps advancing).
  void set_capacity(size_t capacity) { capacity_ = capacity; }

  /// Drops all records and restarts the sampling counter. Called at the
  /// start of each experiment run (mirrors the tracer's ring reset).
  void Reset();

  /// Called on every driver-queue push. Returns a lineage id for the
  /// 1-in-N sampled records, kNoLineage otherwise. ~1 ns when disabled.
  LineageId MaybeOpen(SimTime event_time, SimTime push_time) {
    if (!enabled_) return kNoLineage;
    return OpenSlow(event_time, push_time);
  }

  // Stage stamps: no-ops for id == kNoLineage; first stamp wins.
  void StampPopped(LineageId id, SimTime t) {
    if (id >= 0) Stamp(id, &LineageRecord::popped, t);
  }
  void StampIngested(LineageId id, SimTime t) {
    if (id >= 0) Stamp(id, &LineageRecord::ingested, t);
  }
  void StampOperator(LineageId id, SimTime t) {
    if (id >= 0) Stamp(id, &LineageRecord::op_added, t);
  }
  void StampFired(LineageId id, SimTime t) {
    if (id >= 0) Stamp(id, &LineageRecord::fired, t);
  }

  /// Finalises the record at sink-emit time: backfills skipped stages,
  /// feeds the obs.lineage.* registry instruments. First close wins
  /// (a sampled tuple can reach the sink through two windows).
  void Close(LineageId id, SimTime t);

  /// Closed records sorted by (closed, id) — deterministic for export.
  std::vector<LineageRecord> Snapshot() const;

  /// Aggregate attribution over the closed records.
  LineageBreakdown Breakdown() const;

  uint64_t pushes_seen() const { return push_count_; }
  uint64_t opened() const { return static_cast<uint64_t>(records_.size()); }
  uint64_t closed() const { return closed_count_; }

 private:
  LineageId OpenSlow(SimTime event_time, SimTime push_time);
  void Stamp(LineageId id, SimTime LineageRecord::* slot, SimTime t) {
    if (static_cast<size_t>(id) >= records_.size()) return;
    LineageRecord& rec = records_[static_cast<size_t>(id)];
    if (rec.done || rec.*slot >= 0) return;
    rec.*slot = t;
  }

  bool enabled_ = false;
  uint32_t sample_every_ = kDefaultSampleEvery;
  size_t capacity_ = kDefaultCapacity;
  uint64_t push_count_ = 0;
  uint64_t closed_count_ = 0;
  std::vector<LineageRecord> records_;
};

}  // namespace sdps::obs

#endif  // SDPS_OBS_LINEAGE_H_
