// rt::chaos — wall-clock realization of a chaos::FaultSchedule against
// live pipeline workers (DESIGN.md §6). The DES injector perturbs modeled
// resources at exact virtual instants; here the same spec grammar compiles
// into per-slot fault lists that each worker thread polls at envelope
// boundaries against the shared rt::Clock:
//
//   crash     the incarnation returns mid-stream (thread exits; a popped-
//             but-unapplied envelope is exactly the "mid-batch" loss the
//             retained ring replays)
//   wedge     the thread stays alive but stops consuming — a dead spin
//             with a frozen heartbeat, distinguishable from a straggler
//             only by the supervisor's liveness detector
//   straggle  injected sleep proportional to each envelope's processing
//             time, throttling the slot to `factor` of its CPU
//
// Node-name mapping onto the pipeline topology: "t<i>" or "w<i>" is task
// slot i (all three kinds), "d<i>" is source slot i (straggle only —
// sources are unsupervised, and a crashed source has no replayable input
// to recover from, so crash/wedge there is a config error, not a
// scenario). Resource-model kinds (gcstorm/degrade/partition) have no
// wall-clock analogue here and are rejected.
#ifndef SDPS_RT_CHAOS_H_
#define SDPS_RT_CHAOS_H_

#include <utility>
#include <vector>

#include "chaos/fault_schedule.h"
#include "common/result.h"
#include "common/time_util.h"

namespace sdps::rt {

/// One compiled fault: wall-clock µs since pipeline start.
struct RtFault {
  chaos::FaultKind kind = chaos::FaultKind::kCrash;
  SimTime at = 0;
  SimTime duration = 0;  // straggle/wedge extent
  double factor = 1.0;   // straggle: CPU fraction kept
  bool fired = false;    // one-shot kinds (crash/wedge) fire once per run
};

/// A FaultSchedule compiled against a pipeline shape. Slot fault lists are
/// sorted by injection time.
struct RtChaosPlan {
  std::vector<std::vector<RtFault>> source_faults;  // [num_sources]
  std::vector<std::vector<RtFault>> task_faults;    // [num_tasks]

  bool HasFault(chaos::FaultKind kind) const;
  /// Wall-clock perturbation windows for watchdog excusal. Straggle
  /// windows are always excused (slow, not dead). Crash/wedge windows
  /// extend by `grace` (the rt restart moment is detection-dependent, not
  /// scheduled) and are excused only when `supervised`: without a
  /// supervisor nothing recovers them, and a stalled sink is exactly what
  /// the watchdog must trip on.
  std::vector<std::pair<SimTime, SimTime>> WallWindows(SimTime grace,
                                                      bool supervised) const;

  static Result<RtChaosPlan> Compile(const chaos::FaultSchedule& schedule,
                                     int num_sources, int num_tasks);
};

/// Per-slot injection state consulted by the owning worker thread at
/// envelope boundaries. Lives in the slot (not the incarnation): a crash
/// that already fired must not re-fire after the restart. Incarnations of
/// a slot are serialized by the supervisor's join, so no atomics.
class SlotChaos {
 public:
  SlotChaos() = default;
  explicit SlotChaos(std::vector<RtFault> faults) : faults_(std::move(faults)) {}

  /// Fires the next due one-shot fault (crash/wedge), if any: marks it
  /// fired and returns it (null when nothing is due). The returned fault
  /// stays valid for the worker's lifetime.
  const RtFault* Due(SimTime now);

  /// Straggle throttle: given `busy` µs just spent processing, the extra
  /// sleep that scales the slot to `factor` CPU — busy * (1/factor - 1)
  /// for the tightest active straggle window at `now`, else 0.
  SimTime StraggleSleep(SimTime now, SimTime busy) const;

  bool armed() const { return !faults_.empty(); }

 private:
  std::vector<RtFault> faults_;
};

}  // namespace sdps::rt

#endif  // SDPS_RT_CHAOS_H_
