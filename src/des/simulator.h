// Discrete-event simulation kernel. A Simulator owns the time-ordered
// pending events and the root coroutine processes spawned onto it. All
// randomness and ordering is deterministic: ties in time are broken by
// insertion sequence.
#ifndef SDPS_DES_SIMULATOR_H_
#define SDPS_DES_SIMULATOR_H_

#include <array>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/time_util.h"
#include "des/event_fn.h"
#include "des/task.h"
#include "des/time_source.h"

namespace sdps::des {

/// The simulation executor. Not thread-safe: a simulation runs on one
/// thread (parallelism inside the simulated world is modelled, not real;
/// real parallelism runs whole Simulators side by side — see sdps::exec).
///
/// Events due within kWheelSpan microseconds of now() live in a timing
/// wheel of kWheelSpan FIFO slots, one per microsecond: intrusive lists
/// threaded through a slab of callback nodes, with occupancy bitmaps to
/// find the next busy slot. Events further ahead wait in a far store, a
/// 4-ary min-heap on (time, seq), and move into their slots in (time, seq)
/// order whenever now() advances. A slot therefore only ever holds events
/// of one time, in the order they were scheduled: every far event of a
/// time was scheduled before any direct wheel event of that time (it was
/// too far ahead when scheduled) and is migrated before now() advances far
/// enough for such an event to be scheduled. Extraction order is strictly
/// (time, scheduling order), as with a single heap. Scheduling a callback
/// with a small trivially-copyable capture never touches the allocator.
class Simulator final : public TimeSource {
 public:
  Simulator();
  ~Simulator() override;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time (microseconds since simulation start).
  /// Overrides des::TimeSource; `final` keeps calls through a concrete
  /// Simulator& devirtualized, so the event hot loop is unchanged.
  SimTime now() const final { return now_; }

  /// Schedules a callback at absolute simulated time `t` (>= now()).
  /// Accepts any void() callable by forwarding reference; small
  /// trivially-copyable captures are stored inline in the event.
  template <typename F>
  void ScheduleAt(SimTime t, F&& fn) {
    SDPS_CHECK_GE(t, now_);
    if (free_nodes_ == kNil) GrowNodes();
    const uint32_t node = free_nodes_;
    Node& n = NodeAt(node);
    free_nodes_ = n.next;
    // Build the callback in its node: a free node's EventFn is empty.
    n.fn.~EventFn();
    ::new (static_cast<void*>(&n.fn)) EventFn(std::forward<F>(fn));
    n.next = kNil;
    if (t - now_ < kWheelSpan) {
      Append(static_cast<size_t>(t) & kSlotMask, node);
    } else {
      PushFar(FarEntry{MakeKey(t, next_seq_++), node});
    }
  }

  /// Schedules a callback `delay` microseconds from now.
  template <typename F>
  void ScheduleAfter(SimTime delay, F&& fn) {
    ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules a coroutine resumption (hot path: the handle is an 8-byte
  /// inline capture; no allocation).
  void ScheduleResumeAt(SimTime t, std::coroutine_handle<> h) {
    ScheduleAt(t, [h] { h.resume(); });
  }
  void ScheduleResumeAfter(SimTime delay, std::coroutine_handle<> h) {
    ScheduleResumeAt(now_ + delay, h);
  }

  /// Starts a root process. The simulator owns the coroutine frame; frames
  /// still suspended when the simulator is destroyed are destroyed with it.
  void Spawn(Task<> task);

  /// Executes the next pending event. Returns false when none remain.
  bool Step() { return StepUntil(kNever); }

  /// Runs until no event is pending or Stop() is called.
  void RunUntilIdle();

  /// Processes all events with time <= t, then advances now() to t.
  void RunUntil(SimTime t);

  /// Convenience: RunUntil(now() + d).
  void RunFor(SimTime d) { RunUntil(now_ + d); }

  /// Makes the current Run* call return after the in-flight event.
  void Stop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }

  /// Total events executed so far (kernel benchmarking / diagnostics).
  uint64_t processed_events() const { return processed_events_; }
  size_t pending_events() const { return wheel_events_ + far_.size(); }

  /// Wheel span in microseconds: events scheduled at least this far ahead
  /// wait in the far store.
  static constexpr SimTime kWheelSpan = 4096;

 private:
  static constexpr SimTime kNever = INT64_MAX;
  static constexpr size_t kSlotMask = kWheelSpan - 1;
  static constexpr size_t kBitmapWords = kWheelSpan / 64;
  static constexpr uint32_t kNil = UINT32_MAX;
  static constexpr uint32_t kChunkBits = 10;  // 1024 nodes per slab chunk
  static_assert((kWheelSpan & kSlotMask) == 0 && kBitmapWords <= 64);

  /// Far-store key: time in the high 64 bits, scheduling seq in the low
  /// 64, so a single unsigned 128-bit compare is exactly (time, seq)
  /// lexicographic order. Valid because simulated time is never negative.
  using EventKey = unsigned __int128;
  static EventKey MakeKey(SimTime t, uint64_t seq) {
    return (static_cast<EventKey>(static_cast<uint64_t>(t)) << 64) | seq;
  }
  static SimTime KeyTime(EventKey k) {
    return static_cast<SimTime>(static_cast<uint64_t>(k >> 64));
  }

  /// A pending callback, one cache line; `next` links the slot list it
  /// sits on, or the free list once it has run.
  struct alignas(64) Node {
    EventFn fn;
    uint32_t next = kNil;
  };
  static_assert(sizeof(Node) == 64);
  struct Slot {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };
  struct FarEntry {
    EventKey key;
    uint32_t node;  // slab index
  };

  Node& NodeAt(uint32_t i) {
    return chunks_[i >> kChunkBits][i & ((uint32_t{1} << kChunkBits) - 1)];
  }
  /// Adds a node to the slab and makes it the free list.
  void GrowNodes();
  /// Appends `node` to the FIFO of wheel slot `slot`.
  void Append(size_t slot, uint32_t node) {
    Slot& s = slots_[slot];
    if (s.head == kNil) {
      s.head = node;
      const size_t word = slot >> 6;
      busy_[word] |= uint64_t{1} << (slot & 63);
      busy_words_ |= uint64_t{1} << word;
    } else {
      NodeAt(s.tail).next = node;
    }
    s.tail = node;
    ++wheel_events_;
  }
  /// Index of the first busy slot at or after now()'s, circularly.
  /// Requires wheel_events_ > 0.
  size_t NextBusySlot() const;
  /// Moves now() to `t` and migrates far events now within the span.
  void AdvanceTo(SimTime t);
  void PushFar(FarEntry entry);
  FarEntry PopFar();
  /// Executes the earliest pending event if it is due at or before
  /// `limit`; returns false (running nothing) otherwise.
  bool StepUntil(SimTime limit);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;  // far-store tie-break
  uint64_t processed_events_ = 0;
  bool stop_requested_ = false;
  size_t wheel_events_ = 0;
  uint64_t busy_words_ = 0;  // bit w: busy_[w] != 0
  std::array<uint64_t, kBitmapWords> busy_{};  // bit s: slots_[s] non-empty
  std::vector<Slot> slots_;  // kWheelSpan FIFOs, slot = time mod span
  // The node slab grows by whole chunks, so a node never moves: a callback
  // runs in place even when it schedules events that grow the slab.
  std::vector<std::unique_ptr<Node[]>> chunks_;
  uint32_t num_nodes_ = 0;
  uint32_t free_nodes_ = kNil;  // free-list head
  std::vector<FarEntry> far_;   // 4-ary min-heap on key; root at 0
  std::vector<std::coroutine_handle<>> roots_;
};

/// Awaitable that suspends the current coroutine for `delay` simulated
/// microseconds: `co_await Delay(sim, Seconds(1));`
class Delay {
 public:
  Delay(Simulator& sim, SimTime delay) : sim_(sim), delay_(delay) {
    SDPS_CHECK_GE(delay, 0);
  }
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { sim_.ScheduleResumeAfter(delay_, h); }
  void await_resume() const noexcept {}

 private:
  Simulator& sim_;
  SimTime delay_;
};

}  // namespace sdps::des

#endif  // SDPS_DES_SIMULATOR_H_
