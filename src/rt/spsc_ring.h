// Bounded single-producer/single-consumer ring buffer: the realtime
// backend's transport between operator stages, replacing the DES
// DriverQueue/Channel hops with a lock-free queue whose *fullness* is the
// backpressure signal — a producer pushing into a full ring blocks (spins,
// then naps), which is exactly how a saturated downstream operator slows
// an upstream one on real hardware.
//
// Classic cached-index design (see Rigtorp's SPSCQueue): head_ and tail_
// live on separate cache lines, and each side keeps a *cached* copy of the
// other side's index so the common case touches no shared line at all.
// Indices are absolute (monotonically increasing uint64_t, slot = idx &
// mask), which makes "full" a subtraction instead of a sacrificial slot
// and — more importantly — gives every element a stable position that
// survives wraparound. That stable position is what the recovery path
// keys on:
//
//   - In *retain* mode (chaos runs) a popped slot is copied out, not
//     moved, and stays live until the consumer calls AckThrough(): the
//     producer's fullness check runs against acked_, not head_, so the
//     window [acked_, head_) is a replayable log of consumed-but-not-yet-
//     committed elements.
//   - After a consumer crash, ReplayFromAcked() rewinds head_ to the ack
//     frontier and the restarted consumer re-pops the retained region in
//     original FIFO order. (Caller serializes this with a thread join:
//     the dead consumer's effects happen-before the rewind.)
//   - Reopen() clears a Close() so a restarted *producer* incarnation can
//     finish a stream; Abort() tears the ring down from either side —
//     blocked Push returns false, Pop returns nullopt — so a supervisor
//     that gives up on a slot never strands its peers mid-block.
//
// Slots carry storage in both directions. Push and pop are one slot-
// transfer primitive, a swap: the producer swaps its filled element into
// the tail slot and gets back whatever the slot held (storage the
// consumer handed back a lap earlier), and the consumer swaps its spent
// element into the head slot as it takes the new one. Heap-backed
// payloads (record batches, output vectors) therefore circulate through
// the ring instead of being allocated by one thread and freed by the
// other. In retain mode the consumer copy-assigns instead of swapping, so
// the slot keeps the original for replay; the copy reuses the consumer's
// own capacity.
//
// With retain off (the default), head_ itself frees a slot.
#ifndef SDPS_RT_SPSC_RING_H_
#define SDPS_RT_SPSC_RING_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace sdps::rt {

// A fixed line size rather than std::hardware_destructive_interference_size:
// that constant follows each translation unit's tuning flags (GCC warns
// with -Winterference-size wherever it is used), and the ring's layout
// must not differ between the units that share it.
inline constexpr size_t kCacheLine = 64;

/// Failed attempts BackoffStep spins through before it starts to nap.
inline constexpr int kBackoffSpins = 64;

/// The one ring-wait backoff (PushSwap, Pop, and the pipeline's
/// multi-ring PopAny): call it after each failed attempt with a counter
/// that starts at 0. The first kBackoffSpins calls spin — the peer is
/// usually a few hundred ns away — and every later call naps 50µs, so a
/// long wait costs no core. There is no yield stage: on a host with a
/// core per thread, yield returns at once and is only a dearer spin.
inline void BackoffStep(int& spins) {
  if (spins < kBackoffSpins) {
    ++spins;
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(50));
}

template <typename T>
class SpscRing {
 public:
  /// `capacity` is the number of elements the ring can hold; internally
  /// rounded up to a power of two.
  explicit SpscRing(size_t capacity) {
    SDPS_CHECK_GT(capacity, size_t{0});
    size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_.resize(cap);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Switch the ring into retained (replayable) mode. Must be called
  /// before the producer and consumer threads start — it is a plain field
  /// read on both hot paths.
  void set_retain(bool retain) { retain_ = retain; }
  bool retain() const { return retain_; }

  /// Producer side of the slot transfer: swaps `value` into the tail slot.
  /// On success `value` holds the slot's previous contents — a default T
  /// on the first lap, afterwards storage the consumer released — for the
  /// producer to clear and refill. Returns false when the ring is full or
  /// aborted (value untouched).
  bool TryPushSwap(T& value) {
    if (aborted_.load(std::memory_order_relaxed)) return false;
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - free_cache_ > mask_) {  // would exceed capacity
      free_cache_ = retain_ ? acked_.load(std::memory_order_acquire)
                            : head_.load(std::memory_order_acquire);
      if (tail - free_cache_ > mask_) return false;
    }
    using std::swap;
    swap(slots_[tail & mask_], value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Producer. Blocks until `value` is swapped into the ring — this wait
  /// *is* the realtime backpressure: a full downstream ring stalls the
  /// producer thread (BackoffStep between attempts). Returns false only
  /// when the ring was aborted (value untouched: the pipeline is being
  /// torn down).
  bool PushSwap(T& value) {
    int spins = 0;
    while (!TryPushSwap(value)) {
      if (aborted_.load(std::memory_order_acquire)) return false;
      BackoffStep(spins);
    }
    return true;
  }

  /// By-value conveniences over the swap (the returned slot contents are
  /// discarded).
  bool TryPush(const T& value) {
    T copy(value);
    return TryPushSwap(copy);
  }
  bool TryPush(T&& value) { return TryPushSwap(value); }
  bool Push(T value) { return PushSwap(value); }

  /// Consumer side of the slot transfer: on success `value` holds the head
  /// element and the slot holds `value`'s previous contents (a spent
  /// element handed back for the producer to reuse). In retain mode the
  /// element is copy-assigned instead and the slot keeps it, replayable
  /// until acked. Returns false when the ring is currently empty (which
  /// does NOT mean the stream ended — check closed()).
  bool TryPopSwap(T& value) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    T& slot = slots_[head & mask_];
    bool copied = false;
    if constexpr (std::is_copy_assignable_v<T>) {
      if (retain_) {
        value = slot;
        copied = true;
      }
    }
    if (!copied) {
      using std::swap;
      swap(slot, value);
    }
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer. Returns nullopt when the ring is currently empty.
  std::optional<T> TryPop() {
    T value{};
    if (!TryPopSwap(value)) return std::nullopt;
    return value;
  }

  /// Consumer. Blocks until an element arrives or the producer closed the
  /// ring AND the ring drained (or the ring was aborted). The
  /// close-then-drain order means every element pushed before Close() is
  /// delivered — shutdown never drops in-flight records (the identity
  /// tests depend on this).
  std::optional<T> Pop() {
    int spins = 0;
    for (;;) {
      if (aborted_.load(std::memory_order_acquire)) return std::nullopt;
      std::optional<T> value = TryPop();
      if (value.has_value()) return value;
      // Empty: re-check after observing closed so a Close() racing with
      // the last Push is handled — acquire on closed_ pairs with the
      // producer's release, making its final tail_ store visible.
      if (closed_.load(std::memory_order_acquire)) {
        value = TryPop();
        return value;  // nullopt = closed and drained
      }
      BackoffStep(spins);
    }
  }

  /// Producer, after its last Push: marks the stream complete. Consumers
  /// drain remaining elements, then Pop() returns nullopt.
  void Close() { closed_.store(true, std::memory_order_release); }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Clears a Close() so a restarted producer incarnation can append to
  /// the same stream. Caller must serialize with the old producer (join
  /// its thread first); the consumer side needs no coordination — it just
  /// stops seeing closed.
  void Reopen() { closed_.store(false, std::memory_order_release); }

  /// Either side (or a supervisor): tears the ring down. Blocked Push
  /// returns false and drops its value; Pop returns nullopt regardless of
  /// remaining elements. Irreversible.
  void Abort() { aborted_.store(true, std::memory_order_release); }

  // ---- Retained-region bookkeeping (retain mode; consumer side) ----

  /// Absolute index of the next element Pop will return. Consumer thread
  /// (or a supervisor serialized with it) only.
  uint64_t pop_index() const { return head_.load(std::memory_order_relaxed); }

  /// Ack frontier: elements below it are freed for the producer to reuse.
  uint64_t acked_index() const { return acked_.load(std::memory_order_relaxed); }

  /// Consumer: commits everything below `index` — those slots become
  /// unreplayable and the producer may overwrite them. Monotonic, and
  /// never past the pop cursor.
  void AckThrough(uint64_t index) {
    SDPS_CHECK(retain_);
    SDPS_CHECK_LE(index, head_.load(std::memory_order_relaxed));
    SDPS_CHECK_GE(index, acked_.load(std::memory_order_relaxed));
    acked_.store(index, std::memory_order_release);
  }

  /// Rewinds the pop cursor to the ack frontier so the retained region
  /// replays in original FIFO order. Must be serialized with the consumer
  /// thread (called between joining a dead incarnation and spawning its
  /// replacement); the producer may keep pushing concurrently.
  void ReplayFromAcked() {
    SDPS_CHECK(retain_);
    head_.store(acked_.load(std::memory_order_relaxed), std::memory_order_release);
  }

  /// Approximate occupancy (either side may race it forward); for tests
  /// and diagnostics only.
  size_t SizeApprox() const {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<size_t>(tail - head);
  }

  size_t capacity() const { return mask_ + 1; }

 private:
  std::vector<T> slots_;
  size_t mask_ = 0;
  bool retain_ = false;
  alignas(kCacheLine) std::atomic<uint64_t> head_{0};   // next index to pop
  alignas(kCacheLine) std::atomic<uint64_t> acked_{0};  // free frontier (retain mode)
  alignas(kCacheLine) uint64_t tail_cache_ = 0;         // consumer's view of tail_
  alignas(kCacheLine) std::atomic<uint64_t> tail_{0};   // next index to push
  alignas(kCacheLine) uint64_t free_cache_ = 0;  // producer's view of head_/acked_
  alignas(kCacheLine) std::atomic<bool> closed_{false};
  alignas(kCacheLine) std::atomic<bool> aborted_{false};
};

static_assert(alignof(SpscRing<int>) == kCacheLine);

}  // namespace sdps::rt

#endif  // SDPS_RT_SPSC_RING_H_
