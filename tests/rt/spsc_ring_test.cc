#include "rt/spsc_ring.h"

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace sdps::rt {
namespace {

TEST(SpscRingTest, SingleThreadedFifo) {
  SpscRing<int> ring(4);
  EXPECT_FALSE(ring.TryPop().has_value());
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_TRUE(ring.TryPush(3));
  EXPECT_EQ(ring.TryPop().value(), 1);
  EXPECT_EQ(ring.TryPop().value(), 2);
  EXPECT_EQ(ring.TryPop().value(), 3);
  EXPECT_FALSE(ring.TryPop().has_value());
}

TEST(SpscRingTest, CapacityRoundsUpAndFullRingRejectsPush) {
  SpscRing<int> ring(3);  // rounds up to a power of two >= 4
  EXPECT_GE(ring.capacity(), 3u);
  size_t pushed = 0;
  while (ring.TryPush(static_cast<int>(pushed))) ++pushed;
  EXPECT_EQ(pushed, ring.capacity());
  EXPECT_FALSE(ring.TryPush(999));
  // Draining one slot makes exactly one push possible again.
  EXPECT_EQ(ring.TryPop().value(), 0);
  EXPECT_TRUE(ring.TryPush(1000));
  EXPECT_FALSE(ring.TryPush(1001));
}

TEST(SpscRingTest, WraparoundPreservesFifoAcrossManyLaps) {
  SpscRing<uint64_t> ring(8);
  uint64_t next_push = 0, next_pop = 0;
  // Push/pop in unequal runs so head and tail wrap the (small) ring many
  // times at varying offsets.
  for (int round = 0; round < 1000; ++round) {
    const int burst = 1 + round % 5;
    for (int i = 0; i < burst; ++i) {
      if (ring.TryPush(next_push)) ++next_push;
    }
    const int drain = 1 + (round * 3) % 5;
    for (int i = 0; i < drain; ++i) {
      auto v = ring.TryPop();
      if (!v.has_value()) break;
      EXPECT_EQ(*v, next_pop);
      ++next_pop;
    }
  }
  while (auto v = ring.TryPop()) {
    EXPECT_EQ(*v, next_pop);
    ++next_pop;
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(SpscRingTest, BlockingPushWaitsForConsumer) {
  SpscRing<int> ring(2);
  // Fill the ring, then start a producer that must block in Push until
  // the consumer drains a slot — the realtime pipeline's backpressure.
  while (ring.TryPush(0)) {
  }
  std::atomic<bool> push_returned{false};
  std::thread producer([&] {
    ring.Push(42);
    push_returned.store(true);
  });
  // The producer cannot complete while the ring stays full.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(push_returned.load());
  // Draining one slot unblocks it.
  EXPECT_TRUE(ring.TryPop().has_value());
  producer.join();
  EXPECT_TRUE(push_returned.load());
}

TEST(SpscRingTest, PopBlocksUntilPushArrives) {
  SpscRing<int> ring(4);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ring.Push(7);
  });
  // Pop must block (not return nullopt) on an open, empty ring.
  auto v = ring.Pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
  producer.join();
}

TEST(SpscRingTest, ShutdownDrainsBufferedItemsThenReportsClosed) {
  SpscRing<int> ring(8);
  ring.Push(1);
  ring.Push(2);
  ring.Close();
  EXPECT_TRUE(ring.closed());
  // Close-then-drain: buffered items survive the close...
  EXPECT_EQ(ring.Pop().value(), 1);
  EXPECT_EQ(ring.Pop().value(), 2);
  // ...and only then does Pop report end-of-stream.
  EXPECT_FALSE(ring.Pop().has_value());
  EXPECT_FALSE(ring.TryPop().has_value());
}

TEST(SpscRingTest, ConsumerBlockedInPopWakesOnClose) {
  SpscRing<int> ring(4);
  std::thread consumer([&] {
    EXPECT_FALSE(ring.Pop().has_value());  // wakes with end-of-stream
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ring.Close();
  consumer.join();
}

TEST(SpscRingTest, TwoThreadStressKeepsSequenceExact) {
  constexpr uint64_t kItems = 200'000;
  SpscRing<uint64_t> ring(64);
  std::thread producer([&] {
    for (uint64_t i = 0; i < kItems; ++i) ring.Push(i);
    ring.Close();
  });
  uint64_t expect = 0;
  while (auto v = ring.Pop()) {
    ASSERT_EQ(*v, expect);
    ++expect;
  }
  producer.join();
  EXPECT_EQ(expect, kItems);
}

// ---- Retained-region lifecycle: close/reopen/replay (the rt::chaos
// transport contract). ----

TEST(SpscRingReplayTest, RetainedPopIsReplayableUntilAcked) {
  SpscRing<int> ring(8);
  ring.set_retain(true);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.TryPush(i));
  // Consume three, ack one: [1, 3) stays replayable.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(ring.TryPop().value(), i);
  ring.AckThrough(1);
  EXPECT_EQ(ring.acked_index(), 1u);
  EXPECT_EQ(ring.pop_index(), 3u);
  ring.ReplayFromAcked();
  EXPECT_EQ(ring.pop_index(), 1u);
  // Replay re-delivers the unacked prefix in original order, then new data.
  for (int i = 1; i < 5; ++i) EXPECT_EQ(ring.TryPop().value(), i);
  EXPECT_FALSE(ring.TryPop().has_value());
}

TEST(SpscRingReplayTest, RetainModeFullnessKeysOffAckNotPop) {
  SpscRing<int> ring(4);
  ring.set_retain(true);
  size_t pushed = 0;
  while (ring.TryPush(static_cast<int>(pushed))) ++pushed;
  EXPECT_EQ(pushed, ring.capacity());
  // Popping without acking frees nothing: the slots stay retained.
  EXPECT_EQ(ring.TryPop().value(), 0);
  EXPECT_EQ(ring.TryPop().value(), 1);
  EXPECT_FALSE(ring.TryPush(999));
  // Acking is what returns capacity to the producer.
  ring.AckThrough(2);
  EXPECT_TRUE(ring.TryPush(100));
  EXPECT_TRUE(ring.TryPush(101));
  EXPECT_FALSE(ring.TryPush(102));
}

TEST(SpscRingReplayTest, WraparoundAcrossReopenKeepsFifoExact) {
  SpscRing<uint64_t> ring(8);
  ring.set_retain(true);
  uint64_t next_push = 0, next_pop = 0;
  // Several close/reopen generations, each wrapping the small ring a few
  // times, with a replay in the middle of each generation: absolute
  // indices must keep FIFO order exact through every lap and restart.
  for (int generation = 0; generation < 4; ++generation) {
    for (int round = 0; round < 40; ++round) {
      const int burst = 1 + round % 3;
      for (int i = 0; i < burst; ++i) {
        if (ring.TryPush(next_push)) ++next_push;
      }
      for (int i = 0; i < 2; ++i) {
        auto v = ring.TryPop();
        if (!v.has_value()) break;
        EXPECT_EQ(*v, next_pop);
        ++next_pop;
        // Ack lags the pop cursor by up to 3 elements, so the
        // mid-generation replay below actually has a region to re-deliver.
        if (next_pop % 3 == 0) ring.AckThrough(next_pop);
      }
    }
    ring.Close();
    EXPECT_TRUE(ring.closed());
    // Crash-restart in the middle of the generation: everything popped
    // since the last ack replays in order.
    const uint64_t acked = ring.acked_index();
    ring.ReplayFromAcked();
    next_pop = acked;
    while (auto v = ring.TryPop()) {
      EXPECT_EQ(*v, next_pop);
      ++next_pop;
    }
    ring.AckThrough(ring.pop_index());
    EXPECT_EQ(next_pop, next_push);
    ring.Reopen();
    EXPECT_FALSE(ring.closed());
  }
}

TEST(SpscRingReplayTest, ConcurrentCloseVsBlockedPushDeliversEverything) {
  SpscRing<int> ring(2);
  ring.set_retain(true);
  // Producer fills the ring, blocks in Push, then closes once unblocked.
  // The consumer's drain races the close; close-then-drain must still
  // deliver every element exactly once (in ack order).
  constexpr int kItems = 64;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) EXPECT_TRUE(ring.Push(i));
    ring.Close();
  });
  int expect = 0;
  while (auto v = ring.Pop()) {
    EXPECT_EQ(*v, expect);
    ++expect;
    ring.AckThrough(ring.pop_index());
  }
  producer.join();
  EXPECT_EQ(expect, kItems);
}

TEST(SpscRingReplayTest, ShutdownDrainAfterRestartDeliversRetainedSuffix) {
  SpscRing<int> ring(16);
  ring.set_retain(true);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(ring.Push(i));
  ring.Close();
  // Consumer processes 7, commits 4, then "crashes".
  for (int i = 0; i < 7; ++i) EXPECT_EQ(ring.Pop().value(), i);
  ring.AckThrough(4);
  // Restarted consumer replays from the ack frontier and must see the
  // retained suffix [4, 10) and then a clean end-of-stream, even though
  // the close happened before the crash.
  ring.ReplayFromAcked();
  for (int i = 4; i < 10; ++i) EXPECT_EQ(ring.Pop().value(), i);
  EXPECT_FALSE(ring.Pop().has_value());
}

TEST(SpscRingReplayTest, AbortUnblocksBothSides) {
  SpscRing<int> full_ring(2);
  while (full_ring.TryPush(0)) {
  }
  std::atomic<bool> push_result{true};
  std::thread producer([&] { push_result.store(full_ring.Push(42)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  full_ring.Abort();
  producer.join();
  EXPECT_FALSE(push_result.load());  // value dropped, not delivered

  SpscRing<int> empty_ring(2);
  std::thread consumer([&] { EXPECT_FALSE(empty_ring.Pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  empty_ring.Abort();
  consumer.join();
  // After abort, even buffered elements are unreachable: teardown wins.
  EXPECT_FALSE(full_ring.Pop().has_value());
}

// ---- Slot transfer: storage circulates through the slots (the rt data
// plane's allocation-free envelopes). ----

TEST(SpscRingSwapTest, ReleasedStorageReturnsToProducerWithCapacity) {
  SpscRing<std::vector<int>> ring(1);
  std::vector<int> filled(100, 7);
  EXPECT_TRUE(ring.TryPushSwap(filled));
  EXPECT_TRUE(filled.empty());  // first lap: the slot's default value

  // The consumer swaps its own spent buffer into the slot as it pops.
  std::vector<int> held;
  held.reserve(256);
  const int* released = held.data();
  ASSERT_TRUE(ring.TryPopSwap(held));
  EXPECT_EQ(held, std::vector<int>(100, 7));

  // The producer's next push gets exactly that buffer back, capacity intact.
  std::vector<int> next = {1, 2, 3};
  EXPECT_TRUE(ring.TryPushSwap(next));
  EXPECT_EQ(next.data(), released);
  EXPECT_GE(next.capacity(), 256u);
  ASSERT_TRUE(ring.TryPopSwap(held));
  EXPECT_EQ(held, (std::vector<int>{1, 2, 3}));
}

TEST(SpscRingSwapTest, FullRingLeavesPushValueUntouched) {
  SpscRing<std::vector<int>> ring(1);
  std::vector<int> a = {1};
  EXPECT_TRUE(ring.TryPushSwap(a));
  std::vector<int> b = {2, 3};
  EXPECT_FALSE(ring.TryPushSwap(b));
  EXPECT_EQ(b, (std::vector<int>{2, 3}));
  std::vector<int> out;
  EXPECT_TRUE(ring.TryPopSwap(out));
  EXPECT_FALSE(ring.TryPopSwap(out));  // empty: value untouched
  EXPECT_EQ(out, (std::vector<int>{1}));
}

TEST(SpscRingSwapTest, RetainModeReplaysOriginalsAfterConsumerClearsItsCopy) {
  SpscRing<std::vector<int>> ring(4);
  ring.set_retain(true);
  std::vector<int> a = {1, 2, 3}, b = {4, 5};
  EXPECT_TRUE(ring.TryPushSwap(a));
  EXPECT_TRUE(ring.TryPushSwap(b));
  // The consumer copies out of the slots (into its own capacity) and then
  // trashes its copy, as a task does when it moves on.
  std::vector<int> held;
  held.reserve(64);
  const int* own = held.data();
  ASSERT_TRUE(ring.TryPopSwap(held));
  EXPECT_EQ(held, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(held.data(), own);
  held.clear();
  ASSERT_TRUE(ring.TryPopSwap(held));
  EXPECT_EQ(held, (std::vector<int>{4, 5}));
  held.assign(10, -1);
  // A crash-restart replays the untouched originals in FIFO order.
  ring.ReplayFromAcked();
  ASSERT_TRUE(ring.TryPopSwap(held));
  EXPECT_EQ(held, (std::vector<int>{1, 2, 3}));
  ASSERT_TRUE(ring.TryPopSwap(held));
  EXPECT_EQ(held, (std::vector<int>{4, 5}));
  EXPECT_FALSE(ring.TryPopSwap(held));
}

TEST(SpscRingSwapTest, CloseThenDrainAndAbortKeepTheirContract) {
  SpscRing<std::vector<int>> ring(4);
  std::vector<int> v = {1};
  EXPECT_TRUE(ring.PushSwap(v));
  v = {2};
  EXPECT_TRUE(ring.PushSwap(v));
  ring.Close();
  // Close-then-drain: both buffered elements survive the close.
  std::vector<int> out;
  ASSERT_TRUE(ring.TryPopSwap(out));
  EXPECT_EQ(out, std::vector<int>{1});
  ASSERT_TRUE(ring.TryPopSwap(out));
  EXPECT_EQ(out, std::vector<int>{2});
  EXPECT_FALSE(ring.TryPopSwap(out));
  EXPECT_TRUE(ring.closed());

  // Abort: a producer blocked in PushSwap returns false, value untouched.
  SpscRing<std::vector<int>> full(1);
  std::vector<int> first = {0};
  EXPECT_TRUE(full.TryPushSwap(first));
  std::vector<int> blocked = {42};
  std::atomic<bool> result{true};
  std::thread producer([&] { result.store(full.PushSwap(blocked)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  full.Abort();
  producer.join();
  EXPECT_FALSE(result.load());
  EXPECT_EQ(blocked, std::vector<int>{42});
  EXPECT_FALSE(full.TryPushSwap(blocked));
  EXPECT_FALSE(full.Pop().has_value());
}

TEST(SpscRingSwapTest, TwoThreadStressCirculatesBuffersExactly) {
  constexpr uint64_t kItems = 100'000;
  SpscRing<std::vector<uint64_t>> ring(16);
  std::thread producer([&] {
    std::vector<uint64_t> buf;
    for (uint64_t i = 0; i < kItems; ++i) {
      // Refill whatever storage the ring handed back last time.
      buf.clear();
      for (uint64_t k = 0; k <= i % 7; ++k) buf.push_back(i + k);
      EXPECT_TRUE(ring.PushSwap(buf));
    }
    ring.Close();
  });
  std::vector<uint64_t> held;
  uint64_t expect = 0, mismatches = 0;
  for (;;) {
    if (!ring.TryPopSwap(held)) {
      if (!ring.closed()) {
        std::this_thread::yield();
        continue;
      }
      if (!ring.TryPopSwap(held)) break;  // closed and drained
    }
    bool exact = held.size() == expect % 7 + 1;
    for (uint64_t k = 0; exact && k < held.size(); ++k) exact = held[k] == expect + k;
    if (!exact) ++mismatches;
    ++expect;
  }
  producer.join();
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(expect, kItems);
}

TEST(SpscRingTest, MoveOnlyPayloadsMoveThrough) {
  SpscRing<std::vector<int>> ring(4);
  std::vector<int> payload = {1, 2, 3};
  ring.Push(std::move(payload));
  auto out = ring.Pop();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->size(), 3u);
  EXPECT_EQ((*out)[2], 3);
}

}  // namespace
}  // namespace sdps::rt
