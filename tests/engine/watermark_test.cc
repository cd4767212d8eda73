#include "engine/watermark.h"

#include <optional>

#include <gtest/gtest.h>

namespace sdps::engine {
namespace {

TEST(WatermarkTrackerTest, NoWatermarkUntilAllInputsReport) {
  WatermarkTracker tracker(3);
  EXPECT_EQ(tracker.current(), kNoWatermark);
  EXPECT_FALSE(tracker.Update(0, 100));  // min still kNoWatermark
  EXPECT_FALSE(tracker.Update(1, 200));
  EXPECT_TRUE(tracker.Update(2, 150));   // now min = 100
  EXPECT_EQ(tracker.current(), 100);
}

TEST(WatermarkTrackerTest, MinAcrossInputs) {
  WatermarkTracker tracker(2);
  tracker.Update(0, 100);
  tracker.Update(1, 50);
  EXPECT_EQ(tracker.current(), 50);
  EXPECT_TRUE(tracker.Update(1, 120));  // min advances to 100
  EXPECT_EQ(tracker.current(), 100);
}

TEST(WatermarkTrackerTest, StaleWatermarksIgnored) {
  WatermarkTracker tracker(1);
  EXPECT_TRUE(tracker.Update(0, 100));
  EXPECT_FALSE(tracker.Update(0, 90));  // watermarks are monotone
  EXPECT_EQ(tracker.current(), 100);
  EXPECT_FALSE(tracker.Update(0, 100));  // no advance
}

TEST(WatermarkTrackerTest, AdvanceOnlyWhenMinMoves) {
  WatermarkTracker tracker(2);
  tracker.Update(0, 10);
  tracker.Update(1, 10);
  EXPECT_FALSE(tracker.Update(0, 20));  // input 1 still holds min at 10
  EXPECT_EQ(tracker.current(), 10);
  EXPECT_TRUE(tracker.Update(1, 15));
  EXPECT_EQ(tracker.current(), 15);
}

TEST(WatermarkTrackerTest, SingleInput) {
  WatermarkTracker tracker(1);
  EXPECT_TRUE(tracker.Update(0, 5));
  EXPECT_TRUE(tracker.Update(0, 6));
  EXPECT_EQ(tracker.current(), 6);
}

// Two connections: sources 0 and 1 pull from queue 0, source 2 from
// queue 1.
ConnectionClock TwoConnections() {
  return ConnectionClock(2, 3, [](int s) { return s < 2 ? 0 : 1; });
}

TEST(ConnectionClockTest, NothingBeforeTheFirstDelivery) {
  ConnectionClock clock = TwoConnections();
  clock.Hold(0, 10);
  EXPECT_EQ(clock.Next(0, 0), std::nullopt);
  clock.Advance(0, 10);
  EXPECT_EQ(clock.Next(0, 0), 9);  // capped below the held record
}

TEST(ConnectionClockTest, CapsBelowTheOldestUnsentFloor) {
  ConnectionClock clock = TwoConnections();
  clock.Advance(0, 100);
  clock.Hold(0, 60);
  clock.Hold(1, 40);
  clock.Hold(2, 10);  // another connection's floor does not cap queue 0
  EXPECT_EQ(clock.Next(0, 0), 39);
  clock.Release(1);
  EXPECT_EQ(clock.Next(0, 0), 59);
  clock.Release(0);
  EXPECT_EQ(clock.Next(0, 0), 100);
  clock.Hold(1, 200);  // a floor above the clock caps nothing
  clock.Advance(0, 105);
  EXPECT_EQ(clock.Next(0, 0), 105);
}

TEST(ConnectionClockTest, SubtractsTheLatenessAfterTheCap) {
  ConnectionClock clock = TwoConnections();
  clock.Advance(0, 100);
  EXPECT_EQ(clock.Next(0, 30), 70);
  clock.Advance(0, 200);
  clock.Hold(0, 150);
  EXPECT_EQ(clock.Next(0, 30), 119);
}

TEST(ConnectionClockTest, NeverRepeatsABroadcast) {
  ConnectionClock clock = TwoConnections();
  clock.Advance(0, 100);
  EXPECT_EQ(clock.Next(0, 0), 100);
  EXPECT_EQ(clock.Next(0, 0), std::nullopt);
  clock.Advance(0, 90);  // the clock never moves back
  EXPECT_EQ(clock.Next(0, 0), std::nullopt);
  clock.Advance(0, 120);
  EXPECT_EQ(clock.Next(0, 0), 120);
}

TEST(ConnectionClockTest, FinalWatermarkOnceEverySourceFinished) {
  ConnectionClock clock = TwoConnections();
  clock.Advance(0, 100);
  clock.Finish(0);
  EXPECT_EQ(clock.Next(0, 0), 100);  // source 1 still pulls from queue 0
  clock.Finish(1);
  EXPECT_EQ(clock.Next(0, 5), kFinalWatermark);  // no lateness on the final
  EXPECT_EQ(clock.Next(1, 0), std::nullopt);     // queue 1 still runs
}

TEST(ConnectionClockTest, MinLastSentWaitsForEveryConnection) {
  ConnectionClock clock = TwoConnections();
  clock.Advance(0, 100);
  EXPECT_EQ(clock.Next(0, 0), 100);
  EXPECT_EQ(clock.MinLastSent(), kNoWatermark);
  clock.Advance(1, 80);
  EXPECT_EQ(clock.Next(1, 0), 80);
  EXPECT_EQ(clock.MinLastSent(), 80);
}

TEST(ConnectionClockTest, RestoreRewindsAndResetsTheLastBroadcast) {
  ConnectionClock clock = TwoConnections();
  clock.Advance(0, 100);
  EXPECT_EQ(clock.Next(0, 0), 100);
  const ConnectionClock saved = clock;
  clock.Advance(0, 200);
  EXPECT_EQ(clock.Next(0, 0), 200);
  clock.Advance(1, 50);
  EXPECT_EQ(clock.Next(1, 0), 50);
  clock.Hold(0, 80);
  clock.Finish(2);
  clock.Restore(saved);
  EXPECT_EQ(clock.MinLastSent(), kNoWatermark);
  EXPECT_EQ(clock.Next(0, 0), 79);  // capped by the floor held now
  clock.Release(0);
  EXPECT_EQ(clock.Next(0, 0), 100);  // the restored clock goes out again
  // Queue 1's clock is back to nothing delivered, but its only source
  // finished after the copy, and that stays so.
  EXPECT_EQ(clock.Next(1, 0), kFinalWatermark);
}

}  // namespace
}  // namespace sdps::engine
