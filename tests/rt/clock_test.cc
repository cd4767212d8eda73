#include "rt/clock.h"

#include <thread>

#include "common/random.h"
#include "driver/generator.h"
#include "rt/generator.h"

#include "gtest/gtest.h"

namespace sdps::rt {
namespace {

TEST(RtClockTest, StartsNearZeroAndAdvancesMonotonically) {
  Clock clock;
  clock.Start();
  const SimTime t0 = clock.now();
  EXPECT_GE(t0, 0);
  EXPECT_LT(t0, Millis(100));  // fresh epoch
  SimTime prev = t0;
  for (int i = 0; i < 1000; ++i) {
    const SimTime t = clock.now();
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(RtClockTest, NowTracksWallTime) {
  Clock clock;
  clock.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const SimTime t = clock.now();
  // Sleeps can oversleep but never undersleep.
  EXPECT_GE(t, Millis(30));
  EXPECT_LT(t, Seconds(5));  // sanity: not wildly off
}

TEST(RtClockTest, SleepUntilReachesTargetExactly) {
  Clock clock;
  clock.Start();
  const SimTime target = clock.now() + Millis(20);
  const SimTime woke = clock.SleepUntil(target);
  // SleepUntil re-reads the clock after the OS sleep and never returns
  // before the target; the returned time is a real read: at or past the
  // target, never ahead of the clock.
  EXPECT_GE(woke, target);
  EXPECT_GE(clock.now(), woke);
}

TEST(RtClockTest, SleepUntilSubMicrosecondTargetNeverWakesEarly) {
  // The paced source's common case at MHz rates: the next record is due
  // in about a µs. The OS sleep rounds that up to its timer slack, and
  // the wake read still lands at or past the target.
  Clock clock;
  clock.Start();
  for (int i = 0; i < 1000; ++i) {
    const SimTime target = clock.now() + 1;
    const SimTime woke = clock.SleepUntil(target);
    ASSERT_GE(woke, target) << "call " << i;
    ASSERT_LE(woke, clock.now()) << "call " << i;
  }
}

TEST(RtClockTest, SleepUntilPastTargetReturnsImmediately) {
  Clock clock;
  clock.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const SimTime before = clock.now();
  const SimTime observed = clock.SleepUntil(0);  // already behind schedule
  const SimTime after = clock.now();
  EXPECT_LT(after - before, Millis(50));
  // The one read it made is the time it returns (the paced source's
  // ingest stamp): bracketed by the reads around the call.
  EXPECT_GE(observed, before);
  EXPECT_LE(observed, after);
}

// Paces the first `n` records of `config`'s schedule on a fresh clock.
// PaceTo forwards the time SleepUntil observed: never before the planned
// emission, and monotone across records.
void ExpectPacedStamps(const driver::GeneratorConfig& config, int n) {
  Clock clock;
  clock.Start();
  Generator gen(config, Rng(7));
  SimTime prev = 0;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(gen.Next().has_value());
    const SimTime stamp = gen.PaceTo(clock);
    ASSERT_GE(stamp, gen.planned_time()) << "record " << i;
    ASSERT_GE(stamp, prev) << "record " << i;
    prev = stamp;
  }
  EXPECT_GE(clock.now(), prev);
}

TEST(RtClockTest, PaceToForwardsTheObservedTime) {
  driver::GeneratorConfig config;
  config.rate = driver::ConstantRate(1e4);
  config.duration = Seconds(1);
  ExpectPacedStamps(config, 50);
}

TEST(RtClockTest, PaceToAtMegahertzRateStampsMonotoneAndNeverEarly) {
  // 2e6 records/s: 0.5 µs apart, far below the OS timer slack, so the
  // source naps once per burst and stamps every record that fell due in
  // the nap with the read it made on waking.
  driver::GeneratorConfig config;
  config.rate = driver::ConstantRate(2e6);
  config.tuples_per_record = 1;  // the rate is records/s
  config.duration = Seconds(1);
  ExpectPacedStamps(config, 20000);
}

TEST(RtClockTest, PaceToReusesTheReadForRecordsAlreadyDue) {
  // A source that wakes 20 ms into a schedule whose first records are due
  // in the first 10 ms finds them all due: the first PaceTo reads the
  // clock and every later one returns that same read.
  driver::GeneratorConfig config;
  config.rate = driver::ConstantRate(1e4);
  config.tuples_per_record = 1;  // the rate is records/s: 100 µs apart
  config.duration = Seconds(1);
  Clock clock;
  clock.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Generator gen(config, Rng(7));
  SimTime first = -1;
  int paced = 0;
  for (;;) {
    ASSERT_TRUE(gen.Next().has_value());
    if (gen.planned_time() >= Millis(10)) break;
    const SimTime stamp = gen.PaceTo(clock);
    if (paced == 0) first = stamp;
    ASSERT_EQ(stamp, first) << "record " << paced;
    ASSERT_GE(stamp, gen.planned_time()) << "record " << paced;
    ++paced;
  }
  EXPECT_GT(paced, 50);
  EXPECT_GE(first, Millis(20));
}

TEST(RtClockTest, RestartResetsEpoch) {
  Clock clock;
  clock.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(clock.now(), Millis(20));
  clock.Start();
  EXPECT_LT(clock.now(), Millis(20));
}

TEST(RtClockTest, IsATimeSource) {
  Clock clock;
  clock.Start();
  const des::TimeSource& source = clock;
  EXPECT_GE(source.now(), 0);
}

}  // namespace
}  // namespace sdps::rt
