#include "driver/queue.h"

#include <gtest/gtest.h>

#include "des/simulator.h"
#include "des/task.h"
#include "engine/batch.h"

namespace sdps::driver {
namespace {

engine::Record Rec(SimTime t, uint32_t weight = 1) {
  engine::Record r;
  r.event_time = t;
  r.weight = weight;
  return r;
}

TEST(DriverQueueTest, PushNeverBlocksAndCountsTuples) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  for (int i = 0; i < 1000; ++i) q.Push(Rec(i, 100));
  EXPECT_EQ(q.queued_records(), 1000u);
  EXPECT_EQ(q.queued_tuples(), 100000u);
  EXPECT_EQ(q.total_pushed_tuples(), 100000u);
}

TEST(DriverQueueTest, PopDrainsFifo) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  q.Push(Rec(1));
  q.Push(Rec(2));
  std::vector<SimTime> got;
  sim.Spawn([](DriverQueue& queue, std::vector<SimTime>& out) -> des::Task<> {
    engine::RecordBatch batch;
    while (co_await queue.PopBatch(&batch, 1)) {
      engine::Record& r = batch[0];
      out.push_back(r.event_time);
    }
  }(q, got));
  sim.ScheduleAt(10, [&] { q.Close(); });
  sim.RunUntilIdle();
  EXPECT_EQ(got, (std::vector<SimTime>{1, 2}));
  EXPECT_EQ(q.total_popped_tuples(), 2u);
  EXPECT_EQ(q.queued_tuples(), 0u);
}

TEST(DriverQueueTest, PopBlocksUntilPush) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  SimTime got_at = -1;
  sim.Spawn([](des::Simulator& s, DriverQueue& queue, SimTime& t) -> des::Task<> {
    engine::RecordBatch batch;
    EXPECT_TRUE(co_await queue.PopBatch(&batch, 1));
    t = s.now();
  }(sim, q, got_at));
  sim.ScheduleAt(500, [&] { q.Push(Rec(1)); });
  sim.RunUntilIdle();
  EXPECT_EQ(got_at, 500);
}

TEST(DriverQueueTest, MetersPopsNotPushes) {
  des::Simulator sim;
  ThroughputMeter meter(Seconds(1));
  DriverQueue q(sim, &meter);
  q.Push(Rec(0, 50));
  q.Push(Rec(0, 50));
  EXPECT_EQ(meter.total_tuples(), 0u);  // nothing popped yet
  sim.Spawn([](DriverQueue& queue) -> des::Task<> {
    engine::RecordBatch batch;
    (void)co_await queue.PopBatch(&batch, 1);
  }(q));
  sim.RunUntilIdle();
  EXPECT_EQ(meter.total_tuples(), 50u);
}

TEST(DriverQueueTest, MultipleConsumersEachRecordDeliveredOnce) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  std::vector<int> counts(3, 0);
  for (int c = 0; c < 3; ++c) {
    sim.Spawn([](DriverQueue& queue, int& n) -> des::Task<> {
      engine::RecordBatch batch;
      while (co_await queue.PopBatch(&batch, 1)) ++n;
    }(q, counts[static_cast<size_t>(c)]));
  }
  for (int i = 0; i < 300; ++i) q.Push(Rec(i));
  sim.ScheduleAt(100, [&] { q.Close(); });
  sim.RunUntilIdle();
  EXPECT_EQ(counts[0] + counts[1] + counts[2], 300);
}

TEST(DriverQueueTest, CloseWakesWaitersWithNullopt) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  int wakeups = 0;
  for (int i = 0; i < 4; ++i) {
    sim.Spawn([](DriverQueue& queue, int& n) -> des::Task<> {
      engine::RecordBatch batch;
      if (!co_await queue.PopBatch(&batch, 1)) ++n;
    }(q, wakeups));
  }
  sim.ScheduleAt(10, [&] { q.Close(); });
  sim.RunUntilIdle();
  EXPECT_EQ(wakeups, 4);
}

TEST(DriverQueueTest, DirectHandoffWhenConsumerWaiting) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  SimTime seen = -1;
  sim.Spawn([](DriverQueue& queue, SimTime& t) -> des::Task<> {
    engine::RecordBatch batch;
    if (co_await queue.PopBatch(&batch, 1)) t = batch[0].event_time;
  }(q, seen));
  sim.ScheduleAt(1, [&] {
    q.Push(Rec(77));
    // Value was handed to the waiter, not parked in the buffer.
    EXPECT_EQ(q.queued_records(), 0u);
  });
  sim.RunUntilIdle();
  EXPECT_EQ(seen, 77);
}

TEST(DriverQueueTest, RetainKeepsPoppedRecordsUntilAcked) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  q.set_retain(true);
  for (SimTime t = 1; t <= 3; ++t) q.Push(Rec(t));
  sim.Spawn([](DriverQueue& queue) -> des::Task<> {
    engine::RecordBatch batch;
    for (int i = 0; i < 3; ++i) (void)co_await queue.PopBatch(&batch, 1);
  }(q));
  sim.RunUntilIdle();
  EXPECT_EQ(q.retained_records(), 3u);
  q.Ack(2);  // the first two pop indices are 0 and 1
  EXPECT_EQ(q.retained_records(), 1u);
  q.Ack(q.popped_records());
  EXPECT_EQ(q.retained_records(), 0u);
}

TEST(DriverQueueTest, AckThroughEventTimeDropsFromTheFront) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  q.set_retain(true);
  // Out-of-order event times: the early record behind a newer one stays
  // retained (conservative at-least-once).
  q.Push(Rec(1));
  q.Push(Rec(5));
  q.Push(Rec(2));
  sim.Spawn([](DriverQueue& queue) -> des::Task<> {
    engine::RecordBatch batch;
    for (int i = 0; i < 3; ++i) (void)co_await queue.PopBatch(&batch, 1);
  }(q));
  sim.RunUntilIdle();
  q.AckThroughEventTime(2);
  EXPECT_EQ(q.retained_records(), 2u);  // only event time 1 acked
}

TEST(DriverQueueTest, ReplayRedeliversUnackedAheadOfNewInput) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  q.set_retain(true);
  std::vector<SimTime> got;
  sim.Spawn([](DriverQueue& queue, std::vector<SimTime>& out) -> des::Task<> {
    engine::RecordBatch batch;
    while (co_await queue.PopBatch(&batch, 1)) {
      engine::Record& r = batch[0];
      out.push_back(r.event_time);
    }
  }(q, got));
  for (SimTime t = 1; t <= 3; ++t) q.Push(Rec(t));
  sim.ScheduleAt(10, [&] {
    q.Ack(1);  // record 1 survives the "crash"; 2 and 3 must be replayed
    q.set_paused(true);
    q.Push(Rec(10));  // new input arriving during the outage
    q.Replay();       // retained records go to the buffer front
    q.set_paused(false);
  });
  sim.ScheduleAt(20, [&] { q.Close(); });
  sim.RunUntilIdle();
  EXPECT_EQ(got, (std::vector<SimTime>{1, 2, 3, 2, 3, 10}));
  // Replayed copies were re-retained on their second pop.
  EXPECT_EQ(q.retained_records(), 3u);
}

TEST(DriverQueueTest, PauseParksPopsEvenWhenNonEmpty) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  q.Push(Rec(7));
  q.set_paused(true);
  SimTime seen_at = -1;
  sim.Spawn([](des::Simulator& s, DriverQueue& queue, SimTime& t) -> des::Task<> {
    engine::RecordBatch batch;
    EXPECT_TRUE(co_await queue.PopBatch(&batch, 1));
    t = s.now();
  }(sim, q, seen_at));
  sim.ScheduleAt(100, [&] {
    EXPECT_EQ(seen_at, -1);  // still parked despite the buffered record
    q.set_paused(false);
  });
  sim.RunUntilIdle();
  EXPECT_EQ(seen_at, 100);
}

TEST(DriverQueueTest, CloseWhilePausedDeliversAfterUnpause) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  q.Push(Rec(1));
  q.set_paused(true);
  std::vector<SimTime> got;
  bool saw_close = false;
  sim.Spawn([](DriverQueue& queue, std::vector<SimTime>& out,
               bool& closed) -> des::Task<> {
    engine::RecordBatch batch;
    while (co_await queue.PopBatch(&batch, 1)) out.push_back(batch[0].event_time);
    closed = true;
  }(q, got, saw_close));
  sim.ScheduleAt(10, [&] { q.Close(); });
  sim.ScheduleAt(20, [&] {
    EXPECT_FALSE(saw_close);  // close is deferred until the drain
    q.set_paused(false);
  });
  sim.RunUntilIdle();
  EXPECT_EQ(got, (std::vector<SimTime>{1}));  // buffered record not lost
  EXPECT_TRUE(saw_close);
}

engine::RecordBatch Burst(std::initializer_list<SimTime> event_times) {
  engine::RecordBatch b;
  for (const SimTime t : event_times) b.PushBack(Rec(t));
  return b;
}

TEST(DriverQueueTest, PushBurstMaterializesArrivalsLazily) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  q.PushBurst(Burst({0, 10, 20}), {0, 10, 20});
  // Only the zero-interval head has arrived yet.
  EXPECT_EQ(q.queued_records(), 1u);
  EXPECT_EQ(q.total_pushed_tuples(), 1u);
  sim.ScheduleAt(10, [&] {
    EXPECT_EQ(q.queued_records(), 2u);
    EXPECT_EQ(q.total_pushed_tuples(), 2u);
  });
  sim.ScheduleAt(15, [&] { EXPECT_EQ(q.queued_records(), 2u); });
  sim.ScheduleAt(25, [&] {
    EXPECT_EQ(q.queued_records(), 3u);
    EXPECT_EQ(q.total_pushed_tuples(), 3u);
  });
  sim.RunUntilIdle();
}

TEST(DriverQueueTest, PushBurstHandsOffToParkedConsumerAtArrivalInstants) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  struct Seen {
    std::vector<SimTime> at, event;
  } seen;
  sim.Spawn([](des::Simulator& s, DriverQueue& queue, Seen& sn) -> des::Task<> {
    engine::RecordBatch batch;
    while (co_await queue.PopBatch(&batch, 1)) {
      engine::Record& r = batch[0];
      sn.at.push_back(s.now());
      sn.event.push_back(r.event_time);
    }
  }(sim, q, seen));
  sim.ScheduleAt(5, [&] { q.PushBurst(Burst({5, 30, 31}), {5, 30, 31}); });
  sim.ScheduleAt(40, [&] { q.Close(); });
  sim.RunUntilIdle();
  // Each record reaches the parked consumer at its exact arrival time —
  // the same pop times three Push calls at 5/30/31 would produce.
  EXPECT_EQ(seen.at, (std::vector<SimTime>{5, 30, 31}));
  EXPECT_EQ(seen.event, (std::vector<SimTime>{5, 30, 31}));
}

TEST(DriverQueueTest, PopBatchDrainsFifoUpToMaxWithAccounting) {
  des::Simulator sim;
  ThroughputMeter meter(Seconds(1));
  DriverQueue q(sim, &meter);
  for (SimTime t = 0; t < 5; ++t) q.Push(Rec(t, 10));
  struct Out {
    std::vector<SimTime> first, second;
  } out;
  sim.Spawn([](DriverQueue& queue, Out& o) -> des::Task<> {
    engine::RecordBatch batch;
    EXPECT_TRUE(co_await queue.PopBatch(&batch, 3));
    for (const auto& r : batch) o.first.push_back(r.event_time);
    EXPECT_TRUE(co_await queue.PopBatch(&batch, 3));
    for (const auto& r : batch) o.second.push_back(r.event_time);
  }(q, out));
  sim.RunUntilIdle();
  EXPECT_EQ(out.first, (std::vector<SimTime>{0, 1, 2}));
  EXPECT_EQ(out.second, (std::vector<SimTime>{3, 4}));
  EXPECT_EQ(q.total_popped_tuples(), 50u);
  EXPECT_EQ(q.queued_tuples(), 0u);
  EXPECT_EQ(q.popped_records(), 5u);
  EXPECT_EQ(meter.total_tuples(), 50u);
}

TEST(DriverQueueTest, PopBatchParksWhenEmptyAndWakesWithOneRecord) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  struct Out {
    SimTime at = -1;
    size_t n = 0;
  } out;
  sim.Spawn([](des::Simulator& s, DriverQueue& queue, Out& o) -> des::Task<> {
    engine::RecordBatch batch;
    EXPECT_TRUE(co_await queue.PopBatch(&batch, 64));
    o.at = s.now();
    o.n = batch.size();
  }(sim, q, out));
  sim.ScheduleAt(200, [&] { q.Push(Rec(7)); });
  sim.RunUntilIdle();
  EXPECT_EQ(out.at, 200);
  EXPECT_EQ(out.n, 1u);  // a parked batch pop wakes with exactly one record
}

TEST(DriverQueueTest, PopBatchReturnsFalseWhenClosedAndDrained) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  q.Push(Rec(1));
  q.Close();
  bool first = false, second = true;
  sim.Spawn([](DriverQueue& queue, bool& a, bool& b) -> des::Task<> {
    engine::RecordBatch batch;
    a = co_await queue.PopBatch(&batch, 8);
    b = co_await queue.PopBatch(&batch, 8);
    EXPECT_TRUE(batch.empty());
  }(q, first, second));
  sim.RunUntilIdle();
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
}

TEST(DriverQueueTest, PopBatchRetainsAndReplays) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  q.set_retain(true);
  for (SimTime t = 1; t <= 4; ++t) q.Push(Rec(t));
  std::vector<SimTime> got;
  sim.Spawn([](DriverQueue& queue, std::vector<SimTime>& out) -> des::Task<> {
    engine::RecordBatch batch;
    while (co_await queue.PopBatch(&batch, 2)) {
      for (const auto& r : batch) out.push_back(r.event_time);
    }
  }(q, got));
  sim.ScheduleAt(10, [&] {
    EXPECT_EQ(q.retained_records(), 4u);
    q.Ack(2);  // pop indices 0 and 1 committed
    EXPECT_EQ(q.retained_records(), 2u);
    q.Replay();  // 3 and 4 go back to the buffer front
  });
  sim.ScheduleAt(20, [&] { q.Close(); });
  sim.RunUntilIdle();
  EXPECT_EQ(got, (std::vector<SimTime>{1, 2, 3, 4, 3, 4}));
  EXPECT_EQ(q.retained_records(), 2u);  // replayed copies re-retained
}

TEST(DriverQueueTest, PopBatchParksWhilePaused) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  q.Push(Rec(3));
  q.set_paused(true);
  struct Out {
    SimTime at = -1;
    size_t n = 0;
  } out;
  sim.Spawn([](des::Simulator& s, DriverQueue& queue, Out& o) -> des::Task<> {
    engine::RecordBatch batch;
    EXPECT_TRUE(co_await queue.PopBatch(&batch, 8));
    o.at = s.now();
    o.n = batch.size();
  }(sim, q, out));
  sim.ScheduleAt(50, [&] {
    EXPECT_EQ(out.at, -1);  // quiesced despite the buffered record
    q.set_paused(false);
  });
  sim.RunUntilIdle();
  EXPECT_EQ(out.at, 50);
  EXPECT_EQ(out.n, 1u);
}

}  // namespace
}  // namespace sdps::driver
