#include "des/resource.h"

#include <vector>

#include <gtest/gtest.h>

#include "des/simulator.h"
#include "des/task.h"

namespace sdps::des {
namespace {

Task<> UseOnce(Simulator& sim, Resource& res, SimTime dur, std::vector<SimTime>& done) {
  co_await res.Use(dur);
  done.push_back(sim.now());
}

TEST(ResourceTest, SingleServerSerializesRequests) {
  Simulator sim;
  Resource res(sim, 1);
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i) sim.Spawn(UseOnce(sim, res, 100, done));
  sim.RunUntilIdle();
  EXPECT_EQ(done, (std::vector<SimTime>{100, 200, 300}));
}

TEST(ResourceTest, MultiServerRunsInParallel) {
  Simulator sim;
  Resource res(sim, 3);
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i) sim.Spawn(UseOnce(sim, res, 100, done));
  sim.RunUntilIdle();
  EXPECT_EQ(done, (std::vector<SimTime>{100, 100, 100}));
}

TEST(ResourceTest, QueueingIsFcfs) {
  Simulator sim;
  Resource res(sim, 1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Spawn([](Simulator&, Resource& r, std::vector<int>& ord, int id) -> Task<> {
      co_await r.Use(10);
      ord.push_back(id);
    }(sim, res, order, i));
  }
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ResourceTest, MixedDurations) {
  Simulator sim;
  Resource res(sim, 2);
  std::vector<SimTime> done;
  // Two servers: [A:300] [B:100]; C(50) starts when B finishes at 100.
  sim.Spawn(UseOnce(sim, res, 300, done));
  sim.Spawn(UseOnce(sim, res, 100, done));
  sim.Spawn(UseOnce(sim, res, 50, done));
  sim.RunUntilIdle();
  EXPECT_EQ(done, (std::vector<SimTime>{100, 150, 300}));
}

TEST(ResourceTest, BusyAndQueueCounters) {
  Simulator sim;
  Resource res(sim, 2);
  std::vector<SimTime> done;
  for (int i = 0; i < 5; ++i) sim.Spawn(UseOnce(sim, res, 100, done));
  sim.ScheduleAt(50, [&] {
    EXPECT_EQ(res.busy(), 2);
    EXPECT_EQ(res.queue_length(), 3u);
  });
  sim.RunUntilIdle();
  EXPECT_EQ(res.busy(), 0);
  EXPECT_EQ(res.queue_length(), 0u);
}

TEST(ResourceTest, UtilizationIntegral) {
  Simulator sim;
  Resource res(sim, 2);
  std::vector<SimTime> done;
  // One server busy 0..1000, other idle: integral = 1000 busy-us.
  sim.Spawn(UseOnce(sim, res, 1000, done));
  sim.RunUntil(2000);
  EXPECT_DOUBLE_EQ(res.BusyIntegral(), 1000.0);
  // Average utilization over [0, 2000] with 2 servers = 1000 / (2*2000) = 25%.
  EXPECT_DOUBLE_EQ(res.BusyIntegral() / (res.servers() * 2000.0), 0.25);
}

TEST(ResourceTest, ZeroDurationUse) {
  Simulator sim;
  Resource res(sim, 1);
  std::vector<SimTime> done;
  sim.Spawn(UseOnce(sim, res, 0, done));
  sim.RunUntilIdle();
  EXPECT_EQ(done, (std::vector<SimTime>{0}));
}

TEST(ResourceTest, HighContentionThroughputMatchesCapacity) {
  Simulator sim;
  Resource res(sim, 4);
  std::vector<SimTime> done;
  for (int i = 0; i < 100; ++i) sim.Spawn(UseOnce(sim, res, 10, done));
  sim.RunUntilIdle();
  // 100 jobs x 10us on 4 servers = 250us makespan.
  EXPECT_EQ(done.back(), 250);
}

Task<> UseSerial(Simulator& sim, Resource& res, std::vector<SimTime> costs,
                 std::vector<SimTime>& done) {
  for (const SimTime c : costs) {
    co_await res.Use(c);
    done.push_back(sim.now());
  }
}

Task<> UseBatched(Simulator&, Resource& res, std::vector<SimTime> costs,
                  std::vector<SimTime>& done) {
  const SimTime start = co_await res.UseBatch(costs);
  SimTime t = start;
  for (const SimTime c : costs) {
    t += c;
    done.push_back(t);
  }
}

/// Property: on an uncontended single-server resource, a batch admission's
/// analytic per-item completion times (service start + cost prefix sums)
/// are identical to the serial loop's — the serial loop re-acquires the
/// freed server immediately at each completion, so the items run
/// back-to-back either way. Exercised over many pseudo-random cost
/// vectors, including zero costs.
TEST(ResourceTest, UseBatchMatchesSerialLoopUncontended) {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + next() % 17;
    std::vector<SimTime> costs(n);
    for (auto& c : costs) c = static_cast<SimTime>(next() % 5);  // 0..4 us
    std::vector<SimTime> serial, batched;
    {
      Simulator sim;
      Resource res(sim, 1);
      sim.Spawn(UseSerial(sim, res, costs, serial));
      sim.RunUntilIdle();
    }
    {
      Simulator sim;
      Resource res(sim, 1);
      sim.Spawn(UseBatched(sim, res, costs, batched));
      sim.RunUntilIdle();
    }
    EXPECT_EQ(serial, batched) << "trial " << trial;
  }
}

TEST(ResourceTest, UseBatchQueuesBehindContention) {
  Simulator sim;
  Resource res(sim, 1);
  std::vector<SimTime> done;
  sim.Spawn(UseOnce(sim, res, 100, done));
  std::vector<SimTime> batch_done;
  sim.Spawn(UseBatched(sim, res, {10, 20, 30}, batch_done));
  sim.RunUntilIdle();
  // Batch acquires the FIFO line once, after the 100us holder.
  EXPECT_EQ(batch_done, (std::vector<SimTime>{110, 130, 160}));
}

// A batch of one record can still hold several cost entries (Storm's
// spout + ack charge). Admitted as one UseBatch, a request that queues
// during the first entry cannot run before the last one; the serial Use
// loop lets it in between. This is why Storm's batch-1 timings moved when
// its spout began charging both through the batched admission.
TEST(ResourceTest, UseBatchKeepsQueuedRequestsOutBetweenItems) {
  struct Done {
    SimTime flow = -1;
    SimTime competitor = -1;
  };
  auto run = [](bool batched) {
    Simulator sim;
    Resource res(sim, 1);
    Done done;
    sim.Spawn([](Simulator& s, Resource& r, Done& d, bool b) -> Task<> {
      const std::vector<SimTime> costs = {50, 10};
      if (b) {
        co_await r.UseBatch(costs);
      } else {
        for (const SimTime c : costs) co_await r.Use(c);
      }
      d.flow = s.now();
    }(sim, res, done, batched));
    sim.ScheduleAt(1, [&sim, &res, &done] {
      sim.Spawn([](Simulator& s, Resource& r, Done& d) -> Task<> {
        co_await r.Use(30);
        d.competitor = s.now();
      }(sim, res, done));
    });
    sim.RunUntilIdle();
    return done;
  };
  const Done batched = run(true);
  EXPECT_EQ(batched.flow, 60);
  EXPECT_EQ(batched.competitor, 90);
  const Done serial = run(false);
  EXPECT_EQ(serial.competitor, 80);
  EXPECT_EQ(serial.flow, 90);
}

TEST(ResourceTest, UseReturnsServiceStartTime) {
  Simulator sim;
  Resource res(sim, 1);
  std::vector<SimTime> starts;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn([](Simulator&, Resource& r, std::vector<SimTime>& out) -> Task<> {
      out.push_back(co_await r.Use(100));
    }(sim, res, starts));
  }
  sim.RunUntilIdle();
  EXPECT_EQ(starts, (std::vector<SimTime>{0, 100, 200}));
}

}  // namespace
}  // namespace sdps::des
