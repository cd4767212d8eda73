#include "driver/generator.h"

#include <map>

#include <gtest/gtest.h>

#include "des/simulator.h"
#include "engine/window.h"

namespace sdps::driver {
namespace {

GeneratorConfig BaseConfig(double rate, SimTime duration = Seconds(10)) {
  GeneratorConfig config;
  config.rate = ConstantRate(rate);
  config.tuples_per_record = 1;
  config.num_keys = 100;
  config.duration = duration;
  return config;
}

TEST(GeneratorTest, RateAccuracy) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  SpawnGenerator(sim, q, BaseConfig(1000.0), Rng(1));
  sim.RunUntil(Seconds(10));
  // 1000 tuples/s for 10 s ~ 10000 tuples (integer pacing rounds slightly).
  EXPECT_NEAR(static_cast<double>(q.total_pushed_tuples()), 10000.0, 200.0);
  EXPECT_TRUE(q.closed());
}

TEST(GeneratorTest, RateAccuracyNonIntegralInterval) {
  // 3000 tuples/s -> 333.33 us between records. Rounding the interval to a
  // whole microsecond once (the historical bug) realizes 1e6/333 = 3003/s,
  // a +0.1% bias; the carry-corrected recurrence keeps the long-run count
  // exact to within one record.
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  SpawnGenerator(sim, q, BaseConfig(3000.0), Rng(1));
  sim.RunUntil(Seconds(10));
  EXPECT_NEAR(static_cast<double>(q.total_pushed_tuples()), 30000.0, 2.0);
}

TEST(GeneratorTest, SubMicrosecondIntervalsSustainRate) {
  // 3e6 tuples/s is faster than one record per simulated microsecond; the
  // clamped-interval code capped the realized rate at 1e6/s. Zero-length
  // steps (several records in one tick) must make up the difference.
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  const SimTime duration = 100'000;  // 0.1 s
  SpawnGenerator(sim, q, BaseConfig(3.0e6, duration), Rng(1));
  sim.RunUntil(duration);
  EXPECT_NEAR(static_cast<double>(q.total_pushed_tuples()), 300000.0, 3.0);
}

struct Popped {
  SimTime at;
  SimTime event_time;
  uint64_t key;
  engine::StreamId stream;
  double value;
  uint32_t weight;
  bool operator==(const Popped&) const = default;
};

des::Task<> DrainAll(des::Simulator& sim, DriverQueue& q, std::vector<Popped>& out) {
  engine::RecordBatch batch;
  while (co_await q.PopBatch(&batch, 1)) {
    engine::Record& r = batch[0];
    out.push_back(
        Popped{sim.now(), r.event_time, r.key, r.stream, r.value, r.weight});
  }
}

TEST(GeneratorTest, BurstSizeDoesNotChangeEmissionSchedule) {
  // The burst path precomputes up to `burst` emission times per wakeup and
  // hands them to PushBurst; lazy arrival materialization must deliver each
  // record to a parked consumer at the exact per-record-push instant, with
  // identical payloads (same rng draw order). Join workload exercises every
  // rng stream: keys, streams, prices, match choices.
  auto run = [](uint32_t burst) {
    des::Simulator sim;
    DriverQueue q(sim, nullptr);
    GeneratorConfig config = BaseConfig(7000.0, Seconds(3));
    config.ads_fraction = 0.4;
    config.join_selectivity = 0.2;
    config.burst = burst;
    SpawnGenerator(sim, q, config, Rng(9));
    std::vector<Popped> got;
    sim.Spawn(DrainAll(sim, q, got));
    sim.RunUntilIdle();
    return got;
  };
  const auto b1 = run(1);
  const auto b64 = run(64);
  ASSERT_GT(b1.size(), 1000u);
  ASSERT_EQ(b1.size(), b64.size());
  for (size_t i = 0; i < b1.size(); ++i) {
    ASSERT_EQ(b1[i], b64[i]) << "record " << i << " diverged";
  }
}

TEST(GeneratorTest, WeightedRecordsKeepTupleRate) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  GeneratorConfig config = BaseConfig(10000.0);
  config.tuples_per_record = 100;
  SpawnGenerator(sim, q, config, Rng(1));
  sim.RunUntil(Seconds(10));
  EXPECT_NEAR(static_cast<double>(q.total_pushed_tuples()), 100000.0, 2000.0);
  EXPECT_NEAR(static_cast<double>(q.queued_records()), 1000.0, 20.0);
}

TEST(GeneratorTest, EventTimesAreGenerationTimes) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  SpawnGenerator(sim, q, BaseConfig(100.0, Seconds(2)), Rng(2));
  std::vector<SimTime> times;
  sim.Spawn([](DriverQueue& queue, std::vector<SimTime>& out) -> des::Task<> {
    engine::RecordBatch batch;
    while (co_await queue.PopBatch(&batch, 1)) {
      engine::Record& r = batch[0];
      out.push_back(r.event_time);
      EXPECT_EQ(r.ingest_time, -1);  // not yet ingested by any SUT
    }
  }(q, times));
  sim.RunUntilIdle();
  ASSERT_GT(times.size(), 100u);
  for (size_t i = 1; i < times.size(); ++i) ASSERT_GE(times[i], times[i - 1]);
  EXPECT_LE(times.back(), Seconds(2));
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  auto run = [](uint64_t seed) {
    des::Simulator sim;
    DriverQueue q(sim, nullptr);
    SpawnGenerator(sim, q, BaseConfig(500.0, Seconds(5)), Rng(seed));
    sim.RunUntilIdle();
    return q.total_pushed_tuples();
  };
  EXPECT_EQ(run(42), run(42));
}

TEST(GeneratorTest, StepRateProfile) {
  des::Simulator sim;
  ThroughputMeter meter(Seconds(1));
  DriverQueue q(sim, &meter);
  GeneratorConfig config = BaseConfig(0, Seconds(10));
  config.rate = StepRate({{0, 1000.0}, {Seconds(5), 100.0}});
  SpawnGenerator(sim, q, config, Rng(3));
  // Drain everything as it arrives so the meter sees the push rate.
  sim.Spawn([](DriverQueue& queue) -> des::Task<> {
    engine::RecordBatch batch;
    while (co_await queue.PopBatch(&batch, 1)) {
    }
  }(q));
  sim.RunUntilIdle();
  EXPECT_NEAR(meter.MeanRate(0, Seconds(5)), 1000.0, 60.0);
  EXPECT_NEAR(meter.MeanRate(Seconds(5), Seconds(10)), 100.0, 20.0);
}

TEST(GeneratorTest, SingleKeyDistribution) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  GeneratorConfig config = BaseConfig(1000.0, Seconds(2));
  config.key_distribution = KeyDistribution::kSingle;
  SpawnGenerator(sim, q, config, Rng(4));
  bool all_same = true;
  sim.Spawn([](DriverQueue& queue, bool& same) -> des::Task<> {
    engine::RecordBatch batch;
    while (co_await queue.PopBatch(&batch, 1)) {
      engine::Record& r = batch[0];
      if (r.key != 0) same = false;
    }
  }(q, all_same));
  sim.RunUntilIdle();
  EXPECT_TRUE(all_same);
}

TEST(GeneratorTest, JoinWorkloadStreamsAndSelectivity) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  GeneratorConfig config = BaseConfig(20000.0, Seconds(10));
  config.ads_fraction = 0.5;
  config.join_selectivity = 0.2;
  SpawnGenerator(sim, q, config, Rng(5));
  struct Counts {
    uint64_t ads = 0, purchases = 0, matching = 0;
    std::map<uint64_t, bool> ad_keys;
  } counts;
  // NOTE: coroutine lambdas must not capture (the closure dies before the
  // frame) — state is passed by reference parameter instead.
  sim.Spawn([](DriverQueue& queue, Counts& c) -> des::Task<> {
    engine::RecordBatch batch;
    while (co_await queue.PopBatch(&batch, 1)) {
      engine::Record& r = batch[0];
      if (r.stream == engine::StreamId::kAds) {
        ++c.ads;
        c.ad_keys[r.key] = true;
      } else {
        ++c.purchases;
        if (c.ad_keys.count(r.key)) ++c.matching;
        EXPECT_GT(r.value, 0.0);  // purchases carry a price
      }
    }
  }(q, counts));
  sim.RunUntilIdle();
  const double total = static_cast<double>(counts.ads + counts.purchases);
  EXPECT_NEAR(static_cast<double>(counts.ads) / total, 0.5, 0.02);
  // ~20% of purchases reference a previously seen ad key.
  EXPECT_NEAR(
      static_cast<double>(counts.matching) / static_cast<double>(counts.purchases),
      0.2, 0.03);
}

TEST(GeneratorTest, NonMatchingPurchasesUseDisjointKeySpace) {
  des::Simulator sim;
  DriverQueue q(sim, nullptr);
  GeneratorConfig config = BaseConfig(5000.0, Seconds(4));
  config.ads_fraction = 0.5;
  config.join_selectivity = 0.0;  // no purchase may match any ad
  SpawnGenerator(sim, q, config, Rng(6));
  struct Seen {
    std::map<uint64_t, int> ad_keys;
    bool overlap = false;
  } seen;
  sim.Spawn([](DriverQueue& queue, Seen& sn) -> des::Task<> {
    engine::RecordBatch batch;
    while (co_await queue.PopBatch(&batch, 1)) {
      engine::Record& r = batch[0];
      if (r.stream == engine::StreamId::kAds) {
        sn.ad_keys[r.key] = 1;
      } else if (sn.ad_keys.count(r.key)) {
        sn.overlap = true;
      }
    }
  }(q, seen));
  sim.RunUntilIdle();
  EXPECT_FALSE(seen.overlap);
}

}  // namespace
}  // namespace sdps::driver
