// Tests for the future-work extensions: out-of-order data / allowed
// lateness and exactly-once checkpointing.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "driver/experiment.h"
#include "driver/generator.h"
#include "driver/latency_sink.h"
#include "driver/queue.h"
#include "engines/flink/flink.h"
#include "workloads/workloads.h"

namespace sdps {
namespace {

TEST(GeneratorLatenessTest, EventTimesLagGenerationTime) {
  des::Simulator sim;
  driver::DriverQueue q(sim, nullptr);
  driver::GeneratorConfig config;
  config.rate = driver::ConstantRate(1000.0);
  config.tuples_per_record = 1;
  config.num_keys = 10;
  config.duration = Seconds(5);
  config.max_event_lag = Seconds(2);
  driver::SpawnGenerator(sim, q, config, Rng(3));
  struct Stats {
    int64_t n = 0;
    SimTime max_lag = 0;
    bool monotone = true;
    SimTime prev = 0;
  } stats;
  sim.Spawn([](driver::DriverQueue& queue, Stats& st, des::Simulator& s) -> des::Task<> {
    engine::RecordBatch batch;
    while (co_await queue.PopBatch(&batch, 1)) {
      engine::Record& r = batch[0];
      ++st.n;
      st.max_lag = std::max(st.max_lag, s.now() - r.event_time);
      if (r.event_time < st.prev) st.monotone = false;  // out of order expected
      st.prev = r.event_time;
    }
  }(q, stats, sim));
  sim.RunUntilIdle();
  ASSERT_GT(stats.n, 1000);
  EXPECT_LE(stats.max_lag, Seconds(2) + Seconds(1));
  EXPECT_GT(stats.max_lag, Seconds(1));  // the lag is actually applied
  EXPECT_FALSE(stats.monotone);          // stream is genuinely out of order
}

driver::ExperimentConfig SmallFlinkExperiment(SimTime lag) {
  driver::ExperimentConfig config = workloads::MakeExperiment(
      engine::QueryKind::kAggregation, 2, /*total_rate=*/0.2e6, Seconds(60));
  config.generator.max_event_lag = lag;
  return config;
}

double DroppedTuples(const driver::ExperimentResult& result) {
  const auto it = result.engine_series.find("late_dropped_tuples");
  if (it == result.engine_series.end() || it->second.empty()) return 0;
  return it->second.samples().back().value;
}

TEST(FlinkLatenessTest, LateRecordsDroppedWithoutAllowance) {
  engines::FlinkConfig flink = workloads::CalibratedFlink(
      {engine::QueryKind::kAggregation, {Seconds(8), Seconds(4)}});
  flink.allowed_lateness = 0;
  auto result = driver::RunExperiment(
      SmallFlinkExperiment(Seconds(3)),
      [flink](const driver::SutContext&) { return engines::MakeFlink(flink); });
  EXPECT_GT(DroppedTuples(result), 0.0);
}

TEST(FlinkLatenessTest, AllowanceSavesRecordsButRaisesLatency) {
  engines::FlinkConfig strict = workloads::CalibratedFlink(
      {engine::QueryKind::kAggregation, {Seconds(8), Seconds(4)}});
  strict.allowed_lateness = 0;
  engines::FlinkConfig tolerant = strict;
  tolerant.allowed_lateness = Seconds(4);

  auto strict_run = driver::RunExperiment(
      SmallFlinkExperiment(Seconds(3)),
      [strict](const driver::SutContext&) { return engines::MakeFlink(strict); });
  auto tolerant_run = driver::RunExperiment(
      SmallFlinkExperiment(Seconds(3)),
      [tolerant](const driver::SutContext&) { return engines::MakeFlink(tolerant); });

  EXPECT_LT(DroppedTuples(tolerant_run), DroppedTuples(strict_run));
  ASSERT_FALSE(strict_run.event_latency.empty());
  ASSERT_FALSE(tolerant_run.event_latency.empty());
  // Windows close `allowed_lateness` later -> higher event-time latency.
  EXPECT_GT(tolerant_run.event_latency.Mean(), strict_run.event_latency.Mean());
}

TEST(FlinkLatenessTest, NoLagNothingDropped) {
  engines::FlinkConfig flink = workloads::CalibratedFlink(
      {engine::QueryKind::kAggregation, {Seconds(8), Seconds(4)}});
  auto result = driver::RunExperiment(
      SmallFlinkExperiment(0),
      [flink](const driver::SutContext&) { return engines::MakeFlink(flink); });
  EXPECT_DOUBLE_EQ(DroppedTuples(result), 0.0);
}

double SeriesLast(const driver::ExperimentResult& result, const std::string& name) {
  const auto it = result.engine_series.find(name);
  if (it == result.engine_series.end() || it->second.empty()) return 0;
  return it->second.samples().back().value;
}

TEST(FlinkCheckpointTest, CheckpointsRunAndSnapshotState) {
  engines::FlinkConfig flink = workloads::CalibratedFlink(
      {engine::QueryKind::kAggregation, {Seconds(8), Seconds(4)}});
  flink.checkpoint_interval = Seconds(5);
  auto result = driver::RunExperiment(
      SmallFlinkExperiment(0),
      [flink](const driver::SutContext&) { return engines::MakeFlink(flink); });
  EXPECT_NEAR(SeriesLast(result, "checkpoints"), 11, 2);  // ~60s / 5s
  EXPECT_GT(SeriesLast(result, "snapshot_bytes"), 0.0);
}

TEST(FlinkCheckpointTest, DisabledByDefault) {
  engines::FlinkConfig flink = workloads::CalibratedFlink(
      {engine::QueryKind::kAggregation, {Seconds(8), Seconds(4)}});
  auto result = driver::RunExperiment(
      SmallFlinkExperiment(0),
      [flink](const driver::SutContext&) { return engines::MakeFlink(flink); });
  EXPECT_DOUBLE_EQ(SeriesLast(result, "checkpoints"), 0.0);
  EXPECT_DOUBLE_EQ(SeriesLast(result, "snapshot_bytes"), 0.0);
}

TEST(FlinkCheckpointTest, FrequentCheckpointsCostCapacity) {
  engines::FlinkConfig off = workloads::CalibratedFlink(
      {engine::QueryKind::kAggregation, {Seconds(8), Seconds(4)}});
  engines::FlinkConfig frequent = off;
  frequent.checkpoint_interval = Seconds(1);
  frequent.alignment_stall = Millis(400);

  // Near the no-checkpoint capacity: the per-second barrier stalls eat a
  // large slice of every task's budget, so the same rate stops being
  // sustainable — exactly-once is paid for in throughput.
  driver::ExperimentConfig config = workloads::MakeExperiment(
      engine::QueryKind::kAggregation, 2, /*total_rate=*/1.1e6, Seconds(90));
  auto off_run = driver::RunExperiment(
      config, [off](const driver::SutContext&) { return engines::MakeFlink(off); });
  auto freq_run = driver::RunExperiment(
      config,
      [frequent](const driver::SutContext&) { return engines::MakeFlink(frequent); });
  EXPECT_TRUE(off_run.sustainable) << off_run.verdict;
  EXPECT_FALSE(freq_run.sustainable);
  ASSERT_FALSE(off_run.event_latency.empty());
  ASSERT_FALSE(freq_run.event_latency.empty());
  EXPECT_GT(freq_run.event_latency.Mean(), off_run.event_latency.Mean());
}

}  // namespace
}  // namespace sdps
