// Logical-identity and recovery semantics of the batched data plane
// (--batch=N): with the same seed and workload, the output multiset —
// (key, window end, window max-event-time, value) identities with counts —
// must not depend on the batch size. Event-time engines (Flink, Storm)
// guarantee this structurally: sources emit monotone event times
// (max_event_lag = 0) and every channel is FIFO, so a record always
// reaches its window task before the watermark that could fire its window,
// no matter how admissions are coalesced. The GC pause model stays on for
// those runs: pauses back records up in the driver queues, so PopBatch
// genuinely drains multi-record batches.
//
// Spark windows by arrival micro-batch (processing time), so its outputs
// are only batch-invariant while the ingest path stays unclustered (each
// record popped at its arrival instant); its identity runs disable GC and
// stay well under capacity to pin that regime — this still exercises the
// batched fetcher/receiver code paths end to end at --batch=64.
//
// The recovery tests crash a worker mid-run at --batch=64: replay after
// restore pops retained records through PopBatch in full batches, and the
// delivery guarantee must be what the per-record plane provides.
#include <gtest/gtest.h>

#include "driver/experiment.h"
#include "engines/flink/flink.h"
#include "workloads/workloads.h"

namespace sdps {
namespace {

using workloads::Engine;
using workloads::EngineTuning;
using workloads::MakeEngineFactory;
using workloads::MakeExperiment;

constexpr int kBatch = 64;

driver::ExperimentConfig IdentityConfig(engine::QueryKind query, double rate,
                                        bool attach_gc) {
  driver::ExperimentConfig config = MakeExperiment(query, 2, rate, Seconds(40));
  config.track_recovery = true;  // record output identities
  config.attach_gc = attach_gc;
  return config;
}

void ExpectBatchInvariantOutputs(Engine engine, engine::QueryKind query, double rate,
                                 bool attach_gc) {
  auto factory = MakeEngineFactory(engine, {query, {}});
  driver::ExperimentConfig config = IdentityConfig(query, rate, attach_gc);
  config.batch = 1;
  const auto serial = driver::RunExperiment(config, factory);
  config.batch = kBatch;
  const auto batched = driver::RunExperiment(config, factory);
  ASSERT_TRUE(serial.failure.ok()) << serial.failure.ToString();
  ASSERT_TRUE(batched.failure.ok()) << batched.failure.ToString();
  ASSERT_GT(serial.output_records, 0u);
  EXPECT_EQ(serial.output_records, batched.output_records);
  EXPECT_EQ(serial.observed_outputs, batched.observed_outputs);
  // The generator-side input is identical too (burst-size invariance).
  EXPECT_DOUBLE_EQ(serial.mean_ingest_rate, batched.mean_ingest_rate);
}

TEST(BatchIdentityTest, FlinkAggregation) {
  ExpectBatchInvariantOutputs(Engine::kFlink, engine::QueryKind::kAggregation,
                              1.0e5, /*attach_gc=*/true);
}

TEST(BatchIdentityTest, FlinkJoin) {
  ExpectBatchInvariantOutputs(Engine::kFlink, engine::QueryKind::kJoin, 2.0e4,
                              /*attach_gc=*/true);
}

TEST(BatchIdentityTest, StormAggregation) {
  ExpectBatchInvariantOutputs(Engine::kStorm, engine::QueryKind::kAggregation,
                              1.0e5, /*attach_gc=*/true);
}

TEST(BatchIdentityTest, StormJoin) {
  ExpectBatchInvariantOutputs(Engine::kStorm, engine::QueryKind::kJoin, 2.0e4,
                              /*attach_gc=*/true);
}

TEST(BatchIdentityTest, SparkAggregation) {
  ExpectBatchInvariantOutputs(Engine::kSpark, engine::QueryKind::kAggregation,
                              2.0e4, /*attach_gc=*/false);
}

TEST(BatchIdentityTest, SparkJoin) {
  ExpectBatchInvariantOutputs(Engine::kSpark, engine::QueryKind::kJoin, 2.0e4,
                              /*attach_gc=*/false);
}

// -- The unsent floor at --batch=1 --------------------------------------------

// A run of one record is still held between pop and channel delivery: the
// source charges its CPU and, for a remote task, serializes it and moves it
// across a link. A later record of the same queue bound for a local task
// skips both, lands first and advances the shared event-time clock past
// the held one. With watermarks every 50 us and 100 us windows, a
// broadcast from that clock would fire the held record's window before the
// record arrives and late-drop it; the unsent floor caps the broadcast.
TEST(BatchUnsentFloorTest, FlinkBatchOneDropsNothingLate) {
  const engine::QueryConfig query{engine::QueryKind::kAggregation, {100, 100}};
  engines::FlinkConfig flink = workloads::CalibratedFlink(query);
  flink.watermark_interval = 50;
  driver::ExperimentConfig config =
      MakeExperiment(engine::QueryKind::kAggregation, 2, 1.0e5, Seconds(1));
  config.generator.tuples_per_record = 1;
  config.attach_gc = false;
  config.batch = 1;
  const auto result = driver::RunExperiment(
      config, [flink](const driver::SutContext&) { return engines::MakeFlink(flink); });
  ASSERT_TRUE(result.failure.ok()) << result.failure.ToString();
  ASSERT_GT(result.output_records, 0u);
  const auto late = result.engine_series.find("late_dropped_tuples");
  ASSERT_NE(late, result.engine_series.end());
  EXPECT_EQ(late->second.samples().back().value, 0.0);
}

// -- Recovery at --batch=64 ---------------------------------------------------

constexpr SimTime kRecoveryDuration = Seconds(60);
constexpr SimTime kCrashAt = Seconds(30);
constexpr SimTime kRestartDelay = Seconds(10);

driver::ExperimentConfig RecoveryConfig(engine::QueryKind query, bool faulty) {
  driver::ExperimentConfig config = MakeExperiment(query, 2, 2.0e4, kRecoveryDuration);
  config.track_recovery = true;
  config.batch = kBatch;
  if (faulty) {
    config.faults.Crash("w1", kCrashAt, kRestartDelay);
    config.watchdog_timeout = Seconds(30);
  }
  return config;
}

TEST(BatchRecoveryTest, FlinkAggregationStaysExactlyOnce) {
  EngineTuning tuning;
  tuning.recovery = true;
  auto factory =
      MakeEngineFactory(Engine::kFlink, {engine::QueryKind::kAggregation, {}}, tuning);
  const auto oracle =
      driver::RunExperiment(RecoveryConfig(engine::QueryKind::kAggregation, false),
                            factory);
  ASSERT_EQ(oracle.recovery.duplicates, 0u);
  driver::ExperimentConfig faulty =
      RecoveryConfig(engine::QueryKind::kAggregation, true);
  faulty.recovery_oracle = &oracle.observed_outputs;
  const auto result = driver::RunExperiment(faulty, factory);
  EXPECT_TRUE(result.failure.ok()) << result.failure.ToString();
  EXPECT_EQ(result.recovery.crash_time, kCrashAt);
  EXPECT_GT(result.recovery.outputs_total, 0u);
  // The crash lands mid-batch: retained records are replayed and re-popped
  // through PopBatch in full batches, yet no output is duplicated or lost.
  EXPECT_EQ(result.recovery.duplicates, 0u);
  EXPECT_EQ(result.recovery.lost, 0u);
}

TEST(BatchRecoveryTest, StormAggregationReplaysAtLeastOnce) {
  EngineTuning tuning;
  tuning.recovery = true;
  auto factory =
      MakeEngineFactory(Engine::kStorm, {engine::QueryKind::kAggregation, {}}, tuning);
  const auto oracle =
      driver::RunExperiment(RecoveryConfig(engine::QueryKind::kAggregation, false),
                            factory);
  ASSERT_EQ(oracle.recovery.duplicates, 0u);
  driver::ExperimentConfig faulty =
      RecoveryConfig(engine::QueryKind::kAggregation, true);
  faulty.recovery_oracle = &oracle.observed_outputs;
  const auto result = driver::RunExperiment(faulty, factory);
  // At-least-once: the batched ack/replay path re-fires windows, surfacing
  // replayed tuples as duplicate identities — same guarantee as --batch=1.
  EXPECT_EQ(result.recovery.crash_time, kCrashAt);
  EXPECT_GT(result.recovery.duplicates, 0u);
}

}  // namespace
}  // namespace sdps
