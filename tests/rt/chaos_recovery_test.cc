// rt::chaos end-to-end: injected wall-clock faults against live pipeline
// workers, supervised recovery, and the per-engine delivery guarantees the
// paper's recovery experiment measures (Section V-F):
//
//   flink  checkpoint snapshot + transactional sink  → exactly-once
//   spark  committed boundary cursor + bucket recompute → exactly-once
//   storm  fresh state + full replay from the ack frontier → at-least-once
//          (duplicates measurable, nothing lost)
//
// The delivery oracle is a fault-free twin run with the same seed: the
// logical output multiset is backend- and pacing-independent, so the twin
// runs unpaced (fast) while the faulty run paces so injection times land
// at deterministic stream positions on any host speed (CI, TSan).
#include <cstdint>
#include <string>

#include "chaos/fault_schedule.h"
#include "chaos/recovery.h"
#include "engine/query.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "rt/pipeline.h"
#include "workloads/realtime.h"

namespace sdps {
namespace {

using workloads::Engine;

constexpr uint64_t kSeed = 42;

/// Paced faulty runs: 5s wall, 2s/1s windows so several windows fire
/// before the mid-run fault at 2.8s.
rt::RtPipelineConfig ChaosConfig(
    Engine engine, bool paced,
    engine::QueryKind kind = engine::QueryKind::kAggregation) {
  rt::RtPipelineConfig config =
      workloads::MakeRealtime(engine, kind, 2, 2e4, Seconds(5), kSeed);
  config.query.window.range = Seconds(2);
  config.query.window.slide = Seconds(1);
  config.batch_interval = Seconds(1);
  config.paced = paced;
  config.num_tasks = 4;
  config.batch = 32;
  config.ring_capacity = 2048;
  config.pin_threads = false;  // CI runners may forbid affinity calls
  config.track_recovery = true;
  config.chaos.backoff_initial = Millis(10);
  return config;
}

/// The exactly-once oracle: same seed, no faults, unpaced.
chaos::RecoveryTracker::OutputCounts OracleOutputs(
    Engine engine, engine::QueryKind kind = engine::QueryKind::kAggregation) {
  rt::RtPipelineConfig config = ChaosConfig(engine, /*paced=*/false, kind);
  const rt::RtResult twin = rt::RunRtPipeline(config);
  EXPECT_TRUE(twin.failure.ok()) << twin.failure.ToString();
  EXPECT_GT(twin.observed_outputs.size(), 0u);
  return twin.observed_outputs;
}

rt::RtResult RunWithFaults(
    Engine engine, const chaos::FaultSchedule& faults, bool paced = true,
    engine::QueryKind kind = engine::QueryKind::kAggregation) {
  rt::RtPipelineConfig config = ChaosConfig(engine, paced, kind);
  config.faults = faults;
  return rt::RunRtPipeline(config);
}

/// Counts one run in the process registry: enabled and zeroed on entry,
/// disabled on exit so the rest of the binary runs with it off.
class RegistryScope {
 public:
  RegistryScope() {
    obs::Registry::Default().ResetValues();
    obs::Registry::Default().set_enabled(true);
  }
  ~RegistryScope() { obs::Registry::Default().set_enabled(false); }
  RegistryScope(const RegistryScope&) = delete;
  RegistryScope& operator=(const RegistryScope&) = delete;
};

/// A counter summed over all its label sets.
uint64_t CounterSum(const std::string& name) {
  uint64_t sum = 0;
  for (const obs::MetricRow& row : obs::Registry::Default().Snapshot()) {
    if (row.name == name) sum += static_cast<uint64_t>(row.value);
  }
  return sum;
}

/// Task counters count each record once across incarnations: a replayed
/// envelope's records are not counted again, and an output counts when it
/// reaches the sink ring (so at-least-once duplicates count, and outputs
/// a crash lost before their commit do not).
void ExpectTaskCountsOnce(const rt::RtResult& result) {
  EXPECT_EQ(CounterSum("rt.task.records"), result.input_records);
  EXPECT_EQ(CounterSum("rt.task.fired_outputs"), result.output_records);
}

// -- Delivery guarantees under a mid-run crash -------------------------------

TEST(RtChaosDeliveryTest, FlinkCrashRecoversExactlyOnce) {
  const auto oracle = OracleOutputs(Engine::kFlink);
  chaos::FaultSchedule faults;
  faults.Crash("w1", Millis(2800), /*restart_delay=*/0);
  const RegistryScope registry;  // counts the faulty run only
  rt::RtResult result = RunWithFaults(Engine::kFlink, faults);
  ASSERT_TRUE(result.failure.ok()) << result.failure.ToString();
  EXPECT_EQ(result.restarts, 1);
  EXPECT_GE(result.checkpoints, 1u);
  EXPECT_GE(result.replayed_envelopes, 1u);
  chaos::RecoveryTracker::ApplyOracle(result.observed_outputs, oracle,
                                      &result.recovery);
  EXPECT_EQ(result.recovery.duplicates, 0u)
      << "flink model must not re-emit committed outputs";
  EXPECT_EQ(result.recovery.lost, 0u)
      << "flink model must not lose uncommitted windows";
  // The measured crash window made it to the tracker via the sink.
  EXPECT_GE(result.recovery.crash_time, 0);
  EXPECT_GE(result.recovery.restart_time, result.recovery.crash_time);
  EXPECT_GE(result.recovery.recovery_time, 0);
  ExpectTaskCountsOnce(result);
}

// The join twin: the checkpoint snapshots and restores the join buffers
// instead of the incremental aggregates. Join outputs repeat identities
// (one per matching pair), so the oracle compares multiplicities.
TEST(RtChaosDeliveryTest, FlinkJoinCrashRecoversExactlyOnce) {
  const auto oracle = OracleOutputs(Engine::kFlink, engine::QueryKind::kJoin);
  chaos::FaultSchedule faults;
  faults.Crash("w1", Millis(2800), /*restart_delay=*/0);
  const RegistryScope registry;
  rt::RtResult result = RunWithFaults(Engine::kFlink, faults, /*paced=*/true,
                                      engine::QueryKind::kJoin);
  ASSERT_TRUE(result.failure.ok()) << result.failure.ToString();
  EXPECT_EQ(result.restarts, 1);
  EXPECT_GE(result.checkpoints, 1u);
  EXPECT_GE(result.replayed_envelopes, 1u);
  chaos::RecoveryTracker::ApplyOracle(result.observed_outputs, oracle,
                                      &result.recovery);
  EXPECT_EQ(result.recovery.duplicates, 0u)
      << "flink join must not re-emit committed outputs";
  EXPECT_EQ(result.recovery.lost, 0u)
      << "flink join must not lose uncommitted windows";
  ExpectTaskCountsOnce(result);
}

TEST(RtChaosDeliveryTest, SparkCrashRecoversExactlyOnce) {
  const auto oracle = OracleOutputs(Engine::kSpark);
  chaos::FaultSchedule faults;
  faults.Crash("w2", Millis(2800), /*restart_delay=*/0);
  const RegistryScope registry;  // counts the faulty run only
  rt::RtResult result = RunWithFaults(Engine::kSpark, faults);
  ASSERT_TRUE(result.failure.ok()) << result.failure.ToString();
  EXPECT_EQ(result.restarts, 1);
  EXPECT_GE(result.replayed_envelopes, 1u);
  chaos::RecoveryTracker::ApplyOracle(result.observed_outputs, oracle,
                                      &result.recovery);
  EXPECT_EQ(result.recovery.duplicates, 0u)
      << "spark model must not re-evaluate committed boundaries";
  EXPECT_EQ(result.recovery.lost, 0u);
  ExpectTaskCountsOnce(result);
}

TEST(RtChaosDeliveryTest, StormCrashReplaysAtLeastOnce) {
  const auto oracle = OracleOutputs(Engine::kStorm);
  chaos::FaultSchedule faults;
  faults.Crash("w1", Millis(2800), /*restart_delay=*/0);
  const RegistryScope registry;  // counts the faulty run only
  rt::RtResult result = RunWithFaults(Engine::kStorm, faults);
  ASSERT_TRUE(result.failure.ok()) << result.failure.ToString();
  EXPECT_EQ(result.restarts, 1);
  EXPECT_GE(result.replayed_envelopes, 1u);
  chaos::RecoveryTracker::ApplyOracle(result.observed_outputs, oracle,
                                      &result.recovery);
  EXPECT_GT(result.recovery.duplicates, 0u)
      << "storm model replays fired windows: duplicates are the measurable "
         "cost of at-least-once";
  EXPECT_EQ(result.recovery.lost, 0u)
      << "at-least-once may duplicate but must not lose";
  ExpectTaskCountsOnce(result);
}

// Retained rings smaller than one checkpoint interval's envelopes: the
// unpaced sources fill them and block until the transactional task acks,
// and the task, having drained them, acks only when it commits while idle
// (the pop's checkpoint deadline). The crash lies past the horizon, so it
// only switches retention on. Were that commit lost, the run would stall
// until the watchdog fails it.
TEST(RtChaosDeliveryTest, FlinkIdleCheckpointFreesSmallRetainedRings) {
  const auto oracle = OracleOutputs(Engine::kFlink);
  chaos::FaultSchedule faults;
  faults.Crash("w1", Seconds(60), /*restart_delay=*/0);
  rt::RtPipelineConfig config = ChaosConfig(Engine::kFlink, /*paced=*/false);
  config.faults = faults;
  config.ring_capacity = 4;
  config.chaos.checkpoint_every = Millis(2);
  config.watchdog_timeout = Seconds(3);
  rt::RtResult result = rt::RunRtPipeline(config);
  ASSERT_TRUE(result.failure.ok()) << result.failure.ToString();
  EXPECT_EQ(result.restarts, 0);
  EXPECT_GT(result.checkpoints, 1u);
  chaos::RecoveryTracker::ApplyOracle(result.observed_outputs, oracle,
                                      &result.recovery);
  EXPECT_EQ(result.recovery.duplicates, 0u);
  EXPECT_EQ(result.recovery.lost, 0u);
}

// -- Supervisor edge cases ---------------------------------------------------

// Crash on the very first envelope: the fault races the sources' own
// close cascade (a tiny stream drains almost immediately), so the restart
// overlaps pipeline shutdown — the supervisor must reap + respawn while
// the main thread is already waiting to join.
TEST(RtSupervisorTest, CrashOnFirstEnvelopeRestartsCleanly) {
  const auto oracle = OracleOutputs(Engine::kFlink);
  chaos::FaultSchedule faults;
  faults.Crash("w0", 0, /*restart_delay=*/0);
  rt::RtResult result = RunWithFaults(Engine::kFlink, faults, /*paced=*/false);
  ASSERT_TRUE(result.failure.ok()) << result.failure.ToString();
  EXPECT_EQ(result.restarts, 1);
  chaos::RecoveryTracker::ApplyOracle(result.observed_outputs, oracle,
                                      &result.recovery);
  EXPECT_EQ(result.recovery.duplicates, 0u);
  EXPECT_EQ(result.recovery.lost, 0u);
}

// Two crashes on the same slot with max_restarts=1: the second exit
// exhausts the retry budget. The run must FAIL with a Status — returning
// at all (instead of hanging on stranded producers) is the core assertion.
TEST(RtSupervisorTest, DoubleCrashExhaustsRestartsWithoutHanging) {
  chaos::FaultSchedule faults;
  faults.Crash("w0", 0, /*restart_delay=*/0);
  faults.Crash("w0", Millis(1), /*restart_delay=*/0);
  rt::RtPipelineConfig config = ChaosConfig(Engine::kFlink, /*paced=*/false);
  config.faults = faults;
  config.chaos.max_restarts = 1;
  const rt::RtResult result = rt::RunRtPipeline(config);
  EXPECT_TRUE(result.failure.IsAborted()) << result.failure.ToString();
  EXPECT_EQ(result.restarts, 1);
}

// A straggler just below the stall timeout must not be mistaken for a
// wedge: straggle sleeps keep the heartbeat live, so zero restarts — and
// the throttle must not change the output multiset.
TEST(RtSupervisorTest, StraggleBelowStallTimeoutIsNotAFalsePositive) {
  const auto oracle = OracleOutputs(Engine::kStorm);
  chaos::FaultSchedule faults;
  faults.Straggle("w0", 0, Seconds(60), /*factor=*/0.5);
  rt::RtPipelineConfig config = ChaosConfig(Engine::kStorm, /*paced=*/false);
  config.faults = faults;
  config.chaos.stall_timeout = Millis(150);
  rt::RtResult result = rt::RunRtPipeline(config);
  ASSERT_TRUE(result.failure.ok()) << result.failure.ToString();
  EXPECT_EQ(result.restarts, 0);
  chaos::RecoveryTracker::ApplyOracle(result.observed_outputs, oracle,
                                      &result.recovery);
  EXPECT_EQ(result.recovery.duplicates, 0u);
  EXPECT_EQ(result.recovery.lost, 0u);
}

// A wedge freezes the heartbeat; the liveness detector kills the slot and
// the replacement replays from the ack frontier.
TEST(RtSupervisorTest, SupervisedWedgeIsDetectedAndRestarted) {
  const auto oracle = OracleOutputs(Engine::kFlink);
  chaos::FaultSchedule faults;
  faults.Wedge("w1", 0, Seconds(60));  // outlasts the run: only a kill ends it
  rt::RtPipelineConfig config = ChaosConfig(Engine::kFlink, /*paced=*/false);
  config.faults = faults;
  config.chaos.stall_timeout = Millis(80);
  rt::RtResult result = rt::RunRtPipeline(config);
  ASSERT_TRUE(result.failure.ok()) << result.failure.ToString();
  EXPECT_EQ(result.restarts, 1);
  chaos::RecoveryTracker::ApplyOracle(result.observed_outputs, oracle,
                                      &result.recovery);
  EXPECT_EQ(result.recovery.duplicates, 0u);
  EXPECT_EQ(result.recovery.lost, 0u);
}

// A wedge that expires before the stall detector notices resumes on its
// own — the worker processes the held envelope and the run completes with
// zero restarts (transient hiccup, not a failure).
TEST(RtSupervisorTest, TransientWedgeResumesWithoutRestart) {
  const auto oracle = OracleOutputs(Engine::kFlink);
  chaos::FaultSchedule faults;
  faults.Wedge("w1", 0, Millis(50));
  rt::RtPipelineConfig config = ChaosConfig(Engine::kFlink, /*paced=*/false);
  config.faults = faults;
  config.chaos.stall_timeout = Millis(500);
  rt::RtResult result = rt::RunRtPipeline(config);
  ASSERT_TRUE(result.failure.ok()) << result.failure.ToString();
  EXPECT_EQ(result.restarts, 0);
  chaos::RecoveryTracker::ApplyOracle(result.observed_outputs, oracle,
                                      &result.recovery);
  EXPECT_EQ(result.recovery.duplicates, 0u);
  EXPECT_EQ(result.recovery.lost, 0u);
}

// -- Watchdog under --realtime (driver watchdog satellite) -------------------

// With supervision off, nobody rescues a wedged slot: sink progress
// stalls on the wall clock and the watchdog must trip (DeadlineExceeded),
// abort the rings, and unwind every thread — a regression guard against
// the wedged-trial-hangs-forever failure mode.
TEST(RtWatchdogTest, UnsupervisedWedgeTripsWallClockWatchdog) {
  chaos::FaultSchedule faults;
  faults.Wedge("w0", 0, Seconds(120));
  rt::RtPipelineConfig config = ChaosConfig(Engine::kFlink, /*paced=*/false);
  config.faults = faults;
  config.chaos.supervise = false;
  config.watchdog_timeout = Millis(300);
  const rt::RtResult result = rt::RunRtPipeline(config);
  EXPECT_TRUE(result.failure.IsDeadlineExceeded()) << result.failure.ToString();
  EXPECT_EQ(result.restarts, 0);
}

// The watchdog excuses stalls inside supervised fault windows (+grace):
// a supervised crash mid-run must NOT trip a tight watchdog.
TEST(RtWatchdogTest, SupervisedCrashDoesNotTripWatchdog) {
  chaos::FaultSchedule faults;
  faults.Crash("w0", 0, /*restart_delay=*/0);
  rt::RtPipelineConfig config = ChaosConfig(Engine::kFlink, /*paced=*/false);
  config.faults = faults;
  config.watchdog_timeout = Millis(300);
  const rt::RtResult result = rt::RunRtPipeline(config);
  EXPECT_TRUE(result.failure.ok()) << result.failure.ToString();
  EXPECT_EQ(result.restarts, 1);
}

// -- Plan validation ---------------------------------------------------------

TEST(RtChaosPlanTest, CrashOnSourceIsAConfigError) {
  chaos::FaultSchedule faults;
  faults.Crash("d0", Millis(100), 0);
  rt::RtPipelineConfig config = ChaosConfig(Engine::kFlink, /*paced=*/false);
  config.faults = faults;
  const rt::RtResult result = rt::RunRtPipeline(config);
  EXPECT_TRUE(result.failure.IsInvalidArgument()) << result.failure.ToString();
  EXPECT_EQ(result.input_records, 0u) << "a bad plan must fail before spawning";
}

TEST(RtChaosPlanTest, UnknownSlotIsAConfigError) {
  chaos::FaultSchedule faults;
  faults.Crash("w9", Millis(100), 0);  // only w0..w3 exist
  rt::RtPipelineConfig config = ChaosConfig(Engine::kFlink, /*paced=*/false);
  config.faults = faults;
  const rt::RtResult result = rt::RunRtPipeline(config);
  EXPECT_TRUE(result.failure.IsInvalidArgument()) << result.failure.ToString();
}

TEST(RtChaosPlanTest, ResourceModelFaultsAreRejected) {
  chaos::FaultSchedule faults;
  faults.GcStorm("w0", Millis(100), Seconds(1), Millis(50), Millis(200));
  rt::RtPipelineConfig config = ChaosConfig(Engine::kFlink, /*paced=*/false);
  config.faults = faults;
  const rt::RtResult result = rt::RunRtPipeline(config);
  EXPECT_TRUE(result.failure.IsInvalidArgument()) << result.failure.ToString();
}

TEST(RtChaosPlanTest, SourceStraggleIsAccepted) {
  chaos::FaultSchedule faults;
  faults.Straggle("d1", 0, Seconds(1), 0.5);
  rt::RtPipelineConfig config = ChaosConfig(Engine::kFlink, /*paced=*/false);
  config.faults = faults;
  const rt::RtResult result = rt::RunRtPipeline(config);
  EXPECT_TRUE(result.failure.ok()) << result.failure.ToString();
  EXPECT_GT(result.output_records, 0u);
}

}  // namespace
}  // namespace sdps
