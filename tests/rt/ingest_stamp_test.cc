// Ingest-stamp invariants of the rt source (DESIGN.md §6): every record's
// ingest stamp is the source's most recent wall-clock read — one per wake
// when paced (the read PaceTo makes), per staged batch when unpaced. So:
//   * paced, a stamp is never before the record's planned emission, and
//     every output has max_event_time <= max_ingest_time;
//   * in both modes, every stamp is a real read of the run's clock:
//     0 <= max_ingest_time <= the run's wall end.
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "rt/pipeline.h"
#include "workloads/realtime.h"

namespace sdps {
namespace {

rt::RtResult RunFlinkAgg(bool paced) {
  rt::RtPipelineConfig config =
      workloads::MakeRealtime(workloads::Engine::kFlink, engine::QueryKind::kAggregation,
                              2, paced ? 1e5 : 1e6, Seconds(2), /*seed=*/11);
  config.batch = 32;
  config.paced = paced;
  config.capture_outputs = true;
  config.pin_threads = false;
  return rt::RunRtPipeline(config);
}

void ExpectStampsWithinRun(const rt::RtResult& r) {
  ASSERT_TRUE(r.failure.ok()) << r.failure.ToString();
  ASSERT_FALSE(r.outputs.empty());
  for (const engine::OutputRecord& out : r.outputs) {
    EXPECT_GE(out.max_ingest_time, 0);
    EXPECT_LE(ToSeconds(out.max_ingest_time), r.wall_seconds);
  }
}

TEST(RtIngestStampTest, PacedStampsNeverPrecedeEventTime) {
  const rt::RtResult r = RunFlinkAgg(/*paced=*/true);
  ExpectStampsWithinRun(r);
  for (const engine::OutputRecord& out : r.outputs) {
    EXPECT_LE(out.max_event_time, out.max_ingest_time)
        << "key " << out.key << " window_end " << out.window_end;
  }
}

TEST(RtIngestStampTest, UnpacedBatchStampsAreRealClockReads) {
  ExpectStampsWithinRun(RunFlinkAgg(/*paced=*/false));
}

// A paced Flink agg at 2e5 records/s for 2 s with the profiler on: a
// pipeline running well ahead of its schedule. Run once, shared by the
// tests below.
struct PacedAheadRun {
  rt::RtPipelineConfig config;
  rt::RtResult result;
};
const PacedAheadRun& RunPacedAhead() {
  static const PacedAheadRun run = [] {
    rt::RtPipelineConfig config = workloads::MakeRealtime(
        workloads::Engine::kFlink, engine::QueryKind::kAggregation, 2,
        /*total_rate=*/1.0, Seconds(2), /*seed=*/11);
    // 2e5 records/s (total_rate counts tuples): each source's next record
    // is 10 µs away, far inside the OS timer slack.
    config.total_rate = 2e5 * config.generator.tuples_per_record;
    config.batch = 32;
    config.paced = true;
    config.profile = true;
    config.pin_threads = false;
    return PacedAheadRun{config, rt::RunRtPipeline(config)};
  }();
  return run;
}

// A paced pipeline running ahead of its schedule sleeps instead of
// spinning: the sources nap until records fall due and the task naps on
// its empty rings, so each stage's CPU time stays well under its wall
// time — while the generator still keeps to its schedule.
TEST(RtPacingTest, PacedStagesSleepWhenAhead) {
  const auto& [config, r] = RunPacedAhead();
  ASSERT_TRUE(r.failure.ok()) << r.failure.ToString();
  ASSERT_TRUE(r.profiled);
  EXPECT_LT(r.wall_seconds - ToSeconds(config.duration), 0.1);
  int checked = 0;
  for (const rt::Profiler::StageReport& stage : r.profile.stages) {
    if (!stage.name.starts_with("rt-src-") && !stage.name.starts_with("rt-task-")) {
      continue;
    }
    ++checked;
    EXPECT_GT(stage.wall_s, 0.0) << stage.name;
    EXPECT_LE(stage.compute_s, 0.5 * stage.wall_s)
        << stage.name << ": compute " << stage.compute_s << " s of "
        << stage.wall_s << " s wall";
  }
  EXPECT_EQ(checked, config.num_sources + config.num_tasks);
}

// Window fires reach the sink a few times per second, so between them the
// sink parks on its bell rather than waking to poll its rings.
TEST(RtPacingTest, IdleSinkParks) {
  const rt::RtResult& r = RunPacedAhead().result;
  ASSERT_TRUE(r.failure.ok()) << r.failure.ToString();
  ASSERT_TRUE(r.profiled);
  int checked = 0;
  for (const rt::Profiler::StageReport& stage : r.profile.stages) {
    if (stage.name != "rt-sink") continue;
    ++checked;
    EXPECT_GT(stage.wall_s, 0.0);
    EXPECT_LE(stage.compute_s, 0.02 * stage.wall_s)
        << "rt-sink: compute " << stage.compute_s << " s of " << stage.wall_s
        << " s wall";
  }
  EXPECT_EQ(checked, 1);
}

}  // namespace
}  // namespace sdps
