#include "rt/profiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "rt/pipeline.h"

namespace sdps::rt {
namespace {

TEST(ProfilerTest, UnstartedStopReturnsEmptyReport) {
  Profiler profiler;
  const Profiler::Report report = profiler.Stop();
  EXPECT_EQ(report.samples, 0);
  EXPECT_TRUE(report.stages.empty());
  EXPECT_TRUE(report.rings.empty());
}

TEST(ProfilerTest, StageBreakdownFromRealThread) {
  Profiler::Options options;
  options.period = Millis(2);
  options.update_registry = false;
  Profiler profiler(options);
  Profiler::StageCounters* counters = profiler.AddStage("stage-a");
  ASSERT_NE(counters, nullptr);
  profiler.Start();
  EXPECT_TRUE(profiler.running());

  std::thread worker([&profiler, counters] {
    profiler.BindCurrentThread("stage-a");
    // Burn CPU long enough for several samples, then record hot-path
    // tallies the way pipeline stages do.
    const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
    volatile uint64_t sink = 0;
    while (std::chrono::steady_clock::now() < until) sink = sink + 1;
    counters->blocked_us.fetch_add(5000, std::memory_order_relaxed);
    counters->pop_wait_us.fetch_add(3000, std::memory_order_relaxed);
    counters->records.fetch_add(123, std::memory_order_relaxed);
    profiler.FinishCurrentThread("stage-a");
  });
  worker.join();

  const Profiler::Report report = profiler.Stop();
  EXPECT_GT(report.samples, 0);
  EXPECT_GT(report.duration_s, 0.0);
  ASSERT_EQ(report.stages.size(), 1u);
  const Profiler::StageReport& stage = report.stages[0];
  EXPECT_EQ(stage.name, "stage-a");
  EXPECT_GT(stage.wall_s, 0.0);
  EXPECT_GT(stage.compute_s, 0.0);  // the spin loop is real CPU time
  EXPECT_NEAR(stage.stall_s, 0.005, 1e-9);
  EXPECT_NEAR(stage.wait_s, 0.003, 1e-9);
  EXPECT_GE(stage.idle_s, 0.0);
  EXPECT_EQ(stage.records, 123u);
  // The worker finished, so wall covers bind → finish, not bind → Stop.
  EXPECT_GE(stage.wall_s, 0.025);

  // Stop is idempotent and returns the cached report.
  const Profiler::Report again = profiler.Stop();
  EXPECT_EQ(again.samples, report.samples);
  EXPECT_EQ(again.stages.size(), report.stages.size());
}

TEST(ProfilerTest, RingOccupancySampled) {
  Profiler::Options options;
  options.period = Millis(1);
  options.update_registry = false;
  Profiler profiler(options);
  std::atomic<size_t> occupancy{7};
  profiler.AddRing("ring-x", 64,
                   [&occupancy] { return occupancy.load(std::memory_order_relaxed); });
  profiler.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  occupancy.store(11, std::memory_order_relaxed);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const Profiler::Report report = profiler.Stop();
  ASSERT_EQ(report.rings.size(), 1u);
  const Profiler::RingReport& ring = report.rings[0];
  EXPECT_EQ(ring.name, "ring-x");
  EXPECT_EQ(ring.capacity, 64u);
  EXPECT_EQ(ring.max_occupancy, 11u);
  EXPECT_GE(ring.mean_occupancy, 7.0);
  EXPECT_LE(ring.mean_occupancy, 11.0);
}

TEST(ProfilerTest, UnboundStageReportsZeroWall) {
  Profiler::Options options;
  options.period = Millis(1);
  options.update_registry = false;
  Profiler profiler(options);
  profiler.AddStage("never-bound");
  profiler.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const Profiler::Report report = profiler.Stop();
  ASSERT_EQ(report.stages.size(), 1u);
  EXPECT_EQ(report.stages[0].wall_s, 0.0);
  EXPECT_EQ(report.stages[0].compute_s, 0.0);
}

// Shutdown race: Start()/Stop() in a tight loop with a period far shorter
// than the loop body would deadlock or race if the sampler's stop_token
// wait were wrong. Run under TSan this also proves the sampler never
// touches a finished worker's clockid.
TEST(ProfilerTest, StartStopRaceIsClean) {
  for (int i = 0; i < 50; ++i) {
    Profiler::Options options;
    options.period = 200;  // µs: far shorter than the loop body
    options.update_registry = false;
    Profiler profiler(options);
    Profiler::StageCounters* counters = profiler.AddStage("racer");
    profiler.Start();
    std::thread worker([&profiler, counters] {
      profiler.BindCurrentThread("racer");
      counters->records.fetch_add(1, std::memory_order_relaxed);
      profiler.FinishCurrentThread("racer");
    });
    worker.join();
    const Profiler::Report report = profiler.Stop();
    EXPECT_FALSE(profiler.running());
    ASSERT_EQ(report.stages.size(), 1u);
    EXPECT_EQ(report.stages[0].records, 1u);
  }
}

// The destructor alone must also stop the sampler (no explicit Stop).
TEST(ProfilerTest, DestructorStopsSampler) {
  Profiler::Options options;
  options.period = 500;  // µs
  options.update_registry = false;
  auto profiler = std::make_unique<Profiler>(options);
  profiler->AddStage("short-lived");
  profiler->Start();
  profiler.reset();  // must join the sampler without hanging
}

// The pipeline's stage contract with the profiler (perfbench's per-layer
// report prefix-matches these names): one stage per source, per task and
// the sink, in that order, and each layer's records add up to the run's
// totals.
TEST(RtProfileTest, ReportsEveryStageOnceWithRecordTotals) {
  RtPipelineConfig config;
  config.total_rate = 2e5;
  config.duration = Seconds(2);
  config.num_sources = 2;
  config.num_tasks = 3;
  config.pin_threads = false;
  config.profile = true;
  const RtResult result = RunRtPipeline(config);
  ASSERT_TRUE(result.failure.ok()) << result.failure.ToString();
  ASSERT_TRUE(result.profiled);
  ASSERT_GT(result.output_records, 0u);

  std::vector<std::string> names;
  uint64_t src_records = 0, task_records = 0, sink_records = 0;
  for (const Profiler::StageReport& stage : result.profile.stages) {
    names.push_back(stage.name);
    if (stage.name.starts_with("rt-src-")) src_records += stage.records;
    if (stage.name.starts_with("rt-task-")) task_records += stage.records;
    if (stage.name == "rt-sink") sink_records += stage.records;
  }
  EXPECT_EQ(names, (std::vector<std::string>{"rt-src-0", "rt-src-1", "rt-task-0",
                                             "rt-task-1", "rt-task-2", "rt-sink"}));
  EXPECT_EQ(src_records, result.input_records);
  EXPECT_EQ(task_records, result.input_records);
  EXPECT_EQ(sink_records, result.output_records);
}

}  // namespace
}  // namespace sdps::rt
