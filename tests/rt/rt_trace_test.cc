// Wall-clock tracing through the executor seam: workers record spans on
// their thread-local tracer against an injected des::TimeSource, and
// JoinAll merges them — stamped with real OS tids — into the joining
// thread's tracer. A fake time source makes the span durations exact.
#include <atomic>
#include <set>
#include <string>

#include "des/time_source.h"
#include "gtest/gtest.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "rt/executor.h"
#include "rt/pipeline.h"

namespace sdps::rt {
namespace {

/// Deterministic TimeSource shared across threads (the executor hands it
/// to every worker's tracer clock).
class FakeTime : public des::TimeSource {
 public:
  SimTime now() const override { return t_.load(std::memory_order_relaxed); }
  void Advance(SimTime d) { t_.fetch_add(d, std::memory_order_relaxed); }

 private:
  std::atomic<SimTime> t_{0};
};

const obs::SpanRecord* FindSpan(const std::vector<obs::SpanRecord>& records,
                                const std::string& name) {
  for (const obs::SpanRecord& rec : records) {
    if (name == rec.name) return &rec;
  }
  return nullptr;
}

TEST(RtTraceTest, WorkerSpansMergeWithOsTids) {
  FakeTime fake;
  Executor::Options options;
  options.pin_threads = false;
  options.trace_clock = &fake;
  Executor exec(options);

  obs::Tracer& main_tracer = obs::Tracer::Default();
  main_tracer.Reset();

  exec.Spawn("rt-trace-w0", [&fake] {
    obs::Tracer& tracer = obs::Tracer::Default();
    EXPECT_TRUE(tracer.enabled());  // the executor armed this worker
    const obs::TrackId track = tracer.Track("rt", "rt-trace-w0");
    const SimTime begin = tracer.now();
    fake.Advance(150);
    tracer.Span(track, "unit.work", begin, tracer.now(), "records", 7);
    tracer.Instant(track, "unit.mark", tracer.now());
  });
  exec.JoinAll();

  // The worker's spans arrived on the joining thread's tracer with the
  // injected clock's timestamps.
  const std::vector<obs::SpanRecord> records = main_tracer.Snapshot();
  const obs::SpanRecord* span = FindSpan(records, "unit.work");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->end - span->begin, 150);
  EXPECT_STREQ(span->arg_key[0], "records");
  EXPECT_EQ(span->arg_val[0], 7);
  EXPECT_NE(FindSpan(records, "unit.mark"), nullptr);

  // Its track carries the worker's kernel tid, and the Chrome export uses
  // that tid as the lane id.
  int64_t os_tid = -1;
  for (const obs::TrackInfo& info : main_tracer.TrackInfos()) {
    if (info.process == "rt" && info.thread == "rt-trace-w0") os_tid = info.os_tid;
  }
  ASSERT_GT(os_tid, 0);
  const std::string json = obs::ChromeTraceJson(main_tracer);
  EXPECT_NE(json.find("\"tid\":" + std::to_string(os_tid)), std::string::npos);
  EXPECT_NE(json.find("rt-trace-w0"), std::string::npos);
}

TEST(RtTraceTest, UntracedExecutorLeavesWorkerTracerAlone) {
  Executor::Options options;
  options.pin_threads = false;  // no trace_clock
  Executor exec(options);
  std::atomic<bool> was_enabled{true};
  exec.Spawn("rt-trace-off", [&was_enabled] {
    was_enabled.store(obs::Tracer::Default().enabled());
  });
  exec.JoinAll();
  EXPECT_FALSE(was_enabled.load());
}

TEST(RtTraceTest, PipelineTraceProducesStageSpans) {
  RtPipelineConfig config;
  config.total_rate = 2e5;
  config.duration = Seconds(2);
  config.num_sources = 2;
  config.num_tasks = 2;
  config.batch = 32;
  config.pin_threads = false;
  config.trace = true;

  obs::Tracer& tracer = obs::Tracer::Default();
  tracer.Reset();
  const RtResult result = RunRtPipeline(config);
  EXPECT_GT(result.output_records, 0u);

  // Every stage family left wall-clock spans in the caller's tracer.
  const std::vector<obs::SpanRecord> records = tracer.Snapshot();
  EXPECT_NE(FindSpan(records, "src.flush"), nullptr);
  EXPECT_NE(FindSpan(records, "window.apply"), nullptr);
  EXPECT_NE(FindSpan(records, "sink.emit"), nullptr);
  // Every rt track this run recorded on is a real thread. Reset keeps the
  // track table, so count only the tracks this run's spans reference: an
  // earlier case in the same process may have left other rt tracks.
  std::set<obs::TrackId> rt_tracks;
  for (const obs::SpanRecord& rec : records) {
    const obs::TrackInfo& info = tracer.TrackInfos()[static_cast<size_t>(rec.track)];
    if (info.process != "rt" || !rt_tracks.insert(rec.track).second) continue;
    EXPECT_GT(info.os_tid, 0) << info.thread;
  }
  EXPECT_EQ(rt_tracks.size(), 2u + 2u + 1u);  // sources + tasks + sink
}

}  // namespace
}  // namespace sdps::rt
