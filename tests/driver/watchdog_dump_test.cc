// Watchdog → flight-recorder integration: a trial whose sink wedges
// mid-run must fail with DeadlineExceeded AND leave a parseable
// post-mortem dump at the configured flight-dump path.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "driver/experiment.h"
#include "obs/flight_recorder.h"

namespace sdps::driver {
namespace {

/// Processes records normally until `wedge_at`, then keeps consuming
/// input but never emits again — the exact pathology the watchdog exists
/// for (backpressure never engages because the queues stay drained).
class WedgingSut : public Sut {
 public:
  explicit WedgingSut(SimTime wedge_at) : wedge_at_(wedge_at) {}

  std::string name() const override { return "wedging"; }

  Status Start(const SutContext& ctx) override {
    ctx_ = ctx;
    for (DriverQueue* q : ctx.queues) ctx.sim->Spawn(Pull(*q));
    return Status::OK();
  }

 private:
  des::Task<> Pull(DriverQueue& queue) {
    engine::RecordBatch batch;
    while (co_await queue.PopBatch(&batch, 1)) {
      engine::Record& rec = batch[0];
      if (ctx_.sim->now() >= wedge_at_) continue;  // wedged: swallow input
      engine::OutputRecord out;
      out.max_event_time = rec.event_time;
      out.max_ingest_time = ctx_.sim->now();
      out.key = rec.key;
      out.value = rec.value;
      ctx_.sink->Emit(out);
    }
  }

  SimTime wedge_at_;
  SutContext ctx_;
};

ExperimentConfig WatchdogExperiment() {
  ExperimentConfig config;
  config.cluster.workers = 2;
  config.generator.tuples_per_record = 10;
  config.generator.num_keys = 100;
  config.total_rate = 20000;
  config.duration = Seconds(30);
  config.attach_gc = false;
  config.watchdog_timeout = Seconds(3);
  return config;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(WatchdogDumpTest, WedgedTrialFailsAndDumpsFlightRecorder) {
  const std::string dump_path =
      std::string(::testing::TempDir()) + "watchdog_flight.txt";
  std::remove(dump_path.c_str());
  obs::FlightRecorder::ResetForTest();
  obs::FlightRecorder::set_enabled(true);
  obs::FlightRecorder::SetDumpPath(dump_path);
  obs::FlightRecorder::AnnotateThread("trial-main");
  obs::FlightRecorder::Note("test.begin");

  auto result = RunExperiment(WatchdogExperiment(), [](const SutContext&) {
    return std::make_unique<WedgingSut>(Seconds(10));
  });

  obs::FlightRecorder::set_enabled(false);
  obs::FlightRecorder::SetDumpPath("");

  ASSERT_TRUE(result.failure.IsDeadlineExceeded()) << result.failure.ToString();
  EXPECT_FALSE(result.sustainable);

  const std::string dump = ReadFile(dump_path);
  std::remove(dump_path.c_str());
  ASSERT_FALSE(dump.empty()) << "watchdog did not write a flight dump";
  EXPECT_NE(dump.find("sdps_flight_recorder version=1"), std::string::npos);
  EXPECT_NE(dump.find("reason=\"watchdog: sink made no progress\""),
            std::string::npos);
  // The watchdog noted its own trip, with the stalled output count.
  EXPECT_NE(dump.find("what=\"driver.watchdog\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("what=\"test.begin\""), std::string::npos);
}

TEST(WatchdogDumpTest, HealthyTrialWritesNoDump) {
  const std::string dump_path =
      std::string(::testing::TempDir()) + "watchdog_no_flight.txt";
  std::remove(dump_path.c_str());
  obs::FlightRecorder::ResetForTest();
  obs::FlightRecorder::set_enabled(true);
  obs::FlightRecorder::SetDumpPath(dump_path);

  auto result = RunExperiment(WatchdogExperiment(), [](const SutContext&) {
    // Never wedges within the horizon.
    return std::make_unique<WedgingSut>(Seconds(1000));
  });

  obs::FlightRecorder::set_enabled(false);
  obs::FlightRecorder::SetDumpPath("");

  EXPECT_TRUE(result.failure.ok()) << result.failure.ToString();
  std::ifstream probe(dump_path);
  EXPECT_FALSE(probe.good()) << "healthy run must not trigger the watchdog dump";
}

}  // namespace
}  // namespace sdps::driver
